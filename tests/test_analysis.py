"""Tests for weak-error curves, order fits, the SES probe, and the checker."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import monosde as m
from monosde import analysis
from monosde.analysis import ReferenceConfig, _tangent_stepper
from monosde.noise import CHUNK_STEPS, fine_increments_block

FIG1 = m.make_fig1()
OU = m.make_linear_1d()
ARCTAN = m.make_observable("arctan")
IDENTITY = m.make_observable("identity")

# light reference so unit tests stay fast; the full caption-scale protocol
# runs in test_acceptance
QUICK_REF = ReferenceConfig(kind="tamed", delta=0.005, n_paths=2000)


def test_weak_error_curve_structure():
    rep = m.weak_error_curve(FIG1, m.SchemeConfig("tte", 0.05, alpha=1.3),
                             ARCTAN, x0=1.0, horizon=4.0, n_paths=1000,
                             seed=0, record_dt=0.25, reference=QUICK_REF,
                             threads=4)
    assert rep.err.shape == rep.times.shape
    assert np.all(rep.err >= 0)
    assert rep.sup_error == np.max(rep.err)
    assert rep.max_halfwidth >= np.max(rep.halfwidth) - 1e-15
    assert rep.n_blowups_curve == 0 and rep.n_blowups_ref == 0
    # curve and reference rode the same underlying increments
    assert rep.coupled


def test_weak_error_plateau_definition():
    rep = m.weak_error_curve(FIG1, m.SchemeConfig("tte", 0.05, alpha=1.3),
                             ARCTAN, x0=1.0, horizon=8.0, n_paths=800,
                             seed=1, record_dt=0.5, reference=QUICK_REF,
                             threads=4)
    half = rep.times <= rep.times[-1] / 2.0
    early = float(np.max(rep.err[half]))
    late = float(np.max(rep.err[~half]))
    assert rep.plateau == (late <= early + 2.0 * rep.max_halfwidth)


def test_convergence_order_validates_deltas():
    with pytest.raises(ValueError, match="need >= 3 deltas"):
        m.convergence_order(OU, "em", [0.2, 0.1], IDENTITY, x0=1.0,
                            horizon=2.0, n_paths=100)
    with pytest.raises(ValueError, match="geometric"):
        m.convergence_order(OU, "em", [0.2, 0.1, 0.07], IDENTITY, x0=1.0,
                            horizon=2.0, n_paths=100)


def test_convergence_order_ou_exact_oracle():
    rep = m.convergence_order(
        OU, "em", [0.2, 0.1, 0.05, 0.025], IDENTITY, x0=1.0, horizon=5.0,
        n_paths=20000, seed=0, record_dt=0.25,
        exact_mean=lambda t: m.ou_exact_mean(1.0, t), threads=4)
    assert 0.8 <= rep.beta_hat <= 1.25
    assert rep.beta_stderr > 0
    assert len(rep.sup_errors) == 4
    assert np.all(np.diff(rep.sup_errors) < 0)  # smaller delta, smaller error


def test_local_profile_exponents():
    states = [0.0, 1.0, 2.0, 4.0, 8.0]
    deltas = [0.2, 0.1, 0.05]
    tte = m.local_weak_error_profile(FIG1, m.SchemeConfig("tte", 0.1, alpha=1.3),
                                     states, deltas, IDENTITY, n_paths=2048,
                                     seed=0, threads=4)
    em = m.local_weak_error_profile(FIG1, m.SchemeConfig("em", 0.1),
                                    states, deltas, IDENTITY, n_paths=2048,
                                    seed=0, threads=4)
    assert len(tte.rows) == len(states) * len(deltas)
    assert 1.4 <= tte.delta_exponent <= 2.4
    # the one-step error grows superlinearly in |x|, fastest for explicit EM
    assert tte.growth_exponent > 1.5
    assert em.growth_exponent > tte.growth_exponent


def test_ses_probe_ou_matches_closed_form():
    rep = m.ses_probe(OU, IDENTITY, [1.0], horizon=4.0, n_paths=256,
                      fine_delta=0.01, seed=0)
    # the tangent step is exactly (1 - delta) per step here
    expected = -np.log(1.0 - 0.01) / 0.01
    np.testing.assert_allclose(rep.gamma_hat, expected, rtol=1e-9)
    assert rep.decay_detected
    assert rep.grad_norm[0] == 1.0


def test_ses_probe_needs_two_paths():
    # one path has no standard error; the engine would report NaN
    with pytest.raises(ValueError, match="two paths"):
        m.ses_probe(OU, IDENTITY, [1.0], horizon=1.0, n_paths=1,
                    fine_delta=0.01)


def test_ses_probe_fig1_decays():
    rep = m.ses_probe(FIG1, ARCTAN, [1.0], horizon=5.0, n_paths=2048,
                      fine_delta=0.01, seed=0, threads=4)
    assert rep.decay_detected
    assert rep.gamma_hat > 0.8
    assert rep.gamma2_hat is not None and rep.gamma2_hat > 0.5
    assert rep.points_used >= 3


def test_ses_probe_no_decay_control():
    c = m.AssumptionConstants(b0=1.0, b1=0.0, c0=0.0, c1=0.0, c2=1.0, q=0.0,
                              K=0.04, tamed_b0=1.0, tamed_b1=0.0,
                              growth_c0=1.0, growth_c1=1.0)
    flat = m.SdeProblem(name="flat", dim_state=1, dim_noise=1,
                        drift=lambda x: np.zeros_like(x),
                        diffusion=lambda x: np.full(x.shape[:-1] + (1, 1), 0.2),
                        constants=c)
    rep = m.ses_probe(flat, IDENTITY, [1.0], horizon=3.0, n_paths=256,
                      fine_delta=0.05, seed=0, second_order=False)
    np.testing.assert_array_equal(rep.grad_norm, 1.0)
    assert not rep.decay_detected


def _reference_tangent_run(problem, x0, plan, gradf, n_rec, k_rec):
    """Joint (x, J) explicit EM at the plan's fine step, one block at a time;
    returns the mean vector series of J^T grad f(x_t) with per-component
    standard errors. The reference loop the engine route must reproduce: a
    block's spread is summed about its own mean, and blocks merge in order
    by the pairwise update of Chan, Golub and LeVeque."""
    delta = plan.fine_delta
    n = problem.dim_state
    ns = problem.noise_scale
    eye = np.eye(n)

    def run_block(b):
        size = plan.block_size(b)
        x = np.broadcast_to(x0, (size, n)).astype(float).copy()
        jmat = np.broadcast_to(eye, (size, n, n)).copy()
        vsum = np.zeros((n_rec + 1, n))
        vm2 = np.zeros((n_rec + 1, n))

        def record(j):
            v = np.einsum("...mi,...m->...i", jmat, gradf(x))
            vsum[j] = v.sum(axis=0)
            dev = v - vsum[j] / size
            vm2[j] = (dev * dev).sum(axis=0)

        record(0)
        step_idx = 0
        n_steps = n_rec * k_rec
        while step_idx < n_steps:
            take = min(CHUNK_STEPS, n_steps - step_idx)
            win = fine_increments_block(plan, b, step_idx, take)
            for i in range(take):
                dB = win[i]
                amp = (eye + delta * problem.drift_jacobian(x)
                       + ns * np.einsum("...kij,...k->...ij",
                                        problem.diffusion_jacobians(x), dB))
                jmat = np.einsum("...ij,...jk->...ik", amp, jmat)
                x = x + delta * problem.drift(x) + problem.noise_term(x, dB)
                step_idx += 1
                if step_idx % k_rec == 0:
                    record(step_idx // k_rec)
        return vsum, vm2, size

    vsum, vm2, total = run_block(0)
    for b in range(1, plan.n_blocks):
        bsum, bm2, size = run_block(b)
        d = bsum / size - vsum / total
        vm2 = vm2 + bm2 + d * d * (total * size / (total + size))
        vsum = vsum + bsum
        total += size
    mean = vsum / total
    var = vm2 / max(total - 1, 1)
    return mean, np.sqrt(var / total)


def _check_ses_against_reference(problem, points, n_paths, threads, check):
    horizon, fine_delta, record_dt, bump, seed = 1.0, 0.01, 0.25, 0.05, 5
    rep = m.ses_probe(problem, ARCTAN, points, horizon, n_paths, fine_delta,
                      seed=seed, record_dt=record_dt, bump=bump,
                      threads=threads)
    n = problem.dim_state
    plan = m.NoisePlan(seed, n_paths, problem.dim_noise,
                       fine_delta=fine_delta, horizon=horizon)

    def run(x0):
        return _reference_tangent_run(problem, np.asarray(x0, dtype=float),
                                      plan, ARCTAN.grad, 4, 25)

    for (_, norm, nse), p in zip(rep.per_point, points):
        mean, se = run(np.broadcast_to(p, (n,)))
        check(norm, np.linalg.norm(mean, axis=-1))
        check(nse, np.sqrt(np.sum(se**2, axis=-1)))
    cols, ses = [], []
    base = np.broadcast_to(np.asarray(points[0], dtype=float), (n,))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        (mp, sp), (mm, sm) = run(base + bump * e), run(base - bump * e)
        cols.append((mp - mm) / (2.0 * bump))
        ses.append(np.sqrt(sp**2 + sm**2) / (2.0 * bump))
    check(rep.second_norm,
          np.sqrt(np.sum(np.stack(cols, axis=-1) ** 2, axis=(-2, -1))))
    check(rep.second_stderr,
          np.sqrt(np.sum(np.stack(ses, axis=-1) ** 2, axis=(-2, -1))))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("n_paths", [300, 4200], ids=["1block", "2blocks"])
@pytest.mark.parametrize("problem, points", [
    (FIG1, [1.0, -2.0]), (OU, [1.0, 0.5]),
    (m.make_cubic_1d(1.0, 0.3), [0.5, 2.0])], ids=["fig1", "ou", "cubic1d"])
def test_ses_probe_equals_reference_tangent_run_bitwise(problem, points,
                                                        n_paths, threads):
    _check_ses_against_reference(problem, points, n_paths, threads,
                                 np.testing.assert_array_equal)


def test_ses_probe_matches_reference_tangent_run_on_coupled2d():
    # the engine sums each observable on its own, pairwise, where the
    # reference sums a two-column array row by row: only the last bits move.
    # At t = 0 every path agrees, and a standard error is the root of a
    # rounding residue, about sqrt(eps) |mean| / sqrt(n_paths) ~ 1e-9
    def check(actual, desired):
        np.testing.assert_allclose(actual, desired, rtol=1e-10, atol=1e-8)

    _check_ses_against_reference(m.make_coupled_2d(1.0, 1.0),
                                 [[1.0, 0.5], [-0.5, 1.0]], 300, 3, check)


def test_check_assumptions_cubic_ok():
    rep = m.check_assumptions(m.make_cubic_1d(1.0, 0.3), seed=0)
    for cond in ["2.6", "2.7", "2.10", "2.11", "2.12"]:
        res = rep.get(cond)
        assert res.passed and not res.skipped, cond
    assert rep.get("3.5b").passed
    assert rep.get("5.1").passed


def test_check_assumptions_flags_large_diffusion():
    rep = m.check_assumptions(m.make_cubic_1d(1.0, 2.0), seed=0)
    assert not rep.get("2.11").passed
    assert not rep.overall_pass


def test_check_assumptions_coupled2d():
    rep = m.check_assumptions(m.make_coupled_2d(1.0, 1.0), seed=0)
    res = rep.get("2.7")
    assert res.passed
    assert res.constant["gamma_max"] > 0  # strictly positive decay rate
    # conditions that need constants this problem does not register
    assert rep.get("2.10").skipped
    assert rep.get("4.13").skipped


def test_check_assumptions_ou():
    rep = m.check_assumptions(OU, seed=0)
    assert rep.overall_pass
    # constant diffusion makes the Lipschitz condition trivially satisfied
    assert rep.get("3.5b").passed


def test_check_assumptions_unknown_condition():
    rep = m.check_assumptions(OU, seed=0)
    with pytest.raises(KeyError):
        rep.get("9.99")


def test_reference_config_defaults():
    ref = ReferenceConfig()
    assert ref.kind == "tamed"
    assert ref.delta == 5e-4
    assert ref.n_paths == 10000


@pytest.mark.parametrize("problem", [FIG1, m.make_coupled_2d(1.0, 2.0)],
                         ids=["fig1", "coupled2d"])
def test_additive_tangent_step_equals_general_step(problem):
    n = problem.dim_state
    rng = np.random.default_rng(5)
    z = rng.normal(scale=2.0, size=(257, n + n * n))
    dB = rng.normal(scale=0.1, size=(257, problem.dim_noise))
    general = dataclasses.replace(
        problem, constants=dataclasses.replace(problem.constants, c1=1.0))
    np.testing.assert_array_equal(_tangent_stepper(problem, 0.01)(z, dB),
                                  _tangent_stepper(general, 0.01)(z, dB))


# signed zeros among the entries: the stacked step must keep -0.0 where one
# start stepped alone keeps it
_ENTRIES = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])


@pytest.mark.parametrize("problem", [
    FIG1, m.make_cubic_1d(1.0, 0.5), m.make_coupled_2d(1.0, 1.0)],
    ids=["fig1", "cubic1d", "coupled2d"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_tangent_step_equals_one_step_per_start(problem, data):
    # cubic1d has b > 0 (c1 != 0), so its step runs the diffusion-Jacobian
    # einsum on dB repeated per start; coupled2d's noise einsum reads the
    # repeated dB too, and fig1 multiplies by it
    n = problem.dim_state
    width = n + n * n
    k = data.draw(st.integers(1, 4), label="k")
    rows = data.draw(st.integers(1, 9), label="rows")
    z = data.draw(arrays(float, (rows, k * width), elements=_ENTRIES), label="z")
    dB = data.draw(arrays(float, (rows, problem.dim_noise),
                          elements=_ENTRIES), label="dB")
    delta = data.draw(st.sampled_from([0.01, 0.05]), label="delta")
    one = _tangent_stepper(problem, delta)
    expected = np.concatenate([one(z[:, s * width:(s + 1) * width], dB)
                               for s in range(k)], axis=1)
    stacked = _tangent_stepper(problem, delta, k)(z, dB)
    assert stacked.shape == (rows, k * width)
    np.testing.assert_array_equal(stacked.view(np.uint64),
                                  expected.view(np.uint64))


def test_ses_probe_makes_one_engine_run(monkeypatch):
    # two points on a 2-D problem and their four +-bump starts: six starts,
    # one run on the stacked state
    calls = []
    simulate = analysis._simulate

    def spy(runs):
        calls.append(len(runs))
        return simulate(runs)

    monkeypatch.setattr(analysis, "_simulate", spy)
    rep = m.ses_probe(m.make_coupled_2d(1.0, 1.0), ARCTAN,
                      [[1.0, 0.5], [-0.5, 1.0]], horizon=0.5, n_paths=64,
                      fine_delta=0.01, seed=0)
    assert calls == [1]
    assert len(rep.per_point) == 2
    assert rep.second_norm.shape == rep.times.shape


def test_ses_probe_freezes_on_the_stacked_norm(monkeypatch):
    # from x0 = 0 an OU joint state (x, J) keeps |x| < 0.8 and J <= 1, so
    # one start stays inside a ball of radius 1.5; four starts side by side
    # have |(J_1, ..., J_4)| = 2 (1 - delta) after the first step, and every
    # path of the stacked run leaves the ball
    prepare = analysis._prepare_run

    def low_threshold(*args):
        run = prepare(*args)
        return dataclasses.replace(
            run, spec=dataclasses.replace(run.spec, blowup_threshold=1.5))

    monkeypatch.setattr(analysis, "_prepare_run", low_threshold)

    def probe(points):
        return m.ses_probe(OU, IDENTITY, points, horizon=0.5, n_paths=64,
                           fine_delta=0.01, seed=0, second_order=False)

    assert probe([0.0]).grad_norm[0] == 1.0
    with pytest.raises(m.AllPathsBlewUp, match="all 64 paths blew up"):
        probe([0.0, 0.1, -0.1, 0.2])


def test_drift_step_audit_on_coupled2d():
    # N = 2 draws unit directions; explicit Euler overshoots the cubic drift
    # most at the largest radius, the tamed-truncated step nowhere
    problem = m.make_coupled_2d(1.0, 1.0)
    bad = m.drift_step_audit(problem, m.SchemeConfig("em", 0.05), seed=1)
    good = m.drift_step_audit(problem, m.SchemeConfig("tte", 0.05), seed=1)
    assert not bad["pass"]
    assert bad["worst_radius"] == pytest.approx(1e6, rel=1e-12)
    assert good["pass"]
    assert good["eps"] < 1.0
    assert m.drift_step_audit(problem, m.SchemeConfig("em", 0.05),
                              seed=1) == bad
