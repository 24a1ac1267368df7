"""Tests for the Monte Carlo ensemble engine."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import monosde as m

FIG1 = m.make_fig1()
TTE = m.SchemeConfig("tte", 0.05, alpha=1.3)


def _zero_problem():
    c = m.AssumptionConstants(b0=1.0, b1=0.0, c0=0.0, c1=0.0, c2=1.0, q=0.0,
                              K=0.0, tamed_b0=1.0, tamed_b1=0.0,
                              growth_c0=1.0, growth_c1=1.0)
    return m.SdeProblem(name="frozen", dim_state=1, dim_noise=1,
                        drift=lambda x: np.zeros_like(x),
                        diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
                        constants=c)


def test_results_identical_across_thread_counts():
    obs = [m.make_observable("identity"), m.make_observable("arctan")]
    runs = []
    for threads in (1, 3, 8):
        spec = m.EnsembleSpec(1.0, 5000, 2.0, seed=4, record_dt=0.25,
                              threads=threads)
        runs.append(m.simulate_ensemble(FIG1, TTE, spec, obs))
    base = runs[0]
    for other in runs[1:]:
        for name in ("identity", "arctan"):
            np.testing.assert_array_equal(other.observables[name].mean,
                                          base.observables[name].mean)
            np.testing.assert_array_equal(other.observables[name].stderr,
                                          base.observables[name].stderr)
        for p in base.moments:
            np.testing.assert_array_equal(other.moments[p].value,
                                          base.moments[p].value)


def test_record_grid_from_record_dt():
    spec = m.EnsembleSpec(1.0, 16, 1.0, seed=0, record_dt=0.25)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    np.testing.assert_allclose(r.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_record_every_step_by_default():
    spec = m.EnsembleSpec(1.0, 8, 0.2, seed=0)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert len(r.times) == 5


def test_explicit_record_times():
    spec = m.EnsembleSpec(1.0, 16, 10.0, seed=0, record_times=[0.0, 0.5, 10.0])
    r = m.simulate_ensemble(FIG1, TTE, spec)
    np.testing.assert_allclose(r.times, [0.0, 0.5, 10.0])


@pytest.mark.parametrize("times,msg", [
    ([0.5, 0.25], "sorted"),
    ([0.0, 0.26], "multiple"),
    ([0.0, 11.0], "horizon"),
    ([], "empty"),
    ([0.5, 0.5], "duplicate"),
])
def test_bad_record_times_rejected(times, msg):
    spec = m.EnsembleSpec(1.0, 8, 10.0, seed=0, record_times=times)
    with pytest.raises(ValueError, match=msg):
        m.simulate_ensemble(FIG1, TTE, spec)


def test_bad_record_dt_rejected():
    spec = m.EnsembleSpec(1.0, 8, 1.0, seed=0, record_dt=0.13)
    with pytest.raises(ValueError):
        m.simulate_ensemble(FIG1, TTE, spec)


def test_initial_moment_is_exact():
    spec = m.EnsembleSpec(3.0, 32, 0.5, seed=0, record_dt=0.25,
                          moment_orders=(2,))
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert r.moments[2].value[0] == 9.0
    assert r.moments[2].stderr[0] == 0.0


def test_moments_use_euclidean_norm():
    p = m.make_coupled_2d(1.0, 1.0)
    spec = m.EnsembleSpec(np.array([0.3, -0.7]), 16, 0.1, seed=0,
                          record_dt=0.1, moment_orders=(2,))
    r = m.simulate_ensemble(p, m.SchemeConfig("em", 0.01), spec)
    np.testing.assert_allclose(r.moments[2].value[0], 0.58)


def test_stderr_scales_like_sqrt_n():
    big = m.EnsembleSpec(1.0, 4000, 2.0, seed=1, record_dt=0.5)
    small = m.EnsembleSpec(1.0, 2000, 2.0, seed=12345, record_dt=0.5)
    rb = m.simulate_ensemble(FIG1, TTE, big, [m.make_observable("identity")])
    rs = m.simulate_ensemble(FIG1, TTE, small, [m.make_observable("identity")])
    ratio = (rs.observables["identity"].stderr[1:]
             / rb.observables["identity"].stderr[1:])
    assert abs(np.mean(ratio) - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


def test_all_paths_blow_up_under_explicit_euler():
    spec = m.EnsembleSpec(100.0, 64, 2.0, seed=0, record_dt=0.5)
    with pytest.raises(m.AllPathsBlewUp) as exc:
        m.simulate_ensemble(FIG1, m.SchemeConfig("em", 0.05), spec)
    result = exc.value.result
    assert result.n_blowups == 64
    assert result.n_active[-1] == 0


def test_partial_blowups_are_frozen_and_counted():
    # a tiny threshold turns ordinary excursions into recorded blow-ups
    spec = m.EnsembleSpec(1.0, 256, 2.0, seed=3, record_dt=0.5,
                          blowup_threshold=1.5)
    r = m.simulate_ensemble(FIG1, TTE, spec, [m.make_observable("identity")])
    assert 0 < r.n_blowups < 256
    assert r.n_active[-1] == 256 - r.n_blowups
    assert np.all(np.isfinite(r.observables["identity"].mean))


def test_zero_dynamics_series_constant():
    p = _zero_problem()
    spec = m.EnsembleSpec(2.0, 16, 1.0, seed=0, record_dt=0.25)
    r = m.simulate_ensemble(p, m.SchemeConfig("em", 0.05), spec,
                            [m.make_observable("identity")])
    np.testing.assert_array_equal(r.observables["identity"].mean, 2.0)
    np.testing.assert_array_equal(r.observables["identity"].stderr, 0.0)
    np.testing.assert_array_equal(r.moments[2].value, 4.0)


def test_shared_noise_plan_gives_common_random_numbers():
    plan = m.NoisePlan(5, 64, 1, fine_delta=0.05, horizon=1.0)
    spec = m.EnsembleSpec(1.0, 64, 1.0, seed=5, record_dt=0.25)
    a = m.simulate_ensemble(FIG1, TTE, spec, [m.make_observable("identity")],
                            plan=plan)
    b = m.simulate_ensemble(FIG1, TTE, spec, [m.make_observable("identity")],
                            plan=plan)
    np.testing.assert_array_equal(a.observables["identity"].mean,
                                  b.observables["identity"].mean)


def test_drift_step_audit_separates_schemes():
    bad = m.drift_step_audit(FIG1, m.SchemeConfig("em", 0.05))
    good = m.drift_step_audit(FIG1, TTE)
    assert not bad["pass"]
    assert good["pass"]
    assert good["eps"] < 1.0


def test_moment_recursion_audit_requires_tte():
    spec = m.EnsembleSpec(100.0, 200, 10.0, seed=0)
    with pytest.raises(ValueError):
        m.moment_recursion_audit(FIG1, m.SchemeConfig("em", 0.05), spec)


def test_moment_recursion_audit_on_tte():
    spec = m.EnsembleSpec(100.0, 500, 20.0, seed=2)
    rep = m.moment_recursion_audit(FIG1, TTE, spec, power=2)
    assert rep["pass"]
    assert rep["empirical_sup"] <= 100.0**2 + rep["fitted_C"] + 1e-9
    assert rep["first_step_ratio"] <= rep["contraction_bound"]
    assert rep["n_blowups"] == 0


def test_result_metadata():
    spec = m.EnsembleSpec(1.0, 32, 0.5, seed=17, record_dt=0.25)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert r.scheme_kind == "tte"
    assert r.delta == 0.05
    assert r.seed == 17
    assert r.n_paths == 32


def _per_path_run(scheme, spec):
    """The engine's statistics from a loop over single paths: each path
    steps on its own increments_for noise and freezes at its last good state
    once a step leaves the blow-up ball or is non-finite."""
    plan = m.NoisePlan(spec.seed, spec.n_paths, 1, fine_delta=scheme.delta,
                       horizon=spec.horizon)
    stepper = m.make_stepper(FIG1, scheme)
    n_out = plan.n_coarse_steps + 1
    n_active = np.zeros(n_out, dtype=np.int64)
    total = np.zeros(n_out)
    scale = np.zeros(n_out)
    blowups = 0
    for p in range(spec.n_paths):
        inc = m.increments_for(plan, p)
        x = np.array([[float(spec.x0)]])
        alive = True
        for k in range(n_out):
            if k and alive:
                y = stepper(x, inc[k - 1][None])
                if np.all(np.isfinite(y)) and abs(y[0, 0]) <= spec.blowup_threshold:
                    x = y
                else:
                    alive = False
                    blowups += 1
            if alive:
                n_active[k] += 1
                total[k] += x[0, 0]
                scale[k] += abs(x[0, 0])
    return n_active, blowups, total, scale


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["em", "tamed"]),
       x0=st.floats(-2.5, 2.5),
       log_margin=st.floats(-1.3, 0.5),
       n_paths=st.integers(1, 300),
       threads=st.integers(1, 3))
# explicit Euler from 4.4 overflows to inf and NaN on most paths, a few
# steps in; an infinite threshold leaves only the finiteness check
@example(kind="em", x0=4.4, log_margin=math.inf, n_paths=200, threads=2)
def test_freezing_mid_block_matches_per_path_loop(kind, x0, log_margin,
                                                  n_paths, threads):
    # a threshold a little above |x0| freezes paths mid-block; the engine
    # still steps their rows, so a frozen path that a later step would bring
    # back into the ball must stay out of every statistic, as in a loop over
    # single paths
    scheme = m.SchemeConfig(kind, 0.1)
    spec = m.EnsembleSpec(x0, n_paths, 1.5, seed=5, threads=threads,
                          blowup_threshold=abs(x0) + 10.0 ** log_margin)
    obs = [m.make_observable("identity")]
    with np.errstate(over="ignore", invalid="ignore"):
        n_active, blowups, total, scale = _per_path_run(scheme, spec)
        if n_active[-1] == 0:
            with pytest.raises(m.AllPathsBlewUp) as exc:
                m.simulate_ensemble(FIG1, scheme, spec, obs)
            res = exc.value.result
        else:
            res = m.simulate_ensemble(FIG1, scheme, spec, obs)
    np.testing.assert_array_equal(res.n_active, n_active)
    assert res.n_blowups == blowups
    live = n_active > 0
    mean = res.observables["identity"].mean
    assert np.all(np.isnan(mean[~live]))
    err = np.abs(mean[live] - total[live] / n_active[live])
    assert np.all(err <= 1e-12 * scale[live] / n_active[live])
