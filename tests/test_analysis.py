"""Tests for weak-error curves, order fits, the SES probe, and the checker."""
import numpy as np
import pytest

import monosde as m
from monosde.analysis import ReferenceConfig, _coupling_checksum

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
    assert rep.coupling_checksum_curve == rep.coupling_checksum_ref


def test_coupling_checksum_tells_lattices_apart():
    base = m.NoisePlan(4, 10, 1, fine_delta=0.01, horizon=1.0)
    same = m.NoisePlan(4, 3, 1, fine_delta=0.01, horizon=1.0, coarsen_factor=5)
    assert _coupling_checksum(base) == _coupling_checksum(same)
    for other in (m.NoisePlan(5, 10, 1, fine_delta=0.01, horizon=1.0),
                  m.NoisePlan(4, 10, 1, fine_delta=0.02, horizon=1.0)):
        assert _coupling_checksum(other) != _coupling_checksum(base)


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
