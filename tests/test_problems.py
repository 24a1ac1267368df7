"""Tests for problem definitions, registered constants, and observables."""
import dataclasses
import math

import numpy as np
import pytest

import monosde as m


def test_cubic_drift_values():
    p = m.make_cubic_1d(1.0, 0.3)
    x = np.array([[0.0], [1.0], [-2.0]])
    np.testing.assert_allclose(p.drift(x), [[0.0], [-2.0], [10.0]])


def test_cubic_diffusion_is_scaled_arctan():
    p = m.make_cubic_1d(1.0, 0.3)
    x = np.array([[1.0]])
    np.testing.assert_allclose(p.diffusion(x), 0.3 * math.atan(1.0))
    assert p.diffusion(x).shape == (1, 1, 1)


def test_cubic_parameter_validation():
    with pytest.raises(ValueError):
        m.make_cubic_1d(0.0, 0.3)
    with pytest.raises(ValueError):
        m.make_cubic_1d(1.0, -0.1)


def test_fig1_problem():
    p = m.make_fig1()
    assert p.noise_scale == 1.0
    x = np.array([[2.0]])
    np.testing.assert_allclose(p.drift(x), [[-10.0]])
    # unit constant diffusion
    np.testing.assert_allclose(p.diffusion(np.array([[0.0], [3.0]])), 1.0)
    assert p.constants.q == 2.0


def test_registry_names():
    for name in ["cubic1d", "coupled2d", "fig1", "ou"]:
        p = m.make_problem(name)
        assert p.dim_state >= 1
    with pytest.raises(KeyError):
        m.make_problem("nope")


def test_registry_params_pass_through():
    p = m.make_problem("cubic1d", a=2.0, b=0.1)
    assert p.constants.b0 == 2.0
    np.testing.assert_allclose(p.drift(np.array([1.0])), [-3.0])


@pytest.mark.parametrize("problem", [
    m.make_cubic_1d(1.0, 0.3),
    m.make_coupled_2d(1.0, 1.0),
    m.make_coupled_2d(0.7, 1.3, sigma1=(0.2, 0.05), sigma2=(0.0, 0.15)),
    m.make_linear_1d(),
])
def test_analytic_derivatives_match_finite_differences(problem):
    report = m.check_derivatives(problem, samples=60, seed=3)
    assert report["pass"], report


def test_fd_fallback_for_user_problems():
    # a problem registered without derivative callbacks gets FD fallbacks
    c = m.AssumptionConstants(b0=1.0, b1=1.0, c0=0.0, c1=0.0, c2=9.0, q=2.0,
                              K=0.0, tamed_b0=1.0, tamed_b1=1.0,
                              growth_c0=2.0, growth_c1=3.0)
    p = m.SdeProblem(name="user", dim_state=1, dim_noise=1,
                     drift=lambda x: -x**3,
                     diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
                     constants=c)
    assert p.fd_derivatives
    x = np.array([0.5])
    np.testing.assert_allclose(p.drift_jacobian(x), [[-0.75]], atol=1e-6)


def _without(problem, *callbacks):
    return dataclasses.replace(problem, fd_derivatives=False,
                               **{name: None for name in callbacks})


DERIVATIVES = ("drift_jacobian", "drift_hessian", "diffusion_jacobians",
               "diffusion_hessians")


@pytest.mark.parametrize("problem", [m.make_cubic_1d(1.0, 0.3),
                                     m.make_coupled_2d(1.0, 1.0)],
                         ids=["cubic1d", "coupled2d"])
def test_fd_only_copy_gets_the_analytic_verdicts(problem):
    exact = m.check_assumptions(problem)
    fd = m.check_assumptions(_without(problem, *DERIVATIVES))
    assert [c.condition for c in fd.conditions] == [c.condition
                                                   for c in exact.conditions]
    for a, b in zip(exact.conditions, fd.conditions):
        assert b.skipped == a.skipped, a.condition
        # an exactly tight condition (cubic1d 4.10 has margin 0) is within
        # the FD Jacobian's error of either verdict
        if abs(a.worst_margin) > 1e-6:
            assert b.passed == a.passed, a.condition
            assert b.worst_margin == pytest.approx(a.worst_margin, rel=1e-4,
                                                   abs=1e-6), a.condition


@pytest.mark.parametrize("problem", [m.make_cubic_1d(1.0, 0.3),
                                     m.make_coupled_2d(1.0, 1.0)],
                         ids=["cubic1d", "coupled2d"])
def test_batched_fd_hessian_matches_analytic(problem):
    x = np.random.default_rng(0).uniform(-3.0, 3.0, (201, problem.dim_state))
    fd = _without(problem, "drift_hessian")
    assert fd.fd_derivatives
    exact = problem.drift_hessian(x)
    assert fd.drift_hessian(x).shape == exact.shape
    np.testing.assert_allclose(fd.drift_hessian(x), exact, atol=1e-6)


def test_coupled2d_fields():
    p = m.make_coupled_2d(1.0, 1.0, sigma1=(0.1, 0.0), sigma2=(0.0, 0.1))
    assert (p.dim_state, p.dim_noise) == (2, 2)
    x = np.array([0.3, -0.7])
    lam = p.constants.lambda_fn(x)
    np.testing.assert_allclose(lam, 1.58)
    np.testing.assert_allclose(p.constants.lambda_fn(np.array([1.0, 1.0])), 3.0)
    assert p.extra_conditions


def test_noise_term_contracts_over_noise_axis():
    p = m.make_coupled_2d(1.0, 1.0)
    x = np.zeros((5, 2))
    dB = np.ones((5, 2))
    v = p.diffusion(x)
    expect = p.noise_scale * (v[:, 0, :] + v[:, 1, :])
    np.testing.assert_allclose(p.noise_term(x, dB), expect)


def test_constants_validation():
    kw = dict(b0=1.0, b1=0.0, c0=0.0, c1=0.0, c2=1.0, q=0.0, K=0.0,
              tamed_b0=1.0, tamed_b1=0.0, growth_c0=1.0, growth_c1=1.0)
    with pytest.raises(ValueError):
        m.AssumptionConstants(**{**kw, "b0": 0.0})
    with pytest.raises(ValueError):
        m.AssumptionConstants(**{**kw, "c0": -1.0})
    with pytest.raises(ValueError):
        m.AssumptionConstants(**{**kw, "rho": 0.5})


def test_ou_exact_moments():
    t = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(m.ou_exact_mean(1.0, t), np.exp(-t))
    np.testing.assert_allclose(m.ou_exact_var(0.0), 0.0)
    # stationary variance sigma^2 / (2 rate)
    np.testing.assert_allclose(m.ou_exact_var(1e9, rate=1.0, sigma=0.2), 0.02)


def test_observable_identity():
    f = m.make_observable("identity")
    x = np.array([[1.5], [-2.0]])
    np.testing.assert_array_equal(f.eval(x), [1.5, -2.0])
    np.testing.assert_array_equal(f.grad(x), [[1.0], [1.0]])
    assert f.c2b_seminorm == 1.0


def test_observable_arctan_seminorm():
    f = m.make_observable("arctan")
    # sup|f'| = 1 and sup|f''| = 9/(8*sqrt(3)), attained at x = 1/sqrt(3)
    np.testing.assert_allclose(f.c2b_seminorm, 1.0 + 9.0 / (8.0 * math.sqrt(3.0)))
    xs = np.linspace(-20, 20, 4001)[:, None]
    pointwise = np.abs(f.grad(xs)[:, 0]) + np.abs(f.hess(xs)[:, 0, 0])
    assert np.max(pointwise) <= f.c2b_seminorm + 1e-12


def test_observable_coord():
    f = m.make_observable("coord1")
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(f.eval(x), [2.0, 4.0])
    np.testing.assert_array_equal(f.grad(x)[:, 1], [1.0, 1.0])
    with pytest.raises(KeyError):
        m.make_observable("cubed")


def test_observable_gradients_match_fd():
    f = m.make_observable("arctan")
    xs = np.linspace(-3, 3, 13)[:, None]
    h = 1e-6
    fd = (f.eval(xs + h) - f.eval(xs - h)) / (2 * h)
    np.testing.assert_allclose(f.grad(xs)[:, 0], fd, atol=1e-8)
