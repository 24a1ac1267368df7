"""Tests for the implicit drift map F_delta and its solver."""
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

import monosde as m
from monosde.analysis import NonFiniteEstimate
from monosde.implicit_map import ImplicitSolveConfig, _norm

CUBIC = m.make_cubic_1d(1.0, 0.3)


def test_fixed_point_value():
    # z + 0.1*(z^3 + z) = 1, root computed with an independent solver offline
    z = m.solve_fdelta(CUBIC, np.array([1.0]), 0.1)
    np.testing.assert_allclose(z, 0.8527230735695774, rtol=0, atol=1e-12)
    np.testing.assert_allclose(CUBIC.drift(z), -1.4727692643042267, atol=1e-11)


def test_fixed_point_matches_brentq():
    delta = 0.05
    for y in [-3.0, -0.2, 0.0, 1.7, 40.0]:
        z = m.solve_fdelta(CUBIC, np.array([y]), delta)[0]
        ref = brentq(lambda s: s + delta * (s**3 + s) - y, -100, 100, xtol=1e-14)
        np.testing.assert_allclose(z, ref, atol=1e-10)


def test_residual_of_batch_solve():
    rng = np.random.default_rng(0)
    y = rng.uniform(-50, 50, size=(200, 1))
    z = m.solve_fdelta(CUBIC, y, 0.1)
    resid = np.abs(z - y - 0.1 * CUBIC.drift(z))
    assert np.max(resid) <= 1e-10


def test_map_is_nonexpansive():
    # one-sided Lipschitz constant is 0 here, so the map cannot expand
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, size=(2000, 1))
    y = rng.uniform(-10, 10, size=(2000, 1))
    fx = m.solve_fdelta(CUBIC, x, 0.1)
    fy = m.solve_fdelta(CUBIC, y, 0.1)
    gap = np.linalg.norm(fx - fy, axis=-1) ** 2 - np.linalg.norm(x - y, axis=-1) ** 2
    assert np.max(gap) <= 1e-8


def test_map_growth_bound():
    delta = 0.1
    b0, b1 = CUBIC.constants.b0, CUBIC.constants.b1
    rng = np.random.default_rng(2)
    x = rng.uniform(-10, 10, size=(2000, 1))
    fx = m.solve_fdelta(CUBIC, x, delta)
    bound = (np.linalg.norm(x, axis=-1) ** 2 / (1 + b0 * delta) ** 2
             + 2 * b1 * delta / (1 + b0 * delta))
    assert np.max(np.linalg.norm(fx, axis=-1) ** 2 - bound) <= 1e-8


def test_gradient_bound_check():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-10, 10, size=(300, 1))
    report = m.fdelta_derivative_bounds_check(CUBIC, 0.1, points=pts, tol=1e-4)
    assert report["pass"]
    assert report["max_column_norm"] <= 1.0
    assert report["max_excess_vs_lambda_bound"] <= 1e-4


def test_gradient_at_origin():
    # dF/dx at 0 is 1/(1 + delta*lambda(0)) = 1/1.1
    g = m.fdelta_gradient(CUBIC, np.array([0.0]), 0.1)
    np.testing.assert_allclose(g, [[1.0 / 1.1]], rtol=1e-9)


def test_gradient_matches_fd():
    h = 1e-6
    for y in [-2.0, 0.3, 5.0]:
        g = m.fdelta_gradient(CUBIC, np.array([y]), 0.1)[0, 0]
        zp = m.solve_fdelta(CUBIC, np.array([y + h]), 0.1)[0]
        zm = m.solve_fdelta(CUBIC, np.array([y - h]), 0.1)[0]
        np.testing.assert_allclose(g, (zp - zm) / (2 * h), atol=1e-7)


def test_gradient_2d_problem():
    p = m.make_coupled_2d(1.0, 1.0)
    y = np.array([0.4, -0.9])
    g = m.fdelta_gradient(p, y, 0.05)
    assert g.shape == (2, 2)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (m.solve_fdelta(p, y + e, 0.05) - m.solve_fdelta(p, y - e, 0.05)) / (2 * h)
        np.testing.assert_allclose(g[:, j], fd, atol=1e-6)


def test_modified_fields_drift_identity():
    """Modified drift must satisfy x + delta*drift_mod(x) = F_delta(x)."""
    delta = 0.05
    fields = m.make_modified_fields(CUBIC, delta)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, size=(50, 1))
    z = m.solve_fdelta(CUBIC, x, delta)
    np.testing.assert_allclose(x + delta * fields.drift(x), z, atol=1e-10)
    # and the diffusion is the original field evaluated at F_delta(x)
    np.testing.assert_allclose(fields.diffusion(x), CUBIC.diffusion(z), atol=1e-10)


def test_delta_too_large_guard():
    c = m.AssumptionConstants(b0=1.0, b1=1.0, c0=1.0, c1=0.0, c2=9.0, q=2.0,
                              K=0.0, tamed_b0=0.5, tamed_b1=1.0,
                              growth_c0=2.0, growth_c1=3.0)
    hump = m.SdeProblem(name="hump", dim_state=1, dim_noise=1,
                        drift=lambda x: x - x**3,
                        diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
                        constants=c)
    with pytest.raises(m.DeltaTooLarge):
        m.solve_fdelta(hump, np.array([1.0]), 0.6)
    np.testing.assert_allclose(m.solve_fdelta(hump, np.array([1.0]), 0.1), [1.0],
                               atol=1e-12)


def test_non_convergence_is_reported():
    cfg = ImplicitSolveConfig(abs_tol=1e-15, max_newton_iters=1,
                              max_bisection_iters=1)
    with pytest.raises(m.NonConvergence):
        m.solve_fdelta(CUBIC, np.array([100.0]), 0.1, config=cfg)


@pytest.mark.parametrize("exc", [
    m.NonConvergence(3.5e-7, 12), m.DeltaTooLarge("delta too large"),
    NonFiniteEstimate("curve is not finite"),
])
def test_typed_errors_survive_pickling(exc):
    # the engine's worker processes send a block's error to the caller pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    if isinstance(exc, m.NonConvergence):
        assert (back.residual, back.index) == (exc.residual, exc.index)


def test_solver_handles_large_inputs():
    z = m.solve_fdelta(CUBIC, np.array([1e6]), 0.05)
    resid = z - 1e6 - 0.05 * CUBIC.drift(z)
    np.testing.assert_allclose(resid, 0.0, atol=1e-6 * 1e6)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
def test_batch_solve_equals_single_solves_bitwise(delta):
    # every entry of a 1-D batch gets the bits it gets when solved alone,
    # at small, unit, x0 = 100 and very large scales
    rng = np.random.default_rng(3)
    mags = np.array([1e-3, 1.0, 100.0, 1e6])
    y = np.concatenate([mags, -mags, mags * rng.uniform(0.5, 2.0, 4),
                        rng.uniform(-150.0, 150.0, 20), [0.0]])[:, None]
    batch = m.solve_fdelta(CUBIC, y, delta)
    for i in range(y.shape[0]):
        single = m.solve_fdelta(CUBIC, y[i:i + 1], delta)
        assert single.tobytes() == batch[i:i + 1].tobytes(), y[i, 0]


@pytest.mark.parametrize("n", range(1, 8))
def test_norm_equals_linalg_norm_bitwise(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e6, 1e100):
        v = scale * rng.standard_normal((1000, n))
        np.testing.assert_array_equal(_norm(v), np.linalg.norm(v, axis=-1))
        np.testing.assert_array_equal(_norm(v[0]), np.linalg.norm(v[0], axis=-1))
