"""Tests for the implicit drift map F_delta and its solver."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import monosde as m
from monosde.analysis import NonFiniteEstimate
from monosde.implicit_map import ImplicitSolveConfig, _bisect_1d, _norm, _residual

CUBIC = m.make_cubic_1d(1.0, 0.3)
# U0 = x - x^3 is one-sided Lipschitz with c0 = 1 (not monotone), so Newton
# from the predictor overshoots and backtracks on moderate states
HUMP = m.SdeProblem(
    name="hump", dim_state=1, dim_noise=1, drift=lambda x: x - x**3,
    diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
    constants=m.AssumptionConstants(
        b0=1.0, b1=1.0, c0=1.0, c1=0.0, c2=9.0, q=2.0, K=0.0, tamed_b0=0.5,
        tamed_b1=1.0, growth_c0=2.0, growth_c1=3.0))


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


_STATES = arrays(float, (6, 2), elements=st.floats(-1e3, 1e3))


@settings(max_examples=60, deadline=None)
@given(two_d=st.booleans(), delta=st.floats(1e-4, 1.0), x=_STATES, y=_STATES)
def test_solve_meets_residual_bound_and_does_not_expand(two_d, delta, x, y):
    # both drifts are monotone (c0 = 0), so F_delta is non-expansive; each
    # solve is off by at most its residual tolerance
    problem = m.make_coupled_2d(1.0, 1.0) if two_d else CUBIC
    n = problem.dim_state
    x, y = x[:, :n], y[:, :n]
    fx = m.solve_fdelta(problem, x, delta)
    fy = m.solve_fdelta(problem, y, delta)
    tol_x = 1e-12 * np.maximum(1.0, _norm(x))
    tol_y = 1e-12 * np.maximum(1.0, _norm(y))
    assert np.all(_norm(fx - x - delta * problem.drift(fx)) <= tol_x)
    assert np.all(_norm(fy - y - delta * problem.drift(fy)) <= tol_y)
    assert np.all(_norm(fx - fy) <= _norm(x - y) + 2.0 * (tol_x + tol_y))


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


@pytest.mark.parametrize("delta", [0.05, 0.25])
def test_modified_field_jacobians_match_differences(delta):
    # the chain rule through grad F_delta against central differences of the
    # modified drift and diffusion
    report = m.check_derivatives(m.make_modified_fields(CUBIC, delta))
    assert report["pass"], report
    assert report["drift_jacobian"] <= 1e-5
    assert report["diffusion_jacobians"] <= 1e-5


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
    with pytest.raises(m.DeltaTooLarge):
        m.solve_fdelta(HUMP, np.array([1.0]), 0.6)
    np.testing.assert_allclose(m.solve_fdelta(HUMP, np.array([1.0]), 0.1), [1.0],
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


def _reference_solve_fdelta(problem, y, delta, config=None):
    """The solver as it was before its Newton loop took full steps outright:
    every iteration runs the backtracking loop and the keep-where selection.
    solve_fdelta must reproduce it bit for bit, errors included. It shares
    _residual, _norm and _bisect_1d with the module."""
    cfg = config if config is not None else ImplicitSolveConfig()
    y = np.asarray(y, dtype=float)
    if delta <= 0:
        raise ValueError("delta must be positive")
    c0 = problem.constants.c0
    if c0 > 0 and delta >= 1.0 / (2.0 * c0):
        raise m.DeltaTooLarge(
            "delta=%g exceeds the solvability threshold 1/(2*c0)=%g"
            % (delta, 1.0 / (2.0 * c0)))

    n = problem.dim_state
    eye = np.eye(n)
    tol = cfg.abs_tol * np.maximum(1.0, _norm(y))
    u0y = problem.drift(y)
    z_pred = y + delta * u0y
    g_pred = _residual(problem, z_pred, y, delta)
    r_pred = _norm(g_pred)
    r_id = _norm(delta * u0y)
    use_pred = np.isfinite(r_pred) & (r_pred <= r_id)
    z = np.where(use_pred[..., None], z_pred, y)
    g = np.where(use_pred[..., None], g_pred, -delta * u0y)
    r = np.where(use_pred, r_pred, r_id)

    for _ in range(cfg.max_newton_iters):
        done = r <= tol
        if done.all():
            break
        jac = eye - delta * problem.drift_jacobian(z)
        if n == 1:
            if not jac.all():
                break
            step = g / jac[..., 0]
        else:
            try:
                step = np.linalg.solve(jac, g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
        step = np.where(done[..., None], 0.0, step)
        t = 1.0
        z_try = z - step
        g_try = _residual(problem, z_try, y, delta)
        r_try = _norm(g_try)
        for _ in range(12):
            bad = ~np.isfinite(r_try) | ((r_try >= r) & (r > tol))
            if not bad.any():
                break
            t = np.where(bad, 0.5 * t, t)
            z_try = z - t[..., None] * step
            g_try = _residual(problem, z_try, y, delta)
            r_try = _norm(g_try)
        keep = ~np.isfinite(r_try) | (r_try >= r)
        z = np.where(keep[..., None], z, z_try)
        g = np.where(keep[..., None], g, g_try)
        r = np.where(keep, r, r_try)

    if np.all(r <= tol):
        return z

    theta = np.full(r.shape, 0.5)
    for _ in range(cfg.max_bisection_iters):
        live = r > tol
        if not np.any(live):
            break
        z_try = z - theta[..., None] * g
        g_try = _residual(problem, z_try, y, delta)
        r_try = _norm(g_try)
        better = np.isfinite(r_try) & (r_try < r) & live
        z = np.where(better[..., None], z_try, z)
        g = np.where(better[..., None], g_try, g)
        r = np.where(better, r_try, r)
        theta = np.where(better, np.minimum(1.0, 1.3 * theta),
                         np.where(live, 0.5 * theta, theta))

    if np.all(r <= tol):
        return z

    if n == 1:
        z = _bisect_1d(problem, z, y, delta, r, tol, cfg)
        g = _residual(problem, z, y, delta)
        r = _norm(g)

    if np.any(r > tol):
        idx = np.unravel_index(int(np.argmax(r)), r.shape) if r.ndim else ()
        raise m.NonConvergence(np.max(r), idx)
    return z


def _outcome(solve, problem, y, delta, cfg):
    with np.errstate(all="ignore"):
        try:
            z = solve(problem, y, delta, cfg)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
    return z.shape, z.dtype, z.tobytes()


def _assert_same_as_reference(problem, y, delta, cfg=None):
    got = _outcome(m.solve_fdelta, problem, y, delta, cfg)
    want = _outcome(_reference_solve_fdelta, problem, y, delta, cfg)
    assert got == want


_ORACLE_PROBLEMS = {"cubic1d": CUBIC, "fig1": m.make_fig1(),
                    "coupled2d": m.make_coupled_2d(1.0, 1.0), "hump": HUMP}


@st.composite
def _oracle_states(draw, n):
    rows = draw(st.integers(1, 6))
    magnitude = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                          st.floats(-8.0, 6.0))
    entry = st.one_of(magnitude, magnitude, magnitude, st.just(0.0),
                      st.sampled_from([np.nan, np.inf, -np.inf]))
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_ORACLE_PROBLEMS)), delta=st.floats(1e-4, 0.49),
       data=st.data(),
       abs_tol=st.sampled_from([1e-12, 1e-14, 1e-15, 1e-16]),
       newton=st.sampled_from([0, 1, 2, 3, 50]),
       bisection=st.sampled_from([0, 1, 3, 200]))
def test_solve_equals_reference_bitwise(name, delta, data, abs_tol, newton,
                                        bisection):
    problem = _ORACLE_PROBLEMS[name]
    y = data.draw(_oracle_states(problem.dim_state))
    cfg = ImplicitSolveConfig(abs_tol=abs_tol, max_newton_iters=newton,
                              max_bisection_iters=bisection)
    _assert_same_as_reference(problem, y, delta, cfg)


def test_backtracking_equals_reference_bitwise():
    # hump at delta 0.3 on +-3: rows overshoot, halve their step and finish
    # at different iterations, so done rows ride along with live ones
    y = np.random.default_rng(0).uniform(-3.0, 3.0, size=(500, 1))
    _assert_same_as_reference(HUMP, y, 0.3)


@pytest.mark.parametrize("problem, y, delta, cfg", [
    # one Newton iteration leaves 100 and 1e6 unsolved: the damped sweep ends
    (CUBIC, [[100.0], [0.5], [1e6]], 0.1, ImplicitSolveConfig(max_newton_iters=1)),
    # no Newton and 40 sweep steps leave 100 unsolved; 40 bisection steps
    # finish it
    (CUBIC, [[100.0], [-40.0], [0.5]], 0.1,
     ImplicitSolveConfig(max_newton_iters=0, max_bisection_iters=40)),
    # bisection on a crippled budget fails and names the worst row
    (CUBIC, [[100.0], [-40.0], [0.5]], 0.1,
     ImplicitSolveConfig(abs_tol=1e-16, max_newton_iters=0,
                         max_bisection_iters=3)),
    # an infinite state has an infinite tolerance, so its residual inf counts
    # as finished; recomputed, that residual is NaN, and the error must still
    # report inf
    (_ORACLE_PROBLEMS["coupled2d"], [[-1.0, 0.0], [-1.0, np.inf]], 0.25,
     ImplicitSolveConfig(max_newton_iters=1, max_bisection_iters=0)),
], ids=["sweep", "bisection", "bisection-fails", "infinite-state"])
def test_fallbacks_equal_reference_bitwise(problem, y, delta, cfg):
    _assert_same_as_reference(problem, np.array(y), delta, cfg)
