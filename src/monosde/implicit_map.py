"""The implicit one-step map F^delta and the modified (shifted) fields.

F^delta(y) solves the fixed-point problem

    z = y + delta * U0(z),

which is uniquely solvable for monotone drifts (for one-sided Lipschitz
drifts with constant c0 > 0 only up to delta < 1/(2*c0); the solver refuses
larger steps unless the check is disabled). The modified drift is
U0^delta = (F^delta - id)/delta, which coincides with U0 composed with
F^delta by the fixed-point relation, and the modified diffusion fields are
V_k composed with F^delta. Explicit Euler applied to the modified fields
reproduces the split-step scheme path by path.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class NonConvergence(RuntimeError):
    """Implicit solve failed; carries the worst residual and batch index."""

    def __init__(self, residual, index):
        self.residual = float(residual)
        self.index = index
        super().__init__(
            "implicit solve did not converge: residual %.3e at batch index %s"
            % (self.residual, index))


class DeltaTooLarge(ValueError):
    """delta >= 1/(2*c0) for a drift with one-sided constant c0 > 0."""


@dataclass
class ImplicitSolveConfig:
    abs_tol: float = 1e-12
    max_newton_iters: int = 50
    max_bisection_iters: int = 200
    delta_max_check: bool = True


def _norm(v):
    """Euclidean norm over the last axis.

    One component is its abs, which equals the 1-D norm bit for bit wherever
    the square neither overflows nor underflows. More components add their
    squares column by column, in the order np.linalg.norm adds up to seven
    of them, so up to N = 7 the bits are the same; this avoids numpy's slow
    reduction over a short trailing axis.
    """
    if v.shape[-1] == 1:
        return np.abs(v[..., 0])
    s = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        s += v[..., j] * v[..., j]
    return np.sqrt(s)


def _residual(problem, z, y, delta):
    return z - y - delta * problem.drift(z)


def solve_fdelta(problem, y, delta, config=None):
    """Solve z = y + delta*U0(z) for each state in the batch.

    Newton iteration with the analytic Jacobian and residual backtracking,
    started from the explicit predictor y + delta*U0(y). Entries Newton cannot
    finish fall through to a damped fixed-point sweep and, in one dimension,
    to guarded bisection (the residual is strictly increasing in z for
    monotone drifts, so a sign-change bracket always exists).

    In one dimension the Newton step is the division g / (1 - delta*U0'(z))
    and residuals are absolute values. The division equals the batched
    linear solve that larger N uses bit for bit; the absolute value equals
    the vector norm wherever the square neither overflows nor underflows
    (about 1e-154 < |v| < 1.3e154), so inside that range the scalar path
    changes no result. Beyond it the norm read inf and a state |y| > 1.3e154
    got an infinite tolerance and came back unsolved; it now gets a finite
    tolerance and raises NonConvergence, as |y| = 1e150 already did. An
    exactly zero pivot ends Newton there, as a singular solve does for N >= 2.

    Args:
        problem: SdeProblem supplying drift and drift_jacobian.
        y: states, shape (..., N).
        delta: positive step size.
        config: ImplicitSolveConfig; defaults are tight (abs_tol 1e-12).

    Returns:
        z with the same shape as y, satisfying the residual bound
        |z - y - delta*U0(z)| <= abs_tol * max(1, |y|).

    Raises:
        DeltaTooLarge: if the registered c0 > 0 and delta >= 1/(2*c0).
        NonConvergence: if some batch entry never meets the tolerance.
    """
    cfg = config if config is not None else ImplicitSolveConfig()
    y = np.asarray(y, dtype=float)
    if delta <= 0:
        raise ValueError("delta must be positive")
    c0 = problem.constants.c0
    if cfg.delta_max_check and c0 > 0 and delta >= 1.0 / (2.0 * c0):
        raise DeltaTooLarge(
            "delta=%g exceeds the solvability threshold 1/(2*c0)=%g"
            % (delta, 1.0 / (2.0 * c0)))

    n = problem.dim_state
    eye = np.eye(n)
    # residual tolerance scales with the state so solves remain feasible for
    # very large |y| (float64 cannot reach 1e-12 absolutes at scale 1e6)
    tol = cfg.abs_tol * np.maximum(1.0, _norm(y))
    u0y = problem.drift(y)
    z_pred = y + delta * u0y
    g_pred = _residual(problem, z_pred, y, delta)
    r_pred = _norm(g_pred)
    r_id = _norm(delta * u0y)
    # start from the explicit predictor unless it lands somewhere worse than y
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

    # damped fixed-point sweep on the stragglers, capped like the other
    # fallback so crippled budgets surface as NonConvergence
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
        raise NonConvergence(np.max(r), idx)
    return z


def _bisect_1d(problem, z, y, delta, r, tol, cfg):
    """Guarded bisection for the scalar residual; overwrites unconverged entries."""
    flat_z = z.reshape(-1)
    flat_y = y.reshape(-1)
    flat_r = r.reshape(-1)
    flat_tol = np.broadcast_to(tol, r.shape).reshape(-1)
    for i in np.nonzero(flat_r > flat_tol)[0]:
        yi = flat_y[i]
        tol_i = flat_tol[i]

        def gfun(v):
            return float(_residual(problem, np.array([v]), np.array([yi]), delta)[0])

        lo = hi = float(flat_z[i]) if np.isfinite(flat_z[i]) else yi
        width = max(1.0, abs(lo))
        g0 = gfun(lo)
        k = 0
        while g0 > 0 and k < 64:
            lo -= width
            width *= 2.0
            g0 = gfun(lo)
            k += 1
        width = max(1.0, abs(hi))
        g1 = gfun(hi)
        k = 0
        while g1 < 0 and k < 64:
            hi += width
            width *= 2.0
            g1 = gfun(hi)
            k += 1
        for _ in range(cfg.max_bisection_iters):
            mid = 0.5 * (lo + hi)
            gm = gfun(mid)
            if abs(gm) <= tol_i:
                lo = hi = mid
                break
            if gm < 0:
                lo = mid
            else:
                hi = mid
        flat_z[i] = 0.5 * (lo + hi)
    return flat_z.reshape(z.shape)


def fdelta_gradient(problem, x, delta, config=None):
    """grad F^delta(x) = (I - delta * grad U0(F^delta(x)))^{-1}, shape (..., N, N)."""
    z = solve_fdelta(problem, x, delta, config)
    jac = problem.drift_jacobian(z)
    return np.linalg.inv(np.eye(problem.dim_state) - delta * jac)


def make_modified_fields(problem, delta, config=None):
    """Build the SdeProblem with drift U0^delta and diffusions V_k^delta.

    The returned drift is (F^delta(x) - x)/delta, which agrees with
    U0(F^delta(x)) exactly at the fixed point, so explicit Euler on the
    returned problem reproduces split-step paths bitwise. Jacobians use the
    chain rule through grad F^delta; Hessians fall back to differences of
    those Jacobians.

    Args:
        problem: the base SdeProblem.
        delta: the step size baked into F^delta.
        config: ImplicitSolveConfig for the inner solves.

    Returns:
        A new SdeProblem named "<base>-modified" with the same constants
        and noise_scale.
    """
    base = problem
    cfg = config if config is not None else ImplicitSolveConfig()

    def fdelta(x):
        return solve_fdelta(base, x, delta, cfg)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return (fdelta(x) - x) / delta

    def drift_jacobian(x):
        z = fdelta(x)
        grad_f = np.linalg.inv(np.eye(base.dim_state) - delta * base.drift_jacobian(z))
        return np.einsum("...im,...mj->...ij", base.drift_jacobian(z), grad_f)

    def diffusion(x):
        return base.diffusion(fdelta(x))

    def diffusion_jacobians(x):
        z = fdelta(x)
        grad_f = np.linalg.inv(np.eye(base.dim_state) - delta * base.drift_jacobian(z))
        return np.einsum("...kim,...mj->...kij", base.diffusion_jacobians(z), grad_f)

    from .problems import SdeProblem

    mod = SdeProblem(
        name=base.name + "-modified",
        dim_state=base.dim_state,
        dim_noise=base.dim_noise,
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        diffusion_jacobians=diffusion_jacobians,
        constants=dataclasses.replace(base.constants),
        noise_scale=base.noise_scale,
    )
    mod.fdelta = fdelta
    return mod


def fdelta_derivative_bounds_check(problem, delta, points=None, tol=1e-6,
                                   config=None):
    """Check |d_i F^delta(x)| <= 1/(1 + delta*lambda(F^delta(x))) <= 1 numerically.

    Differentiates the solver map by central differences at the given points
    (default: 64 samples in the ball of radius 5) and compares every Jacobian
    column norm against the contraction bound. lambda comes from the
    registered lambda_fn; when absent only the <= 1 part is checked.

    Returns:
        dict with max_column_norm, the worst excess over each bound, the
        number of points, and "pass".
    """
    cfg = config if config is not None else ImplicitSolveConfig()
    n = problem.dim_state
    if points is None:
        rng = np.random.default_rng(0)
        points = rng.uniform(-5.0, 5.0, size=(64, n))
    points = np.atleast_2d(np.asarray(points, dtype=float))

    lam_fn = problem.constants.lambda_fn
    max_col = 0.0
    excess_lam = -math.inf
    excess_one = -math.inf
    for x in points:
        h = 1e-5 * max(1.0, float(np.linalg.norm(x)))
        z = solve_fdelta(problem, x, delta, cfg)
        bound = 1.0
        if lam_fn is not None:
            bound = 1.0 / (1.0 + delta * float(lam_fn(z)))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            col = (solve_fdelta(problem, x + h * e, delta, cfg)
                   - solve_fdelta(problem, x - h * e, delta, cfg)) / (2.0 * h)
            cn = float(np.linalg.norm(col))
            max_col = max(max_col, cn)
            excess_one = max(excess_one, cn - 1.0)
            if lam_fn is not None:
                excess_lam = max(excess_lam, cn - bound)
    ok = excess_one <= tol and (lam_fn is None or excess_lam <= tol)
    return {
        "max_column_norm": max_col,
        "max_excess_vs_lambda_bound": None if lam_fn is None else excess_lam,
        "max_excess_vs_one": excess_one,
        "points_checked": int(points.shape[0]),
        "pass": bool(ok),
    }
