"""The implicit one-step map F^delta and the modified (shifted) fields.

F^delta(y) solves the fixed-point problem

    z = y + delta * U0(z),

which is uniquely solvable for monotone drifts (for one-sided Lipschitz
drifts with constant c0 > 0 only up to delta < 1/(2*c0); the solver refuses
larger steps). The modified drift is U0^delta = (F^delta - id)/delta, which
coincides with U0 composed with F^delta by the fixed-point relation, and the
modified diffusion fields are V_k composed with F^delta. Explicit Euler
applied to the modified fields reproduces the split-step scheme path by path.
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

    def __reduce__(self):
        # The default passes only the message to __init__; errors cross the
        # engine's worker pipes pickled.
        return (type(self), (self.residual, self.index))


class DeltaTooLarge(ValueError):
    """delta >= 1/(2*c0) for a drift with one-sided constant c0 > 0."""


@dataclass
class ImplicitSolveConfig:
    abs_tol: float = 1e-12
    max_newton_iters: int = 50
    max_bisection_iters: int = 200


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

    An iteration in which every unfinished row lowers its residual, and no
    finished row's residual grows, takes the full step outright; only
    otherwise does it backtrack and keep each row's better point. Finished
    rows get a zero step and recompute their own residual, so both routes
    give the same bits: a finished row's point does not move, and every
    other row takes the full step either way. (A recomputed residual can
    differ only for an infinite state, whose tolerance is infinite: its
    residual inf can come back NaN, and then the iteration backtracks.)

    Args:
        problem: SdeProblem supplying drift and drift_jacobian.
        y: states, shape (..., N).
        delta: positive step size.
        config: ImplicitSolveConfig; defaults are tight (abs_tol 1e-12).

    Returns:
        z with the same shape as y. Every row whose norm |y| is finite
        satisfies the residual bound |z - y - delta*U0(z)| <= abs_tol *
        max(1, |y|). A row whose norm is NaN or infinite (a NaN or infinite
        entry, or for N >= 2 a norm that overflows above about 1.3e154) is
        returned unsolved, and nothing is raised for it: its tolerance is
        NaN or infinite, so its residual never exceeds it. Callers that
        need finite rows check them; the engine's blow-up guard freezes
        such paths.

    Raises:
        DeltaTooLarge: if the registered c0 > 0 and delta >= 1/(2*c0).
        NonConvergence: if some batch entry with a finite norm never meets
            the tolerance.
    """
    cfg = config if config is not None else ImplicitSolveConfig()
    y = np.asarray(y, dtype=float)
    if delta <= 0:
        raise ValueError("delta must be positive")
    c0 = problem.constants.c0
    if c0 > 0 and delta >= 1.0 / (2.0 * c0):
        raise DeltaTooLarge(
            "delta=%g exceeds the solvability threshold 1/(2*c0)=%g"
            % (delta, 1.0 / (2.0 * c0)))

    n = problem.dim_state
    # residual tolerance scales with the state so solves remain feasible for
    # very large |y| (float64 cannot reach 1e-12 absolutes at scale 1e6)
    tol = cfg.abs_tol * np.maximum(1.0, _norm(y))
    du = delta * problem.drift(y)
    z_pred = y + du
    g_pred = _residual(problem, z_pred, y, delta)
    r_pred = _norm(g_pred)
    r_id = _norm(du)
    # start from the explicit predictor unless it lands somewhere worse than y
    use_pred = np.isfinite(r_pred) & (r_pred <= r_id)
    if use_pred.all():
        z, g, r = z_pred, g_pred, r_pred
    else:
        z = np.where(use_pred[..., None], z_pred, y)
        g = np.where(use_pred[..., None], g_pred, -du)
        r = np.where(use_pred, r_pred, r_id)

    for _ in range(cfg.max_newton_iters):
        done = r <= tol
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            return z
        jac = problem.drift_jacobian(z)
        if n == 1:
            pivot = 1.0 - delta * jac[..., 0]
            if not pivot.all():
                break
            step = g / pivot
        else:
            try:
                step = np.linalg.solve(np.eye(n) - delta * jac,
                                       g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                break
        if n_done:
            np.copyto(step, 0.0, where=done[..., None])
        z_try = z - step
        g_try = _residual(problem, z_try, y, delta)
        r_try = _norm(g_try)
        full = np.where(done, r_try <= r, r_try < r) if n_done else r_try < r
        if full.all():
            z, g, r = z_try, g_try, r_try
            continue
        t = 1.0
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


def _widen(gfun, x, sign):
    """Move x by doubling widths in the direction sign while
    sign * gfun(x) < 0 holds (a NaN residual stops it), at most 64 times."""
    width = max(1.0, abs(x))
    for _ in range(64):
        if not sign * gfun(x) < 0:
            break
        x += sign * width
        width *= 2.0
    return x


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

        start = float(flat_z[i]) if np.isfinite(flat_z[i]) else yi
        lo, hi = _widen(gfun, start, -1.0), _widen(gfun, start, 1.0)
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
    return _jacobian_and_gradient(problem, z, delta)[1]


def _jacobian_and_gradient(problem, z, delta):
    """grad U0(z) and (I - delta * grad U0(z))^{-1}; at z = F^delta(x) the
    second is grad F^delta(x)."""
    jac = problem.drift_jacobian(z)
    return jac, np.linalg.inv(np.eye(problem.dim_state) - delta * jac)


def make_modified_fields(problem, delta, config=None):
    """Build the SdeProblem with drift U0^delta and diffusions V_k^delta.

    The returned drift is (F^delta(x) - x)/delta, which agrees with
    U0(F^delta(x)) exactly at the fixed point, so explicit Euler on the
    returned problem reproduces split-step paths to within rounding
    (x + delta*((z - x)/delta) need not round to z). Jacobians use the
    chain rule through grad F^delta; Hessians fall back to differences of
    those Jacobians.

    Args:
        problem: the base SdeProblem.
        delta: the step size baked into F^delta.
        config: ImplicitSolveConfig for the inner solves.

    Returns:
        A new SdeProblem named "<base>-modified" with the same constants
        and noise_scale (c1 = 0 carries over: V_k o F^delta is constant when
        V_k is).
    """
    base = problem
    cfg = config if config is not None else ImplicitSolveConfig()

    def fdelta(x):
        return solve_fdelta(base, x, delta, cfg)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return (fdelta(x) - x) / delta

    def drift_jacobian(x):
        jac, grad_f = _jacobian_and_gradient(base, fdelta(x), delta)
        return np.einsum("...im,...mj->...ij", jac, grad_f)

    def diffusion(x):
        return base.diffusion(fdelta(x))

    def diffusion_jacobians(x):
        z = fdelta(x)
        grad_f = _jacobian_and_gradient(base, z, delta)[1]
        return np.einsum("...kim,...mj->...kij", base.diffusion_jacobians(z), grad_f)

    from .problems import SdeProblem

    return SdeProblem(
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


def fdelta_derivative_bounds_check(problem, delta, points=None, tol=1e-6,
                                   config=None):
    """Check |d_i F^delta(x)| <= 1/(1 + delta*lambda(F^delta(x))) <= 1 numerically.

    Differentiates the solver map by the central differences of
    problems._fd_derivative (step cbrt(eps) max(1, |x|)), solving at all
    points at once, and compares every Jacobian column norm against the
    contraction bound at the given points (default: 64 samples in the ball
    of radius 5). lambda comes from the registered lambda_fn, called on the
    batch of F^delta(x); when absent only the <= 1 part is checked.

    Returns:
        dict with max_column_norm, the worst excess over each bound, the
        number of points, and "pass".
    """
    from .problems import _fd_derivative

    cfg = config if config is not None else ImplicitSolveConfig()
    n = problem.dim_state
    if points is None:
        rng = np.random.default_rng(0)
        points = rng.uniform(-5.0, 5.0, size=(64, n))
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def fdelta(x):
        return solve_fdelta(problem, x, delta, cfg)

    # column j of the Jacobian is the last-axis slice [..., j]
    col = np.linalg.norm(_fd_derivative(fdelta, 1)(points), axis=-2)
    lam_fn = problem.constants.lambda_fn
    excess_one = float(np.max(col - 1.0, initial=-math.inf))
    excess_lam = None
    if lam_fn is not None:
        bound = 1.0 / (1.0 + delta * np.asarray(lam_fn(fdelta(points)),
                                                dtype=float))
        excess_lam = float(np.max(col - bound[:, None], initial=-math.inf))
    ok = excess_one <= tol and (lam_fn is None or excess_lam <= tol)
    return {
        "max_column_norm": float(np.max(col, initial=0.0)),
        "max_excess_vs_lambda_bound": excess_lam,
        "max_excess_vs_one": excess_one,
        "points_checked": int(points.shape[0]),
        "pass": bool(ok),
    }
