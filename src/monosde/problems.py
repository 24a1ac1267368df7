"""SDE problem definitions: drift/diffusion fields, derivatives, constants.

A problem describes the Ito equation

    dx_t = U0(x_t) dt + noise_scale * sum_k V_k(x_t) dB^k_t,

where U0 is a locally Lipschitz, (strictly) monotone drift and the V_k are
bounded diffusion fields driven by d independent Brownian motions. The
noise_scale factor belongs to the problem (default sqrt(2); the fig1 problem
uses 1) so that scheme code never hard-codes a convention.

Array convention used throughout the package: state arrays have shape
(..., N) with N = dim_state; callbacks broadcast over leading axes.

    drift(x)               -> (..., N)
    drift_jacobian(x)      -> (..., N, N)      [i, j] = d_j U0_i
    drift_hessian(x)       -> (..., N, N, N)   [m, i, j] = d_i d_j U0_m
    diffusion(x)           -> (..., d, N)      row k = V_k(x)
    diffusion_jacobians(x) -> (..., d, N, N)   [k, i, j] = d_j V_k_i
    diffusion_hessians(x)  -> (..., d, N, N, N)
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)


@dataclass
class AssumptionConstants:
    """Constants under which the schemes' stability theory applies.

    The quadratic Lyapunov pair (b0, b1) bounds <U0(x), x> <= -b0|x|^2 + b1;
    the tamed pair (tamed_b0, tamed_b1) is the variant with exponent q+2,
    <U0(x), x> <= -tamed_b0|x|^(q+2) + tamed_b1. c0 is the one-sided Lipschitz
    constant (0 means strictly monotone and disables the delta < 1/(2c0)
    solver cap); (c2, q) is the polynomial growth bound
    |U0(x)-U0(y)|^2 <= c2(1+|x|^2q+|y|^2q)|x-y|^2; c1 and K bound the
    diffusion (sum_k |V_k(x)-V_k(y)| <= c1|x-y|, sum_k |V_k|^2 <= K).
    (growth_c0, growth_c1) is the drift growth decomposition
    |U0(x)|^2 <= growth_c0|x|^(2q+2) + growth_c1(1+|x|^2q) used by
    select_alpha; it is a different c0 from the one-sided constant.
    """

    b0: float
    b1: float
    c0: float
    c1: float
    c2: float
    q: float
    K: float
    tamed_b0: float
    tamed_b1: float
    growth_c0: float
    growth_c1: float
    lambda_fn: Optional[Callable] = None
    lambda_star: float = 0.0
    gamma: Optional[float] = None
    rho: Optional[float] = 0.19
    alpha_ses: Optional[float] = None
    alpha_mod: Optional[float] = None  # Hessian/lambda ratio bound for the modified SDE
    beta_ses: Optional[float] = None
    drift_lip: Optional[float] = None  # global drift Lipschitz constant, if any

    def __post_init__(self):
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative (0 = strictly monotone)")
        if self.rho is not None and not (0.0 < self.rho < 0.2):
            raise ValueError("rho must lie in (0, 1/5)")
        if self.beta_ses is not None and self.beta_ses < 1.0:
            raise ValueError("beta_ses must be >= 1")
        if self.lambda_fn is not None and self.lambda_star <= 0:
            raise ValueError("lambda_star must be positive when lambda_fn is set")


@dataclass
class SdeProblem:
    name: str
    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    constants: AssumptionConstants
    drift_jacobian: Callable = None
    drift_hessian: Callable = None
    diffusion_jacobians: Callable = None
    diffusion_hessians: Callable = None
    noise_scale: float = _SQRT2
    fd_derivatives: bool = False  # True when finite-difference fallbacks installed
    # extra named inequality callbacks, margin(x) >= 0 expected; used by the
    # assumption checker (e.g. the 2-D eigenvalue-negativity condition)
    extra_conditions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("dim_state and dim_noise must be positive")
        installed = _install_fd_derivatives(self)
        if installed:
            self.fd_derivatives = True

    def noise_term(self, x, dB):
        """noise_scale * sum_k V_k(x) dB_k for states (..., N), dB (..., d)."""
        v = self.diffusion(x)  # (..., d, N)
        return self.noise_scale * np.einsum("...kn,...k->...n", v, dB)


@dataclass
class Observable:
    """Scalar test function with derivatives and a C^2_b seminorm bound.

    c2b_seminorm bounds sup|grad f| + sup|hess f|_F; it must dominate the
    pointwise sum |grad f(x)| + |hess f(x)|_F everywhere.
    """

    name: str
    eval: Callable       # (..., N) -> (...)
    grad: Callable       # (..., N) -> (..., N)
    hess: Callable       # (..., N) -> (..., N, N)
    c2b_seminorm: float


# ---------------------------------------------------------------------------
# finite-difference fallbacks for user problems without analytic derivatives

def _fd_derivative(fn, out_axes):
    """Central differences of fn along each state coordinate, stacked on a
    new last axis; out_axes counts fn's output axes after the batch axes."""
    def deriv(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        h = np.cbrt(np.finfo(float).eps) * np.maximum(
            1.0, np.linalg.norm(x, axis=-1, keepdims=True))
        h_out = h.reshape(h.shape + (1,) * (out_axes - 1))
        cols = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            step = h * e
            cols.append((fn(x + step) - fn(x - step)) / (2.0 * h_out))
        return np.stack(cols, axis=-1)

    return deriv


def _install_fd_derivatives(problem):
    """Install central-difference Jacobians/Hessians where callbacks are missing."""
    installed = False
    for name, source, out_axes in (("drift_jacobian", "drift", 1),
                                   ("drift_hessian", "drift_jacobian", 2),
                                   ("diffusion_jacobians", "diffusion", 2),
                                   ("diffusion_hessians", "diffusion_jacobians", 3)):
        if getattr(problem, name) is None:
            setattr(problem, name,
                    _fd_derivative(getattr(problem, source), out_axes))
            installed = True
    return installed


# ---------------------------------------------------------------------------
# shipped example problems

def make_cubic_1d(a, b, noise_scale=_SQRT2):
    """1-D problem with U0(x) = -x^3 - a*x and V(x) = b*arctan(x).

    Satisfies the monotone-drift assumptions with lambda(x) = 3x^2 + a.
    The Lyapunov constants, growth constants, and SES constants are registered
    in closed form.

    Args:
        a: linear drift coefficient, must be positive.
        b: diffusion amplitude, nonnegative (b=0 gives a deterministic flow).
        noise_scale: factor multiplying the diffusion term (default sqrt(2)).

    Returns:
        SdeProblem with exact derivative callbacks.
    """
    if a <= 0:
        raise ValueError("cubic_1d requires a > 0")
    if b < 0:
        raise ValueError("cubic_1d requires b >= 0")

    def drift(x):
        return -(x * x * x) - a * x

    def drift_jac(x):
        return (-3.0 * x**2 - a)[..., None]

    def drift_hess(x):
        return (-6.0 * x)[..., None, None]

    def diffusion(x):
        return (b * np.arctan(x))[..., None]

    def diffusion_jac(x):
        return (b / (1.0 + x**2))[..., None, None]

    def diffusion_hess(x):
        return (-2.0 * b * x / (1.0 + x**2) ** 2)[..., None, None, None]

    def lam(x):
        x = np.asarray(x, dtype=float)
        return 3.0 * x[..., 0] ** 2 + a

    constants = AssumptionConstants(
        b0=a, b1=0.0,                      # <U0,x> = -x^4 - a x^2 <= -a|x|^2
        c0=0.0,                            # strictly monotone
        c1=b,                              # |arctan x - arctan y| <= |x-y|
        c2=max(9.0, 2.0 * a * a), q=2.0,
        K=b * b * (math.pi / 2.0) ** 2,
        tamed_b0=1.0, tamed_b1=0.0,        # <U0,x> <= -|x|^4
        growth_c0=2.0, growth_c1=a * a + 2.0 * a,
        lambda_fn=lam, lambda_star=a,
        rho=0.19,
        alpha_ses=max(3.0 / (1.0 + a), math.sqrt(3.0 / (1.0 + a))),
        alpha_mod=max(2.0, math.sqrt(3.0 / a)),  # sup 6|x| / (3x^2 + a) = sqrt(3/a)
        beta_ses=1.0,
    )
    return SdeProblem(
        name="cubic1d", dim_state=1, dim_noise=1,
        drift=drift, drift_jacobian=drift_jac, drift_hessian=drift_hess,
        diffusion=diffusion, diffusion_jacobians=diffusion_jac,
        diffusion_hessians=diffusion_hess,
        constants=constants, noise_scale=noise_scale,
    )


def make_fig1():
    """The benchmark problem dx = -(x^3 + x) dt + dB_t.

    Cubic drift with a=1 and a constant unit diffusion field; the noise enters
    with factor 1 (not sqrt(2)). Stationary density ~ exp(-(x^4/2 + x^2)).
    """
    base = make_cubic_1d(1.0, 0.0, noise_scale=1.0)

    def diffusion(x):
        return np.broadcast_to(1.0, np.shape(x)[:-1] + (1, 1)).copy()

    def diffusion_jac(x):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def diffusion_hess(x):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1, 1))

    base.name = "fig1"
    base.diffusion = diffusion
    base.diffusion_jacobians = diffusion_jac
    base.diffusion_hessians = diffusion_hess
    base.constants.c1 = 0.0
    base.constants.K = 1.0
    return base


def make_coupled_2d(a, b, sigma1=(0.1, 0.0), sigma2=(0.0, 0.1),
                    noise_scale=_SQRT2):
    """2-D coupled cubic problem with constant diffusion fields.

    U0(x1, x2) = (-x1 - a x1^3 - x2^2 x1, -x2 - b x2^3 - x1^2 x2), with
    V_1 = sigma1 and V_2 = sigma2 constant. lambda(x) is the explicit
    closed form for -lambda_max(grad U0) (the radical's argument is clamped
    at 0 against floating-point undershoot). The sigma defaults are a choice,
    not dictated by the dynamics; pass your own to override.

    Args:
        a, b: positive cubic coefficients.
        sigma1, sigma2: the two constant diffusion vectors in R^2.
        noise_scale: factor multiplying the diffusion term (default sqrt(2)).
    """
    if a <= 0 or b <= 0:
        raise ValueError("coupled_2d requires a > 0 and b > 0")
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if s1.shape != (2,) or s2.shape != (2,):
        raise ValueError("sigma1 and sigma2 must be length-2 vectors")
    sig = np.stack([s1, s2])  # (d, N) = (2, 2)

    def drift(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([-x1 - a * (x1 * x1 * x1) - x2**2 * x1,
                         -x2 - b * (x2 * x2 * x2) - x1**2 * x2], axis=-1)

    def drift_jac(x):
        x1, x2 = x[..., 0], x[..., 1]
        off = -2.0 * x1 * x2
        return np.stack([
            np.stack([-1.0 - 3.0 * a * x1**2 - x2**2, off], axis=-1),
            np.stack([off, -1.0 - 3.0 * b * x2**2 - x1**2], axis=-1),
        ], axis=-2)

    def drift_hess(x):
        x1, x2 = x[..., 0], x[..., 1]
        h1 = np.stack([
            np.stack([-6.0 * a * x1, -2.0 * x2], axis=-1),
            np.stack([-2.0 * x2, -2.0 * x1], axis=-1),
        ], axis=-2)
        h2 = np.stack([
            np.stack([-2.0 * x2, -2.0 * x1], axis=-1),
            np.stack([-2.0 * x1, -6.0 * b * x2], axis=-1),
        ], axis=-2)
        return np.stack([h1, h2], axis=-3)

    def diffusion(x):
        return np.broadcast_to(sig, np.shape(x)[:-1] + (2, 2)).copy()

    def diffusion_jac(x):
        return np.zeros(np.shape(x)[:-1] + (2, 2, 2))

    def diffusion_hess(x):
        return np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2))

    def lam(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0] ** 2, x[..., 1] ** 2
        rad = ((3 * a - 1) * u - (3 * b - 1) * v) ** 2 + 16.0 * u * v
        rad = np.maximum(rad, 0.0)
        return 1.0 + 0.5 * ((3 * a + 1) * u + (3 * b + 1) * v) - 0.5 * np.sqrt(rad)

    def eig_negativity_margin(x):
        # Eigenvalues of grad U0 are negative iff this product condition holds.
        u, v = x[..., 0] ** 2, x[..., 1] ** 2
        return (1 + 3 * a * u + v) * (1 + 3 * b * v + u) - 4.0 * u * v

    # inf of lambda over a coarse grid (the formula's infimum is attained at
    # the origin for the shipped parameter ranges; the grid scan guards that)
    g = np.linspace(-5.0, 5.0, 41)
    xx = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    lam_star = float(min(lam(np.zeros(2)), lam(xx).min()))

    big = max(a, b, 1.0)
    constants = AssumptionConstants(
        b0=1.0, b1=0.0,
        c0=0.0,
        c1=0.0,
        c2=max(2.0, 4.0 * (3.0 * max(a, b) + 3.0) ** 2), q=2.0,
        K=float(np.sum(sig**2)),
        tamed_b0=min(a, b, 1.0), tamed_b1=0.0,
        growth_c0=4.0 * big * big, growth_c1=2.0,
        lambda_fn=lam, lambda_star=lam_star,
        rho=0.19,
        beta_ses=None,
    )
    return SdeProblem(
        name="coupled2d", dim_state=2, dim_noise=2,
        drift=drift, drift_jacobian=drift_jac, drift_hessian=drift_hess,
        diffusion=diffusion, diffusion_jacobians=diffusion_jac,
        diffusion_hessians=diffusion_hess,
        constants=constants, noise_scale=noise_scale,
        extra_conditions={"eigenvalue_negativity_2d": eig_negativity_margin},
    )


def make_linear_1d(rate=1.0, sigma=0.2, noise_scale=1.0):
    """Linear 1-D problem dx = -rate*x dt + noise_scale*sigma dB (OU process).

    Closed-form moments: E[x_t] = x0*exp(-rate*t) and
    Var[x_t] = (noise_scale*sigma)^2 (1 - exp(-2*rate*t)) / (2*rate).
    Used as the exactly-solvable benchmark.
    """
    if rate <= 0:
        raise ValueError("linear_1d requires rate > 0")

    def drift(x):
        return -rate * x

    def drift_jac(x):
        return np.broadcast_to(-rate, np.shape(x)[:-1] + (1, 1)).copy()

    def drift_hess(x):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def diffusion(x):
        return np.broadcast_to(sigma, np.shape(x)[:-1] + (1, 1)).copy()

    def diffusion_jac(x):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1))

    def diffusion_hess(x):
        return np.zeros(np.shape(x)[:-1] + (1, 1, 1, 1))

    def lam(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(rate, x.shape[:-1]).copy()

    constants = AssumptionConstants(
        b0=rate, b1=0.0,
        c0=0.0,
        c1=0.0,
        c2=rate * rate, q=0.0,
        K=sigma * sigma,
        tamed_b0=rate, tamed_b1=0.0,
        growth_c0=rate * rate, growth_c1=rate * rate,
        lambda_fn=lam, lambda_star=rate,
        rho=0.19,
        alpha_ses=0.1,
        alpha_mod=0.1,                    # the drift Hessian vanishes
        beta_ses=1.0,
        drift_lip=rate,
    )
    return SdeProblem(
        name="ou", dim_state=1, dim_noise=1,
        drift=drift, drift_jacobian=drift_jac, drift_hessian=drift_hess,
        diffusion=diffusion, diffusion_jacobians=diffusion_jac,
        diffusion_hessians=diffusion_hess,
        constants=constants, noise_scale=noise_scale,
    )


def ou_exact_mean(x0, t, rate=1.0):
    return np.asarray(x0, dtype=float) * np.exp(-rate * np.asarray(t, dtype=float))


def ou_exact_var(t, rate=1.0, sigma=0.2, noise_scale=1.0):
    t = np.asarray(t, dtype=float)
    s = noise_scale * sigma
    return s * s * (1.0 - np.exp(-2.0 * rate * t)) / (2.0 * rate)


# ---------------------------------------------------------------------------
# registry + observables

def make_problem(name, **params):
    """Build a registered problem by name: cubic1d, coupled2d, fig1, ou."""
    if name == "cubic1d":
        return make_cubic_1d(params.get("a", 1.0), params.get("b", 0.3),
                             noise_scale=params.get("noise_scale", _SQRT2))
    if name == "coupled2d":
        return make_coupled_2d(
            params.get("a", 1.0), params.get("b", 1.0),
            sigma1=params.get("sigma1", (0.1, 0.0)),
            sigma2=params.get("sigma2", (0.0, 0.1)),
            noise_scale=params.get("noise_scale", _SQRT2))
    if name == "fig1":
        return make_fig1()
    if name == "ou":
        return make_linear_1d(params.get("rate", 1.0), params.get("sigma", 0.2),
                              noise_scale=params.get("noise_scale", 1.0))
    raise KeyError("unknown problem %r (known: cubic1d, coupled2d, fig1, ou)" % name)


# sup|f''| for arctan is 9/(8*sqrt(3)), attained at x = 1/sqrt(3)
_ARCTAN_C2B = 1.0 + 9.0 / (8.0 * math.sqrt(3.0))


def make_observable(name):
    """Build a named observable acting on the first state coordinate."""
    if name == "identity":
        return Observable(
            "identity",
            eval=lambda x: x[..., 0],
            grad=_first_coord_grad(lambda x: np.ones_like(x[..., 0])),
            hess=lambda x: np.zeros(x.shape[:-1] + (x.shape[-1],) * 2),
            c2b_seminorm=1.0,
        )
    if name == "arctan":
        return Observable(
            "arctan",
            eval=lambda x: np.arctan(x[..., 0]),
            grad=_first_coord_grad(lambda x: 1.0 / (1.0 + x[..., 0] ** 2)),
            hess=_first_coord_hess(
                lambda x: -2.0 * x[..., 0] / (1.0 + x[..., 0] ** 2) ** 2),
            c2b_seminorm=_ARCTAN_C2B,
        )
    if name.startswith("coord"):
        i = int(name[len("coord"):])

        def grad(x, _i=i):
            g = np.zeros_like(x)
            g[..., _i] = 1.0
            return g

        return Observable(
            name,
            eval=lambda x, _i=i: x[..., _i],
            grad=grad,
            hess=lambda x: np.zeros(x.shape[:-1] + (x.shape[-1],) * 2),
            c2b_seminorm=1.0,
        )
    raise KeyError("unknown observable %r" % name)


def _first_coord_grad(dfn):
    def grad(x):
        g = np.zeros_like(np.asarray(x, dtype=float))
        g[..., 0] = dfn(x)
        return g

    return grad


def _first_coord_hess(d2fn):
    def hess(x):
        n = x.shape[-1]
        h = np.zeros(x.shape[:-1] + (n, n))
        h[..., 0, 0] = d2fn(x)
        return h

    return hess


# ---------------------------------------------------------------------------
# derivative self-check

def check_derivatives(problem, samples=100, radius=5.0, tol=1e-5, seed=0):
    """Compare analytic derivative callbacks against 4th-order central differences.

    Args:
        problem: the SdeProblem to audit.
        samples: number of sample points in the ball of the given radius.
        radius: sampling radius around the origin.
        tol: relative tolerance on the worst mismatch.
        seed: sampling seed.

    Returns:
        dict with per-callback max relative error and an overall "pass" bool.
        NaN production by any callback counts as failure.
    """
    rng = np.random.default_rng(seed)
    n = problem.dim_state
    pts = rng.uniform(-radius, radius, size=(samples, n))

    def d4(fn, x, j, h):
        e = np.zeros(n)
        e[j] = 1.0
        return (-fn(x + 2 * h * e) + 8 * fn(x + h * e)
                - 8 * fn(x - h * e) + fn(x - 2 * h * e)) / (12.0 * h)

    report = {}
    worst = {"drift_jacobian": 0.0, "drift_hessian": 0.0,
             "diffusion_jacobians": 0.0, "diffusion_hessians": 0.0}
    saw_nan = False
    for x in pts:
        h = 1e-3 * max(1.0, float(np.linalg.norm(x)))
        jac = problem.drift_jacobian(x)
        hes = problem.drift_hessian(x)
        djac = problem.diffusion_jacobians(x)
        dhes = problem.diffusion_hessians(x)
        for arr in (jac, hes, djac, dhes):
            if np.any(np.isnan(arr)):
                saw_nan = True
        for j in range(n):
            fd = d4(problem.drift, x, j, h)
            scale = max(1.0, float(np.max(np.abs(jac))))
            worst["drift_jacobian"] = max(
                worst["drift_jacobian"], float(np.max(np.abs(jac[:, j] - fd))) / scale)
            fdh = d4(problem.drift_jacobian, x, j, h)
            scale = max(1.0, float(np.max(np.abs(hes))))
            worst["drift_hessian"] = max(
                worst["drift_hessian"], float(np.max(np.abs(hes[:, :, j] - fdh))) / scale)
            fdd = d4(problem.diffusion, x, j, h)
            scale = max(1.0, float(np.max(np.abs(djac))))
            worst["diffusion_jacobians"] = max(
                worst["diffusion_jacobians"],
                float(np.max(np.abs(djac[:, :, j] - fdd))) / scale)
            fdd2 = d4(problem.diffusion_jacobians, x, j, h)
            scale = max(1.0, float(np.max(np.abs(dhes))))
            worst["diffusion_hessians"] = max(
                worst["diffusion_hessians"],
                float(np.max(np.abs(dhes[:, :, :, j] - fdd2))) / scale)
    report.update(worst)
    report["nan_detected"] = saw_nan
    report["pass"] = (not saw_nan) and all(v <= tol for v in worst.values())
    return report
