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

    def noise_fn(self):
        """The map (x, dB) -> noise_term(x, dB) that a stepper binds once.

        constants.c1 == 0 declares every V_k constant in x (additive noise).
        Such a problem has its diffusion Jacobians evaluated here at
        x = (1, ..., 1) and its diffusion fields there and at x = -2(1, ..., 1);
        the Jacobians must vanish and the two field values agree. This spot
        check catches a wrong c1 = 0 on most state-dependent fields but cannot
        prove the fields constant. With one noise component the returned map
        multiplies dB by that constant row, giving noise_term's bits; every
        other problem gets noise_term itself.

        Raises:
            ValueError: c1 is 0 but the diffusion fields fail the check.
        """
        if self.constants.c1 != 0:
            return self.noise_term
        at = np.ones(self.dim_state)
        v = np.array(self.diffusion(at), dtype=float)
        if (np.any(self.diffusion_jacobians(at) != 0)
                or np.any(self.diffusion(-2.0 * at) != v)):
            raise ValueError("problem %r declares c1 = 0 (constant diffusion) "
                             "but its diffusion fields depend on the state"
                             % self.name)
        if self.dim_noise != 1:
            return self.noise_term
        ns = self.noise_scale
        v0 = v.reshape(self.dim_state)

        def noise(x, dB):
            return ns * (v0 * dB)

        return noise


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


# (derivative callback, the callback it differentiates, that one's output axes)
_DERIVATIVES = (("drift_jacobian", "drift", 1),
                ("drift_hessian", "drift_jacobian", 2),
                ("diffusion_jacobians", "diffusion", 2),
                ("diffusion_hessians", "diffusion_jacobians", 3))


def _install_fd_derivatives(problem):
    """Install central-difference Jacobians/Hessians where callbacks are missing."""
    installed = False
    for name, source, out_axes in _DERIVATIVES:
        if getattr(problem, name) is None:
            setattr(problem, name,
                    _fd_derivative(getattr(problem, source), out_axes))
            installed = True
    return installed


# ---------------------------------------------------------------------------
# shipped example problems

def _constant(value):
    """A field constant in x: value as floats, broadcast over the batch axes
    of x into a fresh array."""
    value = np.asarray(value, dtype=float)

    def field(x):
        return np.broadcast_to(value, np.shape(x)[:-1] + value.shape).copy()

    return field


def _zeros(*shape):
    """A vanishing derivative: zeros of the given shape per state."""
    def field(x):
        return np.zeros(np.shape(x)[:-1] + shape)

    return field


def make_cubic_1d(a=1.0, b=0.3, noise_scale=_SQRT2):
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
        lambda_fn=lam,
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
    base.name = "fig1"
    base.diffusion = _constant([[1.0]])
    base.diffusion_jacobians = _zeros(1, 1, 1)
    base.diffusion_hessians = _zeros(1, 1, 1, 1)
    base.constants.c1 = 0.0
    base.constants.K = 1.0
    return base


def make_coupled_2d(a=1.0, b=1.0, sigma1=(0.1, 0.0), sigma2=(0.0, 0.1),
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

    big = max(a, b, 1.0)
    constants = AssumptionConstants(
        b0=1.0, b1=0.0,
        c0=0.0,
        c1=0.0,
        c2=max(2.0, 4.0 * (3.0 * max(a, b) + 3.0) ** 2), q=2.0,
        K=float(np.sum(sig**2)),
        tamed_b0=min(a, b, 1.0), tamed_b1=0.0,
        growth_c0=4.0 * big * big, growth_c1=2.0,
        lambda_fn=lam,
        rho=0.19,
        beta_ses=None,
    )
    return SdeProblem(
        name="coupled2d", dim_state=2, dim_noise=2,
        drift=drift, drift_jacobian=drift_jac, drift_hessian=drift_hess,
        diffusion=_constant(sig), diffusion_jacobians=_zeros(2, 2, 2),
        diffusion_hessians=_zeros(2, 2, 2, 2),
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

    constants = AssumptionConstants(
        b0=rate, b1=0.0,
        c0=0.0,
        c1=0.0,
        c2=rate * rate, q=0.0,
        K=sigma * sigma,
        tamed_b0=rate, tamed_b1=0.0,
        growth_c0=rate * rate, growth_c1=rate * rate,
        lambda_fn=_constant(rate),
        rho=0.19,
        alpha_ses=0.1,
        alpha_mod=0.1,                    # the drift Hessian vanishes
        beta_ses=1.0,
        drift_lip=rate,
    )
    return SdeProblem(
        name="ou", dim_state=1, dim_noise=1,
        drift=drift, drift_jacobian=_constant([[-rate]]),
        drift_hessian=_zeros(1, 1, 1), diffusion=_constant([[sigma]]),
        diffusion_jacobians=_zeros(1, 1, 1),
        diffusion_hessians=_zeros(1, 1, 1, 1),
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

_FACTORIES = {"cubic1d": make_cubic_1d, "coupled2d": make_coupled_2d,
              "fig1": make_fig1, "ou": make_linear_1d}


def make_problem(name, **params):
    """Build a registered problem by name: cubic1d, coupled2d, fig1, ou. The
    factory's signature holds the defaults; an unknown param is a TypeError."""
    if name not in _FACTORIES:
        raise KeyError("unknown problem %r (known: %s)"
                       % (name, ", ".join(_FACTORIES)))
    return _FACTORIES[name](**params)


# sup|f''| for arctan is 9/(8*sqrt(3)), attained at x = 1/sqrt(3)
_ARCTAN_C2B = 1.0 + 9.0 / (8.0 * math.sqrt(3.0))


def make_observable(name):
    """Build a named observable: identity and arctan act on the first state
    coordinate, coord<i> is coordinate i."""
    if name == "arctan":
        return _of_coordinate(name, 0, np.arctan,
                              lambda u: 1.0 / (1.0 + u ** 2),
                              lambda u: -2.0 * u / (1.0 + u ** 2) ** 2,
                              _ARCTAN_C2B)
    if name == "identity" or name.startswith("coord"):
        i = 0 if name == "identity" else int(name[len("coord"):])
        return _of_coordinate(name, i, lambda u: u, lambda u: 1.0,
                              lambda u: 0.0, 1.0)
    raise KeyError("unknown observable %r" % name)


def _of_coordinate(name, i, f, df, d2f, c2b_seminorm):
    """The observable g(x) = f(x_i), given the derivatives df and d2f of f."""
    def grad(x):
        g = np.zeros_like(np.asarray(x, dtype=float))
        g[..., i] = df(x[..., i])
        return g

    def hess(x):
        n = x.shape[-1]
        h = np.zeros(x.shape[:-1] + (n, n))
        h[..., i, i] = d2f(x[..., i])
        return h

    return Observable(name, lambda x: f(x[..., i]), grad, hess, c2b_seminorm)


# ---------------------------------------------------------------------------
# derivative self-check

def check_derivatives(problem, samples=100, radius=5.0, tol=1e-5, seed=0):
    """Compare analytic derivative callbacks against central differences.

    Each callback is compared, at all sample points at once, with the
    _fd_derivative of the callback it differentiates; the error at a point
    is the largest entry mismatch over max(1, largest analytic entry).

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
    pts = rng.uniform(-radius, radius, size=(samples, problem.dim_state))
    report = {}
    saw_nan = False
    for name, source, out_axes in _DERIVATIVES:
        exact = getattr(problem, name)(pts).reshape(samples, -1)
        fd = _fd_derivative(getattr(problem, source), out_axes)(pts)
        saw_nan = saw_nan or bool(np.any(np.isnan(exact)))
        scale = np.maximum(1.0, np.max(np.abs(exact), axis=1))
        err = np.max(np.abs(exact - fd.reshape(samples, -1)), axis=1) / scale
        report[name] = float(np.max(err))
    report["nan_detected"] = saw_nan
    report["pass"] = not saw_nan and all(report[name] <= tol
                                         for name, _, _ in _DERIVATIVES)
    return report
