"""One-step maps for the five discretizations.

Every stepper consumes externally supplied Brownian increments dB of shape
(..., d) and returns the next state; no scheme owns an RNG. The problem's
noise_scale multiplies the diffusion term, so the same code covers both the
sqrt(2)-noise convention and unit noise.

Kinds:
    em           x + delta*U0(x) + noise
    splitstep    z = F^delta(x), then z + noise evaluated at z
    implicit     F^delta(x + noise evaluated at x)
    tamed        drift term delta*U0(x) / (1 + delta*|U0(x)|)
    tte          drift term delta*U0(x) / (1 + delta*alpha*|x|^q)
    em-modified  explicit Euler on the modified fields U0^delta, V_k^delta
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .implicit_map import (ImplicitSolveConfig, _norm, make_modified_fields,
                           solve_fdelta)

KINDS = ("em", "splitstep", "implicit", "tamed", "tte", "em-modified")


@dataclass
class SchemeConfig:
    kind: str
    delta: float
    alpha: Optional[float] = None  # tte truncation coefficient; None = select_alpha
    solve: ImplicitSolveConfig = field(default_factory=ImplicitSolveConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown scheme kind %r (known: %s)"
                             % (self.kind, ", ".join(KINDS)))
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def step_explicit_em(problem, x, dB, delta):
    return x + delta * problem.drift(x) + problem.noise_term(x, dB)


def step_split_step(problem, x, dB, delta, solve_config=None):
    z = solve_fdelta(problem, x, delta, solve_config)
    return z + problem.noise_term(z, dB)


def step_implicit_euler(problem, x, dB, delta, solve_config=None):
    return solve_fdelta(problem, x + problem.noise_term(x, dB), delta, solve_config)


def step_tamed_standard(problem, x, dB, delta):
    u0 = problem.drift(x)
    denom = 1.0 + delta * _norm(u0)[..., None]
    return x + delta * u0 / denom + problem.noise_term(x, dB)


def step_tamed_truncated(problem, x, dB, delta, alpha):
    u0 = problem.drift(x)
    q = problem.constants.q
    denom = 1.0 + delta * alpha * _norm(x)[..., None] ** q
    return x + delta * u0 / denom + problem.noise_term(x, dB)


def select_alpha(constants):
    """Recommended truncation coefficient for the tte scheme.

    Uses the drift growth decomposition |U0(x)|^2 <= growth_c0*|x|^(2q+2)
    + growth_c1*(1+|x|^2q) together with the dissipation constant tamed_b0.
    The admissible region is alpha > max(growth_c0/(2*tamed_b0),
    tamed_b0 + sqrt(tamed_b0^2 - growth_c0)) when tamed_b0^2 >= growth_c0
    and alpha > growth_c0/(2*tamed_b0) otherwise; the returned value adds a
    5 percent margin.

    Args:
        constants: AssumptionConstants with tamed_b0 and growth_c0 set.

    Returns:
        (alpha, eps_fn) where eps_fn(delta) is the per-step contraction
        factor epsilon_delta for that alpha.
    """
    b0 = constants.tamed_b0
    c0 = constants.growth_c0
    if b0 <= 0:
        raise ValueError("select_alpha needs tamed_b0 > 0")
    lower = c0 / (2.0 * b0)
    if b0 * b0 >= c0:
        lower = max(lower, b0 + math.sqrt(b0 * b0 - c0))
    alpha = 1.05 * lower

    def eps_fn(delta, _alpha=alpha):
        return epsilon_delta(constants, _alpha, delta)

    return alpha, eps_fn


def epsilon_delta(constants, alpha, delta):
    """Contraction factor 1 - (2*tamed_b0*alpha - growth_c0)*delta^2/(1+delta*alpha)^2."""
    b0 = constants.tamed_b0
    c0 = constants.growth_c0
    return 1.0 - (2.0 * b0 * alpha - c0) * delta**2 / (1.0 + delta * alpha) ** 2


def make_stepper(problem, config):
    """Bind a SchemeConfig to a problem; returns step(x, dB) -> x_next.

    For kind "em-modified" the modified fields are built once up front, so the
    returned closure prices one implicit solve per call like splitstep does.
    """
    kind = config.kind
    delta = config.delta
    if kind == "em":
        return lambda x, dB: step_explicit_em(problem, x, dB, delta)
    if kind == "splitstep":
        return lambda x, dB: step_split_step(problem, x, dB, delta, config.solve)
    if kind == "implicit":
        return lambda x, dB: step_implicit_euler(problem, x, dB, delta, config.solve)
    if kind == "tamed":
        return lambda x, dB: step_tamed_standard(problem, x, dB, delta)
    if kind == "tte":
        alpha = config.alpha
        if alpha is None:
            alpha, _ = select_alpha(problem.constants)
        return lambda x, dB: step_tamed_truncated(problem, x, dB, delta, alpha)
    if kind == "em-modified":
        mod = make_modified_fields(problem, delta, config.solve)
        return lambda x, dB: step_explicit_em(mod, x, dB, delta)
    raise ValueError("unknown scheme kind %r" % kind)
