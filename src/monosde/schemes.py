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

from .implicit_map import ImplicitSolveConfig, _norm, solve_fdelta

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


def _tte_alpha(config, constants):
    """The tte truncation coefficient: config.alpha, else select_alpha's."""
    return select_alpha(constants)[0] if config.alpha is None else config.alpha


def epsilon_delta(constants, alpha, delta):
    """Contraction factor 1 - (2*tamed_b0*alpha - growth_c0)*delta^2/(1+delta*alpha)^2."""
    b0 = constants.tamed_b0
    c0 = constants.growth_c0
    return 1.0 - (2.0 * b0 * alpha - c0) * delta**2 / (1.0 + delta * alpha) ** 2


def make_stepper(problem, config):
    """Bind a SchemeConfig to a problem; returns step(x, dB) -> x_next.

    For kind "em-modified" the step is explicit Euler on the modified fields
    with one F^delta solve per call: z = F^delta(x), then
    x + delta*((z - x)/delta) plus the noise map at z. That is the arithmetic
    of the modified drift and noise_term, so the bits are theirs.
    The noise map is bound here too (SdeProblem.noise_fn), so the diffusion
    fields of a problem with c1 = 0 (additive noise) are evaluated once, not
    on every step.
    """
    kind = config.kind
    delta = config.delta
    solve = config.solve
    noise = problem.noise_fn()
    if kind == "em-modified":
        def step(x, dB):
            z = solve_fdelta(problem, x, delta, solve)
            return x + delta * ((z - x) / delta) + noise(z, dB)
    elif kind == "em":
        def step(x, dB):
            return x + delta * problem.drift(x) + noise(x, dB)
    elif kind == "splitstep":
        def step(x, dB):
            z = solve_fdelta(problem, x, delta, solve)
            return z + noise(z, dB)
    elif kind == "implicit":
        def step(x, dB):
            return solve_fdelta(problem, x + noise(x, dB), delta, solve)
    elif kind == "tamed":
        def step(x, dB):
            u0 = problem.drift(x)
            denom = 1.0 + delta * _norm(u0)[..., None]
            return x + delta * u0 / denom + noise(x, dB)
    elif kind == "tte":
        alpha = _tte_alpha(config, problem.constants)
        q = problem.constants.q

        def step(x, dB):
            u0 = problem.drift(x)
            denom = 1.0 + delta * alpha * _norm(x)[..., None] ** q
            return x + delta * u0 / denom + noise(x, dB)
    else:
        raise ValueError("unknown scheme kind %r" % kind)
    return step
