"""Numerical schemes for SDEs with locally Lipschitz monotone drifts.

The package simulates dx = U0(x) dt + noise_scale * sum_k V_k(x) dB^k under
five discretizations (explicit Euler, split-step, implicit Euler, standard
tamed, truncated tamed) and ships the measurement tools used to study their
long-time behaviour: uniform-in-time weak error curves, convergence-order
fits, moment audits, an exponential-stability probe, and a numeric checker
for the structural drift/diffusion conditions.
"""

__version__ = "0.1.2"

from .analysis import (AssumptionReport, OrderReport, ProfileReport,
                       ReferenceConfig, SesProbeReport, WeakErrorReport,
                       check_assumptions, convergence_order, drift_step_audit,
                       local_weak_error_profile, moment_recursion_audit,
                       ses_probe, weak_error_curve)
from .engine import (AllPathsBlewUp, EnsembleResult, EnsembleSpec,
                     MomentSeries, ObservableSeries, simulate_ensemble)
from .implicit_map import (DeltaTooLarge, ImplicitSolveConfig, NonConvergence,
                           fdelta_derivative_bounds_check, fdelta_gradient,
                           make_modified_fields, solve_fdelta)
from .noise import NoisePlan, increments_for
from .problems import (AssumptionConstants, Observable, SdeProblem,
                       check_derivatives, make_coupled_2d, make_cubic_1d,
                       make_fig1, make_linear_1d, make_observable,
                       make_problem, ou_exact_mean, ou_exact_var)
from .schemes import (KINDS, SchemeConfig, epsilon_delta, make_stepper,
                      select_alpha, step_explicit_em, step_implicit_euler,
                      step_split_step, step_tamed_standard,
                      step_tamed_truncated)

__all__ = [
    "__version__",
    "AllPathsBlewUp", "AssumptionConstants", "AssumptionReport",
    "DeltaTooLarge", "EnsembleResult", "EnsembleSpec",
    "ImplicitSolveConfig", "KINDS", "MomentSeries", "NoisePlan",
    "NonConvergence", "Observable", "ObservableSeries", "OrderReport",
    "ProfileReport", "ReferenceConfig", "SchemeConfig", "SdeProblem",
    "SesProbeReport", "WeakErrorReport",
    "check_assumptions", "check_derivatives", "convergence_order",
    "drift_step_audit", "epsilon_delta", "fdelta_derivative_bounds_check",
    "fdelta_gradient", "increments_for", "local_weak_error_profile",
    "make_coupled_2d", "make_cubic_1d", "make_fig1", "make_linear_1d",
    "make_modified_fields", "make_observable", "make_problem",
    "make_stepper", "moment_recursion_audit", "ou_exact_mean", "ou_exact_var",
    "select_alpha", "ses_probe", "simulate_ensemble", "solve_fdelta",
    "step_explicit_em", "step_implicit_euler", "step_split_step",
    "step_tamed_standard", "step_tamed_truncated", "weak_error_curve",
]
