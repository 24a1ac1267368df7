"""Weak-error curves, convergence-order fits, local error profiles,
exponential-stability probes, moment audits, and numeric assumption checking.

All Monte Carlo work routes through the engine; reductions here are
single-threaded and deterministic. Reference runs share the fine Brownian
lattice with the coarse runs (common random numbers), which is what makes
difference curves usable at feasible path counts; _coupled_runs drives a
reference and its coarse runs through one engine pass over that lattice.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .engine import (EnsembleSpec, _prepare_run, _simulate, _start,
                     simulate_ensemble)
from .noise import _whole_multiple
from .problems import Observable
from .schemes import SchemeConfig, _tte_alpha, epsilon_delta, make_stepper


class NonFiniteEstimate(ArithmeticError):
    """An estimated curve has non-finite entries, or a quantity a fit takes
    the log of is zero."""


@dataclass
class ReferenceConfig:
    """Fine benchmark ensemble; defaults follow the standard protocol
    (standard tamed scheme, delta = 5e-4, 10^4 paths)."""

    kind: str = "tamed"
    delta: float = 5e-4
    n_paths: int = 10000


@dataclass
class WeakErrorReport:
    scheme_kind: str
    delta: float
    observable: str
    times: np.ndarray
    err: np.ndarray
    halfwidth: np.ndarray      # pointwise 95% combined MC half-width
    max_halfwidth: Optional[float]   # None where some half-width is undefined
    sup_error: float
    plateau: Optional[bool]          # None where some half-width is undefined
    curve_mean: np.ndarray
    curve_stderr: np.ndarray
    ref_mean: np.ndarray
    ref_stderr: np.ndarray
    n_blowups_curve: int
    n_blowups_ref: int
    seed: int
    coupled: bool              # curve and reference rode one Brownian lattice
    stderr_undefined_at: np.ndarray   # record times of undefined half-widths


@dataclass
class OrderReport:
    scheme_kind: str
    observable: str
    deltas: np.ndarray
    sup_errors: np.ndarray
    halfwidths: np.ndarray
    beta_hat: float
    beta_stderr: float
    intercept: float
    n_paths: int
    seed: int


@dataclass
class ProfileRow:
    x: np.ndarray
    delta: float
    err: float
    halfwidth: float


@dataclass
class ProfileReport:
    scheme_kind: str
    observable: str
    rows: list
    growth_exponent: Optional[float]   # log err vs log |x| at the largest delta
    delta_exponent: Optional[float]    # log err vs log delta at the smallest |x|
    n_paths: int
    seed: int


@dataclass
class SesProbeReport:
    fine_delta: float
    horizon: float
    times: np.ndarray
    grad_norm: np.ndarray        # sup over initial points of |E[J^T grad f(x_t)]|
    grad_stderr: np.ndarray
    gamma_hat: Optional[float]
    gamma_stderr: Optional[float]
    points_used: int
    decay_detected: bool
    per_point: list              # (x0, norm curve, stderr curve) triples
    second_norm: Optional[np.ndarray]
    second_stderr: Optional[np.ndarray]
    gamma2_hat: Optional[float]
    n_paths: int
    seed: int


@dataclass
class ConditionResult:
    condition: str
    description: str
    constant: object
    worst_margin: float
    worst_x: object
    passed: bool
    skipped: bool = False
    note: str = ""


@dataclass
class AssumptionReport:
    problem: str
    radius: float
    samples: int
    grid_points: int
    conditions: list = field(default_factory=list)
    overall_pass: bool = False

    def get(self, condition):
        for c in self.conditions:
            if c.condition == condition:
                return c
        raise KeyError(condition)


# ---------------------------------------------------------------------------
# shared helpers

def _wls_line(x, y, sigma):
    """Weighted least squares y = a + b x; returns (b, a, stderr_b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = 1.0 / np.clip(np.asarray(sigma, dtype=float), 1e-9, None) ** 2
    sw = np.sum(w)
    sx = np.sum(w * x)
    sxx = np.sum(w * x * x)
    sy = np.sum(w * y)
    sxy = np.sum(w * x * y)
    denom = sw * sxx - sx * sx
    if denom <= 0:
        raise ValueError("degenerate design in weighted fit")
    b = (sw * sxy - sx * sy) / denom
    a = (sxx * sy - sx * sxy) / denom
    return b, a, math.sqrt(sw / denom)


def _compare(curve, ref):
    """|curve mean - reference mean| and its combined standard error, for two
    Series on one record grid. The standard error is not finite wherever
    either one is (nan where fewer than two paths survive): the comparison
    at that time is undefined, and nothing may be decided from it."""
    err = np.abs(curve.mean - ref.mean)
    se = np.sqrt(curve.stderr ** 2 + ref.stderr ** 2)
    return err, se


def _coupled_runs(problem, reference, observable, horizon, seed, threads,
                  curves):
    """Run coarse curves and their fine references in one pass over the noise
    on the lattice (seed, reference.delta).

    Args:
        curves: (scheme, x0, n_paths, record_dt) per coarse run. Every scheme
            delta must be a multiple of reference.delta. One reference run
            is made per distinct (x0, record_dt), placed before the first
            curve that uses it.

    Returns:
        One (curve result, reference result) pair per curve.
    """
    ref_scheme = SchemeConfig(reference.kind, reference.delta)
    runs = []
    ref_index = {}
    pairs = []
    for scheme, x0, n_paths, rec in curves:
        spec_c = EnsembleSpec(x0, n_paths, horizon, seed=seed,
                              fine_delta=reference.delta, record_dt=rec,
                              threads=threads, moment_orders=())
        key = (tuple(_start(x0, problem.dim_state)), rec)
        if key not in ref_index:
            ref_index[key] = len(runs)
            runs.append((ref_scheme, replace(spec_c, n_paths=reference.n_paths),
                         [observable]))
        pairs.append((len(runs), ref_index[key]))
        runs.append((scheme, spec_c, [observable]))
    results = simulate_ensemble(problem, *runs[0], coupled=runs[1:])
    return [(results[c], results[r]) for c, r in pairs]


def _weak_error_report(scheme, observable, horizon, seed, coupled):
    """WeakErrorReport of one (curve, reference) pair of _coupled_runs."""
    res_c, res_r = coupled
    sc = res_c.observables[observable.name]
    sr = res_r.observables[observable.name]
    times = sc.times
    err, se = _compare(sc, sr)
    halfwidth = 1.96 * se
    undefined = times[~np.isfinite(halfwidth)]
    max_hw = plateau = None
    if not undefined.size:
        max_hw = float(np.max(halfwidth))
        half = horizon / 2.0
        early = float(np.max(err[times <= half]))
        late = float(np.max(err[times >= half]))
        plateau = bool(late <= early + 2.0 * max_hw)
    return WeakErrorReport(
        scheme_kind=scheme.kind, delta=scheme.delta, observable=observable.name,
        times=times, err=err, halfwidth=halfwidth, max_halfwidth=max_hw,
        sup_error=float(np.max(err)), plateau=plateau,
        curve_mean=sc.mean, curve_stderr=sc.stderr,
        ref_mean=sr.mean, ref_stderr=sr.stderr,
        n_blowups_curve=res_c.n_blowups, n_blowups_ref=res_r.n_blowups,
        seed=seed,
        coupled=((res_c.seed, res_c.fine_delta)
                 == (res_r.seed, res_r.fine_delta)),
        stderr_undefined_at=undefined)


def weak_error_curve(problem, scheme, observable, x0, horizon, n_paths,
                     seed=0, record_dt=0.25, reference=None, threads=1):
    """Weak-error curve err(t) = |E g(X^delta_t) - E g(ref_t)| with CRN coupling.

    The reference ensemble (default: standard tamed, delta 5e-4, 10^4 paths)
    runs on the fine lattice; the scheme consumes the coarsened increments of
    the same lattice, so both see the same Brownian paths, and both runs
    share one pass over the noise. The plateau flag is true iff the max
    error over [T/2, T] does not exceed the max over [0, T/2] by more than
    twice the largest pointwise 95% half-width. Where fewer than two paths of
    either run survive, the half-width is undefined (nan): the report lists
    those times in stderr_undefined_at, and max_halfwidth and plateau are
    None.

    Args:
        problem, scheme, observable: what to run and measure.
        x0: initial state (scalar or vector).
        horizon: final time T.
        n_paths: scheme ensemble size.
        seed: master seed shared by both ensembles.
        record_dt: record grid spacing (must be a multiple of both deltas);
            None records every scheme step.
        reference: ReferenceConfig override.
        threads: engine worker cap.

    Returns:
        WeakErrorReport.
    """
    reference = reference if reference is not None else ReferenceConfig()
    rec = record_dt if record_dt is not None else scheme.delta
    coupled, = _coupled_runs(problem, reference, observable, horizon, seed,
                             threads, [(scheme, x0, n_paths, rec)])
    return _weak_error_report(scheme, observable, horizon, seed, coupled)


def convergence_order(problem, kind, deltas, observable, x0, horizon, n_paths,
                      seed=0, record_dt=0.25, reference=None, exact_mean=None,
                      alpha=None, threads=1):
    """Fit the weak order beta from sup-over-time errors at geometric deltas.

    Errors come either from common-random-number reference runs (default) or,
    when exact_mean is given, from the closed-form curve t -> E[g(x_t)]
    evaluated on the record grid. The fit is weighted least squares of
    log sup-err against log delta, with delta-method weights hw/err. With a
    reference, every delta and one reference run per distinct record grid
    share one pass over the noise.

    Args:
        deltas: at least 3 step sizes in geometric progression.
        exact_mean: optional callable times -> exact expectation of g.
        alpha: tte truncation coefficient passed to each SchemeConfig.
        record_dt: deltas it does not divide evenly fall back to recording
            every step of that delta's run.
        (other args as in weak_error_curve)

    Returns:
        OrderReport with beta_hat and per-delta sup errors.

    Raises:
        NonFiniteEstimate: a sup error is zero or not finite (a start at a
            fixed point of the SDE makes every error 0), or the half-width
            the fit weights it by is undefined (fewer than two paths survive
            at its time), naming its delta.
    """
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if deltas.size < 3:
        raise ValueError("need >= 3 deltas")
    ratios = deltas[:-1] / deltas[1:]
    if np.any(np.abs(ratios - ratios[0]) > 1e-9 * ratios[0]):
        raise ValueError("deltas must form a geometric progression")

    curves = []
    for delta in deltas:
        scheme = SchemeConfig(kind, float(delta), alpha=alpha)
        rd = record_dt
        if rd is not None and _whole_multiple(rd, delta) is None:
            rd = None
        curves.append((scheme, rd))

    errors = []
    if exact_mean is not None:
        for scheme, rd in curves:
            spec = EnsembleSpec(x0, n_paths, horizon, seed=seed,
                                record_dt=rd, threads=threads)
            res = simulate_ensemble(problem, scheme, spec, [observable])
            series = res.observables[observable.name]
            err = np.abs(series.mean - np.asarray(exact_mean(series.times)))
            errors.append((series.times, err, 1.96 * series.stderr))
    else:
        ref = reference if reference is not None else ReferenceConfig()
        coupled = _coupled_runs(
            problem, ref, observable, horizon, seed, threads,
            [(scheme, x0, n_paths, rd if rd is not None else scheme.delta)
             for scheme, rd in curves])
        for res_c, res_r in coupled:
            series = res_c.observables[observable.name]
            err, se = _compare(series, res_r.observables[observable.name])
            errors.append((series.times, err, 1.96 * se))

    sup_errors = np.zeros(deltas.size)
    halfwidths = np.zeros(deltas.size)
    for i, (times, err, hw) in enumerate(errors):
        k = int(np.argmax(err))
        sup_errors[i] = err[k]
        halfwidths[i] = hw[k]
        if not (np.isfinite(sup_errors[i]) and sup_errors[i] > 0):
            raise NonFiniteEstimate(
                "sup error %r at delta=%g: the log-log order fit needs a "
                "positive finite error at every delta"
                % (float(sup_errors[i]), deltas[i]))
        if not np.isfinite(halfwidths[i]):
            raise NonFiniteEstimate(
                "half-width of the sup error at delta=%g, t=%g is undefined "
                "(fewer than two surviving paths); the order fit weights "
                "every error by its half-width" % (deltas[i], times[k]))

    sigma = halfwidths / np.maximum(sup_errors, 1e-300)
    beta, intercept, beta_se = _wls_line(np.log(deltas), np.log(sup_errors), sigma)
    return OrderReport(
        scheme_kind=kind, observable=observable.name, deltas=deltas,
        sup_errors=sup_errors, halfwidths=halfwidths,
        beta_hat=float(beta), beta_stderr=float(beta_se),
        intercept=float(intercept), n_paths=n_paths, seed=seed)


def _loglog_slope(pairs):
    """The least-squares slope of log err on log x over the (x, err) pairs
    with err > 0, or None when fewer than three pairs have err > 0."""
    pts = [(x, err) for x, err in pairs if err > 0]
    if len(pts) < 3:
        return None
    x, err = zip(*pts)
    slope, _, _ = _wls_line(np.log(x), np.log(err), np.ones(len(pts)))
    return float(slope)


def local_weak_error_profile(problem, scheme, states, deltas, observable,
                             n_paths, seed=0, inner_factor=100, threads=1):
    """One-step weak errors phi_hat(x, delta) on a grid of starts and steps.

    For each (x, delta) the scheme takes a single step while a standard tamed
    reference integrates the same Brownian path with inner_factor substeps;
    the tabulated error is the difference of the g-means at time delta. All
    starts of one delta share one pass over the noise.

    Returns:
        ProfileReport: rows plus a growth exponent (err vs |x| at the largest
        delta, over states with |x| >= 1) and a delta exponent (err vs delta
        at the state of smallest |x|), each None when underdetermined.
    """
    deltas = sorted(float(v) for v in deltas)
    states = [_start(s, problem.dim_state) for s in states]
    cells = {}
    for j, delta in enumerate(deltas):
        one = SchemeConfig(scheme.kind, delta, alpha=scheme.alpha,
                           solve=scheme.solve)
        ref = ReferenceConfig(kind="tamed", delta=delta / inner_factor,
                              n_paths=n_paths)
        coupled = _coupled_runs(problem, ref, observable, delta, seed, threads,
                                [(one, x, n_paths, delta) for x in states])
        for i, (res_c, res_r) in enumerate(coupled):
            err, se = _compare(res_c.observables[observable.name],
                               res_r.observables[observable.name])
            cells[i, j] = ProfileRow(x=states[i], delta=delta,
                                     err=float(err[-1]),
                                     halfwidth=float(1.96 * se[-1]))
    rows = [cells[i, j] for i in range(len(states)) for j in range(len(deltas))]

    big_d = deltas[-1]
    growth = _loglog_slope((float(np.linalg.norm(r.x)), r.err) for r in rows
                           if r.delta == big_d and np.linalg.norm(r.x) >= 1.0)
    norms = [float(np.linalg.norm(s)) for s in states]
    x_small = states[int(np.argmin(norms))]
    dslope = _loglog_slope((r.delta, r.err) for r in rows
                           if np.array_equal(r.x, x_small))
    return ProfileReport(scheme_kind=scheme.kind, observable=observable.name,
                         rows=rows, growth_exponent=growth,
                         delta_exponent=dslope, n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# strong-exponential-stability probe

def _fit_decay(times, values, stderrs):
    """Fit log values = a - gamma t over gated points (value > 5 stderr)."""
    t = np.asarray(times, dtype=float)
    s = np.asarray(values, dtype=float)
    se = np.nan_to_num(np.asarray(stderrs, dtype=float), nan=np.inf)
    mask = np.isfinite(s) & (s > 0) & (s > 5.0 * se)
    n = int(mask.sum())
    if n < 2:
        return None, None, n
    rel = np.clip(se[mask] / s[mask], 1e-9, None)
    slope, _, slope_se = _wls_line(t[mask], np.log(s[mask]), rel)
    return float(-slope), float(slope_se), n


def _tangent_stepper(problem, delta, k=1):
    """Explicit Euler step of k joint states z_s = (x_s, vec J_s) side by
    side, J_s the first variation of x_s: J <- (I + delta grad U0 + ns
    sum_l grad V_l dB_l) J and the EM step of x, both taken at the old x.
    A row of z has width k (n + n^2), and every start on it is stepped with
    that row's dB, repeated once per start because the einsums run several
    times slower on a broadcast view of it; each start gets the bits the
    k = 1 step gives it alone. With c1 = 0 (constant diffusion, checked by
    noise_fn) the grad V_l vanish and their term is skipped. The x_s are
    read into a contiguous copy, on which the drift and its Jacobian run
    faster than on the strided view and give the same bits. The step
    returns a new array, so while every path survives the engine takes it
    as the block's state in one copy."""
    n = problem.dim_state
    width = n + n * n
    ns = problem.noise_scale
    eye = np.eye(n)
    noise = problem.noise_fn()
    additive = problem.constants.c1 == 0

    def step(z, dB):
        rows = z.shape[0]
        z = z.reshape(rows, k, width)
        db = np.repeat(dB, k, axis=0).reshape(rows, k, -1)
        x = np.ascontiguousarray(z[:, :, :n])
        amp = eye + delta * problem.drift_jacobian(x)
        if not additive:
            amp = amp + ns * np.einsum("...kij,...k->...ij",
                                       problem.diffusion_jacobians(x), db)
        jmat = np.einsum("...ij,...jk->...ik", amp,
                         z[:, :, n:].reshape(rows, k, n, n))
        x = x + delta * problem.drift(x) + noise(x, db)
        return np.concatenate([x, jmat.reshape(rows, k, n * n)],
                              axis=2).reshape(rows, k * width)

    return step


def _tangent_observables(f, n, k):
    """One observable per start s and component i of J_s^T grad f(x_s) on
    rows of k joint states side by side, start by start."""
    width = n + n * n

    def component(s, i):
        lo = s * width

        def value(z):
            x = z[:, lo:lo + n]
            jmat = z[:, lo + n:lo + width].reshape(-1, n, n)
            return np.einsum("...mi,...m->...i", jmat, f.grad(x))[:, i]
        return Observable("tangent%d.%d" % (s, i), value, None, None, 0.0)

    return [component(s, i) for s in range(k) for i in range(n)]


def ses_probe(problem, f, initial_points, horizon, n_paths, fine_delta,
              seed=0, record_dt=0.25, second_order=True, bump=0.05, threads=1):
    """Estimate the decay rate of |grad P_t f| via the tangent process.

    Simulates (x_t, J_t) jointly with explicit Euler at fine_delta, where J is
    the first variation (J_0 = I), and estimates grad P_t f(x0) as
    E[J_t^T grad f(x_t)]. The reported curve is the max over initial points;
    gamma_hat comes from a weighted log-linear fit restricted to times where
    the estimate exceeds 5x its standard error. Second-derivative decay is
    estimated by central differences of the gradient estimate at starts
    x0 +- bump e_j with common random numbers. All starts share one engine
    run: a path's state holds the joint states of every start side by side,
    and each start is read from its own observable columns, so it gets the
    bits a run of its own would give.

    A path freezes when the norm of its whole stacked state leaves the
    blow-up ball, not the norm of one start, and no report is made from a
    run in which any path froze.

    Args:
        f: Observable with grad callback.
        initial_points: list of starting states.
        horizon, n_paths, fine_delta: probe protocol.
        second_order: also estimate the grad^2 decay curve (first point only).
        bump: finite-difference offset for the second-derivative estimate.

    Returns:
        SesProbeReport. decay_detected is True when the fit used >= 3 points
        and gamma_hat exceeds max(0.05, 2 gamma_stderr).

    Raises:
        AllPathsBlewUp: when every path of the stacked run blows up, as the
            explicit tangent run does when some start is far out.
        NonFiniteEstimate: when some paths of the stacked run blow up (a
            mean over the survivors would be biased), or the gradient curve
            has a non-finite entry.
    """
    n = problem.dim_state
    points = [_start(p, n) for p in initial_points]
    if not points:
        raise ValueError("need at least one initial point")
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")

    starts = list(points)
    if second_order:
        for j in range(n):
            e = np.zeros(n)
            e[j] = bump
            starts += [points[0] + e, points[0] - e]
    k = len(starts)
    observables = _tangent_observables(f, n, k)
    spec = EnsembleSpec(starts[0], n_paths, horizon, seed=seed,
                        record_dt=record_dt, threads=threads, moment_orders=())
    run = _prepare_run(problem, SchemeConfig("em", fine_delta), spec,
                       observables)
    eye = np.eye(n).ravel()
    res, = _simulate([replace(
        run, stepper=_tangent_stepper(problem, fine_delta, k),
        x0=np.concatenate([np.concatenate([p, eye]) for p in starts]))])
    if res.n_blowups:
        raise NonFiniteEstimate(
            "ses tangent run of %d starts: %d of %d paths blew up "
            "(threshold %g on the stacked state); a mean over the survivors "
            "is biased" % (k, res.n_blowups, n_paths, res.blowup_threshold))
    times = res.times
    # (time, start, component) means and standard errors of J_s^T grad f
    series = [res.observables[obs.name] for obs in observables]
    mean = np.stack([c.mean for c in series], axis=-1).reshape(-1, k, n)
    se = np.stack([c.stderr for c in series], axis=-1).reshape(-1, k, n)

    p = len(points)
    norms = np.linalg.norm(mean[:, :p], axis=-1)
    norm_se = np.sqrt(np.sum(se[:, :p] ** 2, axis=-1))
    per_point = [(x, norms[:, s], norm_se[:, s]) for s, x in enumerate(points)]
    sup = (np.arange(times.size), np.argmax(norms, axis=1))
    grad_norm, grad_se = norms[sup], norm_se[sup]
    bad = int(np.sum(~np.isfinite(grad_norm)))
    if bad:
        raise NonFiniteEstimate(
            "ses gradient estimate grad_norm is non-finite at %d of %d "
            "record times" % (bad, grad_norm.size))

    gamma, gamma_se, used = _fit_decay(times, grad_norm, grad_se)
    detected = (gamma is not None and used >= 3
                and gamma > max(0.05, 2.0 * (gamma_se or 0.0)))

    def frobenius(a):
        # a is (time, j, i); its squares are summed as a C-contiguous
        # (time, i, j) array, in one fixed order
        a = np.ascontiguousarray(np.swapaxes(a, 1, 2))
        return np.sqrt(np.sum(a**2, axis=(-2, -1)))

    second = second_se = gamma2 = None
    if second_order:
        # start p + 2j is x0 + bump e_j and start p + 2j + 1 is x0 - bump e_j
        second = frobenius((mean[:, p::2] - mean[:, p + 1::2]) / (2.0 * bump))
        second_se = frobenius(np.sqrt(se[:, p::2] ** 2 + se[:, p + 1::2] ** 2)
                              / (2.0 * bump))
        gamma2, _, _ = _fit_decay(times, second, second_se)

    return SesProbeReport(
        fine_delta=fine_delta, horizon=horizon, times=times,
        grad_norm=grad_norm, grad_stderr=grad_se,
        gamma_hat=gamma, gamma_stderr=gamma_se, points_used=used,
        decay_detected=bool(detected), per_point=per_point,
        second_norm=second, second_stderr=second_se,
        gamma2_hat=gamma2,
        n_paths=n_paths, seed=seed)


# ---------------------------------------------------------------------------
# moment audits


def drift_step_audit(problem, scheme, radii=None, n_directions=8, seed=0):
    """Grid check of the drift-only one-step second-moment recursion.

    Verifies |x + D(x)|^2 <= eps * |x|^2 + slack pointwise, where D is the
    scheme's drift increment (the stepper applied with zero noise), eps is
    epsilon_delta for the tte scheme and 1 otherwise, and
    slack = 2*delta*tamed_b1 + 2*delta^2*growth_c1 absorbs the additive
    constants of the drift bounds. Explicit Euler is expected to fail this
    beyond |x| ~ sqrt(2/delta) on cubic drifts; the truncated and implicit
    families should pass on any radius.

    Args:
        problem: SdeProblem.
        scheme: SchemeConfig.
        radii: radii to test (default logspace 1e-2..1e6 plus 0).
        n_directions: unit directions per radius (2 fixed signs for N=1).
        seed: direction sampling seed.

    Returns:
        dict with eps, slack, worst_margin, worst_radius, and "pass".
    """
    delta = scheme.delta
    cst = problem.constants
    eps = (epsilon_delta(cst, _tte_alpha(scheme, cst), delta)
           if scheme.kind == "tte" else 1.0)
    slack = 2.0 * delta * cst.tamed_b1 + 2.0 * delta**2 * cst.growth_c1 + 1e-12

    if radii is None:
        radii = np.concatenate([[0.0], np.logspace(-2, 6, 81)])
    n = problem.dim_state
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n_directions, n))
        dirs = v / np.linalg.norm(v, axis=-1, keepdims=True)

    stepper = make_stepper(problem, scheme)
    pts = (np.asarray(radii)[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    zero = np.zeros((pts.shape[0], problem.dim_noise))
    y = stepper(pts, zero)
    lhs = np.sum(y * y, axis=-1)
    rhs = eps * np.sum(pts * pts, axis=-1) + slack
    margin = rhs - lhs
    k = int(np.argmin(margin))
    return {
        "eps": float(eps),
        "slack": float(slack),
        "worst_margin": float(margin[k]),
        "worst_radius": float(np.linalg.norm(pts[k])),
        "pass": bool(margin[k] >= -1e-9),
    }


def moment_recursion_audit(problem, scheme, result, x0, power=2):
    """Monte Carlo audit of the time-uniform second-moment recursion.

    Reads a result that recorded |X|^power at every step (ValueError if
    not, or for another scheme kind) and checks two things: that
    sup_n E|X_{t_n}|^power stays at or below |x0|^power plus a fitted
    constant (the fitted C is simply the observed excess, reported for the
    caller to judge), and that the first step out of x0 contracts the second
    moment by at most eps_delta plus an allowance
    (delta * noise_scale^2 * K + 2 delta tamed_b1 + 2 delta^2 growth_c1) / |x0|^2
    plus three standard errors. The contraction check only applies from
    |x0| > 1 and is reported as None otherwise. The drift-only grid audit
    runs as a sub-check.

    Args:
        problem: SdeProblem with registered constants.
        scheme: SchemeConfig; must be the tte scheme.
        result: EnsembleResult of that scheme, recorded at every step.
        x0: its initial state.
        power: moment order to audit (the theory covers 2).

    Returns:
        dict with empirical_sup, fitted_C, first_step_ratio,
        contraction_bound, contraction_ok, n_blowups, eps, drift_grid,
        and "pass" (contraction and grid both fine, no blow-ups).
    """
    if scheme.kind != "tte":
        raise ValueError("moment audit covers the tte scheme, got %r"
                         % scheme.kind)
    if (power not in result.moments or result.times.size - 1
            != _whole_multiple(result.times[-1], result.delta)):
        raise ValueError("moment audit needs |X|^%s recorded at every step"
                         % power)
    cst = problem.constants
    delta = scheme.delta
    grid = drift_step_audit(problem, scheme)
    eps = grid["eps"]

    series = result.moments[power]
    x0 = _start(x0, problem.dim_state)
    base = float(np.linalg.norm(x0)) ** power
    empirical_sup = float(np.max(series.mean))
    fitted_c = max(0.0, empirical_sup - base)

    first_ratio = None
    bound = None
    contraction_ok = None
    if power == 2 and np.linalg.norm(x0) > 1.0 and series.mean.size > 1:
        first_ratio = float(series.mean[1] / base)
        allowance = (delta * problem.noise_scale**2 * cst.K
                     + 2.0 * delta * cst.tamed_b1
                     + 2.0 * delta**2 * cst.growth_c1) / base
        se = series.stderr[1]
        se = 0.0 if not np.isfinite(se) else float(se)
        bound = eps + allowance + 3.0 * se / base
        contraction_ok = bool(first_ratio <= bound)

    ok = grid["pass"] and result.n_blowups == 0
    if contraction_ok is not None:
        ok = ok and contraction_ok
    return {
        "power": power,
        "eps": float(eps),
        "empirical_sup": empirical_sup,
        "fitted_C": fitted_c,
        "first_step_ratio": first_ratio,
        "contraction_bound": bound,
        "contraction_ok": contraction_ok,
        "n_blowups": int(result.n_blowups),
        "drift_grid": grid,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# assumption checking

def _grid_points(n, radius, per_dim=41, samples=400, seed=0):
    if n == 1:
        pts = np.linspace(-radius, radius, max(per_dim, 201))[:, None]
    elif n == 2:
        g = np.linspace(-radius, radius, per_dim)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-radius, radius, size=(max(samples, 100), n))
    if not np.any(np.all(pts == 0.0, axis=-1)):
        pts = np.vstack([np.zeros((1, n)), pts])
    return pts


def check_assumptions(problem, radius=10.0, samples=400, seed=0, tol=1e-9):
    """Evaluate the registered drift/diffusion inequalities numerically.

    Pointwise conditions run on a dense grid inside the given radius
    (1-D: 201 points, 2-D: 41x41, higher: uniform samples); pairwise
    conditions use `samples` random pairs. Conditions whose constants are not
    registered are marked skipped, with the grid estimate of the required
    constant in the note. Gamma-style conditions (2.7), (2.11), (2.12) report
    the largest admissible gamma as the margin; they pass iff it is strictly
    positive.

    Returns:
        AssumptionReport; overall_pass covers the non-skipped conditions.
    """
    cst = problem.constants
    n = problem.dim_state
    pts = _grid_points(n, radius, samples=samples, seed=seed)
    rng = np.random.default_rng(seed + 1)
    xs = rng.uniform(-radius, radius, size=(samples, n))
    ys = rng.uniform(-radius, radius, size=(samples, n))

    u_x = problem.drift(xs)
    u_y = problem.drift(ys)
    dxy = xs - ys
    du = u_x - u_y
    v_pts = problem.diffusion(pts)              # (P, d, N)
    dj_pts = problem.diffusion_jacobians(pts)   # (P, d, N, N)
    dh_pts = problem.diffusion_hessians(pts)    # (P, d, N, N, N)
    jac_pts = problem.drift_jacobian(pts)       # (P, N, N)
    hess_pts = problem.drift_hessian(pts)       # (P, N, N, N)
    u_pts = problem.drift(pts)
    nrm_pts = np.linalg.norm(pts, axis=-1)

    lam = None
    if cst.lambda_fn is not None:
        lam = np.asarray(cst.lambda_fn(pts), dtype=float)

    sym = 0.5 * (jac_pts + np.swapaxes(jac_pts, -1, -2))
    eigs = np.linalg.eigvalsh(sym)
    eig_max = eigs[..., -1]
    eig_min = eigs[..., 0]

    # sup_i sum_k |d_i V_k|^2 : jac convention [k, m, i]
    col_sq = np.sum(dj_pts**2, axis=-2)         # (P, d, N) over components m
    v_deriv = np.max(np.sum(col_sq, axis=-2), axis=-1)   # (P,)

    # sum_{i,j} |d_i d_j U0(x)| with |.| the component-vector norm
    hess_norm_ij = np.linalg.norm(np.moveaxis(hess_pts, -3, -1), axis=-1)
    hess_sum = np.sum(hess_norm_ij, axis=(-2, -1))       # (P,)

    conditions = []

    def add(condition, description, constant, margins, where, passed=None,
            note=""):
        margins = np.asarray(margins, dtype=float)
        k = int(np.argmin(margins))
        worst = float(margins[k])
        if passed is None:
            passed = bool(worst >= -tol * (1.0 + abs(worst)))
        conditions.append(ConditionResult(
            condition=condition, description=description, constant=constant,
            worst_margin=worst, worst_x=np.asarray(where)[k],
            passed=bool(passed), note=note))

    def skip(condition, description, note, where=pts):
        conditions.append(ConditionResult(
            condition=condition, description=description, constant=None,
            worst_margin=0.0, worst_x=where[0], passed=False, skipped=True,
            note=note))

    def gamma(condition, description, gm, **constant):
        """A row whose margin gm is the largest admissible gamma."""
        add(condition, description,
            dict(constant, gamma_max=float(np.min(gm))), gm, pts,
            passed=bool(np.min(gm) > 0),
            note="margin is the largest admissible gamma")

    # --- section 2 conditions -------------------------------------------
    if lam is not None:
        add("2.6", "v^T grad U0 v <= -lambda(x)|v|^2", None,
            -lam - eig_max, pts,
            passed=bool(np.all(eig_max <= -lam + tol * (1.0 + np.abs(lam)))))
        gamma("2.7", "sup_i sum_k |d_i V_k|^2 <= (lambda - gamma)/N",
              lam - n * v_deriv)
        if cst.alpha_ses is not None:
            add("2.10", "sum_{i,j} |d_i d_j U0| <= alpha (1 + lambda)",
                {"alpha": cst.alpha_ses},
                cst.alpha_ses * (1.0 + lam) - hess_sum, pts,
                note="Hessian growth relative to 1 + lambda")
        else:
            req = float(np.max(hess_sum / (1.0 + lam)))
            skip("2.10", "sum_{i,j} |d_i d_j U0| <= alpha (1 + lambda)",
                 "no alpha registered; grid needs alpha >= %.6g" % req)
        if cst.rho is not None:
            gamma("2.11", "sup_i sum_k |d_i V_k|^2 <= (rho lambda - gamma)/N",
                  cst.rho * lam - n * v_deriv, rho=cst.rho)
            # sup_{i,j} sum_k |V_k| |d_i d_j V_k|
            vmag = np.linalg.norm(v_pts, axis=-1)            # (P, d)
            dh_norm = np.linalg.norm(np.moveaxis(dh_pts, -3, -1), axis=-1)
            lhs = np.max(np.sum(vmag[..., None, None] * dh_norm, axis=-3),
                         axis=(-2, -1))
            gamma("2.12",
                  "sup_{i,j} sum_k |V_k||d_i d_j V_k| <= rho lambda - gamma",
                  cst.rho * lam - lhs, rho=cst.rho)
    else:
        for cid, desc in (("2.6", "v^T grad U0 v <= -lambda|v|^2"),
                          ("2.7", "diffusion-derivative bound"),
                          ("2.10", "Hessian growth bound"),
                          ("2.11", "rho-scaled diffusion-derivative bound"),
                          ("2.12", "diffusion second-derivative bound")):
            skip(cid, desc, "no lambda_fn registered")

    for name, fn in problem.extra_conditions.items():
        add(name, "registered extra condition (margin >= 0)", None,
            np.asarray(fn(pts), dtype=float), pts)

    # --- section 3 conditions (global Lipschitz framework) ---------------
    dn = np.linalg.norm(dxy, axis=-1)
    if cst.drift_lip is not None:
        add("3.5a", "|U0(x)-U0(y)| <= c0 |x-y| (global Lipschitz c0)",
            {"c0": cst.drift_lip},
            cst.drift_lip * dn - np.linalg.norm(du, axis=-1), xs)
    else:
        skip("3.5a", "|U0(x)-U0(y)| <= c0 |x-y| (global Lipschitz c0)",
             "no global drift Lipschitz constant registered", where=xs)
    v_x = problem.diffusion(xs)
    v_y = problem.diffusion(ys)
    vdiff = np.sum(np.linalg.norm(v_x - v_y, axis=-1), axis=-1)
    add("3.5b", "sum_k |V_k(x)-V_k(y)| <= c1 |x-y|", {"c1": cst.c1},
        cst.c1 * dn - vdiff, xs)
    add("3.5c", "sum_k |V_k(x)|^2 <= K", {"K": cst.K},
        cst.K - np.sum(np.linalg.norm(v_pts, axis=-1) ** 2, axis=-1), pts)
    add("3.7", "<U0(x), x> <= -b0 |x|^2 + b1", {"b0": cst.b0, "b1": cst.b1},
        -cst.b0 * nrm_pts**2 + cst.b1 - np.sum(u_pts * pts, axis=-1), pts)

    # --- section 4 conditions (one-sided framework) -----------------------
    add("4.3a", "<U0(x)-U0(y), x-y> <= c0 |x-y|^2", {"c0": cst.c0},
        cst.c0 * dn**2 - np.sum(du * dxy, axis=-1), xs)
    add("4.3b", "|U0(x)-U0(y)|^2 <= c2 (1+|x|^2q+|y|^2q)|x-y|^2",
        {"c2": cst.c2, "q": cst.q},
        cst.c2 * (1.0 + np.linalg.norm(xs, axis=-1) ** (2 * cst.q)
                  + np.linalg.norm(ys, axis=-1) ** (2 * cst.q)) * dn**2
        - np.sum(du * du, axis=-1), xs)

    if lam is not None and cst.beta_ses is not None:
        add("4.10", "-beta lambda |v|^2 <= v^T grad U0 v <= -lambda |v|^2",
            {"beta": cst.beta_ses},
            np.minimum(-lam - eig_max, cst.beta_ses * lam + eig_min), pts)
    else:
        skip("4.10", "two-sided Jacobian bound", "no beta registered")
    if lam is not None and cst.alpha_mod is not None:
        add("4.11", "sum_{i,j} |d_i d_j U0| <= alpha lambda",
            {"alpha": cst.alpha_mod}, cst.alpha_mod * lam - hess_sum, pts)
    else:
        req = None
        if lam is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                req = float(np.nanmax(np.where(lam > 0, hess_sum / lam, np.nan)))
        skip("4.11", "sum_{i,j} |d_i d_j U0| <= alpha lambda",
             "no alpha registered" if req is None
             else "no alpha registered; grid needs alpha >= %.6g" % req)
    if lam is not None and cst.beta_ses is not None and cst.rho is not None:
        fro_sq = np.sum(dj_pts**2, axis=(-2, -1))       # (P, d)
        lhs = np.sum(fro_sq, axis=-1)
        add("4.12", "sum_k ||grad V_k||^2 <= rho lambda / (N beta^2)",
            {"rho": cst.rho, "beta": cst.beta_ses},
            cst.rho / (n * cst.beta_ses**2) * lam - lhs, pts)
        if cst.alpha_mod is not None and cst.K > 0:
            k_hat = math.sqrt(cst.K)
            hfro = np.sqrt(np.sum(dh_pts**2, axis=(-3, -2, -1)))   # (P, d)
            lhs = np.sum(hfro + cst.alpha_mod * np.sqrt(fro_sq), axis=-1)
            add("4.13",
                "sum_k (||grad^2 V_k||_F + alpha ||grad V_k||) <= rho lambda/(Khat beta^2)",
                {"rho": cst.rho, "beta": cst.beta_ses, "K_hat": k_hat,
                 "alpha": cst.alpha_mod},
                cst.rho / (k_hat * cst.beta_ses**2) * lam - lhs, pts,
                note="K_hat = sqrt(K) bounds sup_k |V_k|")
        else:
            skip("4.13", "diffusion second-derivative bound for the modified SDE",
                 "needs alpha_mod and K > 0")
    else:
        for cid in ("4.12", "4.13"):
            skip(cid, "modified-SDE diffusion bound",
                 "needs lambda_fn, beta and rho")

    # --- section 5 conditions (tamed framework) ---------------------------
    add("5.1", "<U0(x), x> <= -b0 |x|^(q+2) + b1",
        {"b0": cst.tamed_b0, "b1": cst.tamed_b1, "q": cst.q},
        -cst.tamed_b0 * nrm_pts ** (cst.q + 2) + cst.tamed_b1
        - np.sum(u_pts * pts, axis=-1), pts)
    add("5.7", "|U0|^2 <= c0 |x|^(2q+2) + c1 (1+|x|^2q) (growth split)",
        {"c0": cst.growth_c0, "c1": cst.growth_c1},
        cst.growth_c0 * nrm_pts ** (2 * cst.q + 2)
        + cst.growth_c1 * (1.0 + nrm_pts ** (2 * cst.q))
        - np.sum(u_pts * u_pts, axis=-1), pts)

    report = AssumptionReport(problem=problem.name, radius=radius,
                              samples=samples, grid_points=int(pts.shape[0]),
                              conditions=conditions)
    report.overall_pass = all(c.passed for c in conditions if not c.skipped)
    return report
