"""Ensemble simulation with deterministic parallel reduction.

Paths are partitioned into the same fixed blocks the noise generator uses.
Each block accumulates its own partial sums; blocks may run on a thread pool,
but partials are always combined in ascending block order, so results are
bitwise identical for any thread count.

A block walks its fine rows once, one chunk-aligned window at a time, so each
fine row is drawn at most once per pass. Runs coupled on the same fine
lattice (a reference and its coarse schemes) share that pass: every run
takes the window's rows at its own width and coarsening factor, and gets the
result it would get alone.

Each step takes a block's whole state array, frozen rows included, and
writes a new state back in place only for the paths that are still active
and survive it. A stepper acts row by row, so an active path gets the bits
it would get alone; a frozen row is stepped from its last good state and
the result is dropped.

Blow-up policy: a path whose next state is non-finite or leaves the ball of
radius blowup_threshold is frozen at its last good state and excluded from
every later statistic (it still counts in n_paths and in n_blowups). If no
path survives to the end, AllPathsBlewUp is raised with the partial result
attached.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .implicit_map import _norm
from .noise import CHUNK_STEPS, NoisePlan, _coarsen, fine_increments_block
from .schemes import epsilon_delta, make_stepper, select_alpha


class AllPathsBlewUp(RuntimeError):
    """Every path hit the blow-up threshold; .result holds the partial data."""

    def __init__(self, result):
        self.result = result
        super().__init__("all %d paths blew up (threshold %g)"
                         % (result.n_paths, result.blowup_threshold))


@dataclass
class EnsembleSpec:
    """What to simulate and what to record.

    record_dt None means record at every coarse step; otherwise it must be an
    integer multiple of the scheme step. record_times, when given, overrides
    record_dt with an explicit sorted list of times in [0, horizon], each
    within 1e-9 of a multiple of the scheme step. x0 is a scalar or a
    length-N vector shared by all paths.
    """

    x0: object
    n_paths: int
    horizon: float
    seed: int = 0
    record_dt: Optional[float] = None
    record_times: Optional[list] = None
    threads: int = 1
    blowup_threshold: float = 1e12
    moment_orders: tuple = (1, 2, 4)


@dataclass
class MomentSeries:
    order: float
    times: np.ndarray
    value: np.ndarray   # E[|x_t|^order] over surviving paths
    stderr: np.ndarray


@dataclass
class ObservableSeries:
    name: str
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


@dataclass
class EnsembleResult:
    times: np.ndarray
    n_paths: int
    n_active: np.ndarray      # surviving paths at each record time
    n_blowups: int
    scheme_kind: str
    delta: float
    seed: int
    blowup_threshold: float
    moments: dict = field(default_factory=dict)       # order -> MomentSeries
    observables: dict = field(default_factory=dict)   # name -> ObservableSeries


def _steps_per_record(delta, record_dt):
    if record_dt is None:
        return 1
    k = round(record_dt / delta)
    if k < 1 or abs(k * delta - record_dt) > 1e-9 * max(1.0, record_dt):
        raise ValueError("record_dt must be a positive integer multiple of delta")
    return k


def _snap_record_steps(record_times, delta, n_coarse):
    ts = [float(t) for t in record_times]
    if not ts:
        raise ValueError("record_times must be nonempty")
    if ts != sorted(ts):
        raise ValueError("record_times must be sorted ascending")
    steps = []
    for t in ts:
        k = round(t / delta)
        if abs(k * delta - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("record time %g is not a multiple of delta %g"
                             % (t, delta))
        if k < 0 or k > n_coarse:
            raise ValueError("record time %g lies outside [0, horizon]" % t)
        steps.append(int(k))
    if len(set(steps)) != len(steps):
        raise ValueError("record_times contains duplicates")
    return np.asarray(steps, dtype=np.int64)


@dataclass
class _Run:
    """One validated scheme run of a pass."""

    scheme: object
    spec: EnsembleSpec
    observables: list
    plan: NoisePlan
    stepper: object
    rec_steps: np.ndarray
    x0: np.ndarray


def _prepare_run(problem, scheme, spec, observables=(), plan=None):
    delta = scheme.delta
    if plan is None:
        plan = NoisePlan(spec.seed, spec.n_paths, problem.dim_noise,
                         fine_delta=delta, horizon=spec.horizon)
    else:
        if abs(plan.coarse_delta - delta) > 1e-12 * max(1.0, delta):
            raise ValueError("plan.coarse_delta %g != scheme delta %g"
                             % (plan.coarse_delta, delta))
        if plan.n_paths != spec.n_paths:
            raise ValueError("plan.n_paths != spec.n_paths")
        if abs(plan.horizon - spec.horizon) > 1e-9 * max(1.0, spec.horizon):
            raise ValueError("plan.horizon != spec.horizon")
        if plan.d != problem.dim_noise:
            raise ValueError("plan.d != problem.dim_noise")

    n = problem.dim_state
    x0 = np.atleast_1d(np.asarray(spec.x0, dtype=float))
    if x0.shape != (n,):
        raise ValueError("x0 must be a scalar or length-%d vector" % n)
    n_coarse = plan.n_coarse_steps
    if spec.record_times is not None:
        rec_steps = _snap_record_steps(spec.record_times, delta, n_coarse)
    else:
        k_rec = _steps_per_record(delta, spec.record_dt)
        if n_coarse % k_rec != 0:
            raise ValueError("horizon is not a whole number of record intervals")
        rec_steps = np.arange(0, n_coarse + 1, k_rec, dtype=np.int64)
    return _Run(scheme, spec, list(observables), plan,
                make_stepper(problem, scheme), rec_steps, x0)


def simulate_ensemble(problem, scheme, spec, observables=(), plan=None,
                      coupled=None):
    """Run one scheme over an ensemble of Brownian paths.

    Args:
        problem: SdeProblem.
        scheme: SchemeConfig; scheme.delta is the stepping resolution.
        spec: EnsembleSpec; its threads cap the pool of the whole pass.
        observables: iterable of Observable; each gets a mean series.
        plan: optional NoisePlan for common-random-number coupling. Its
            coarse_delta must equal scheme.delta and its horizon/paths must
            cover the spec. Default: a fresh plan on the scheme's own lattice.
        coupled: optional list of further (scheme, spec, observables, plan)
            runs driven by the same pass over the noise. Every run's plan
            (None means the default plan) must share this plan's seed,
            fine_delta and fine step count. Each run gets exactly the result
            it would get alone.

    Returns:
        EnsembleResult with moment and observable series over record times;
        with coupled, a list of them, this run's first and then the coupled
        runs in order.

    Raises:
        AllPathsBlewUp: when no surviving path remains at the final time
            (with coupled, for the first run in order where that happens).
        ValueError: on an invalid spec or plan, or a coupled run on another
            fine lattice.
    """
    runs = [_prepare_run(problem, scheme, spec, observables, plan)]
    runs += [_prepare_run(problem, *args) for args in (coupled or ())]
    lead = runs[0].plan
    for run in runs[1:]:
        for name in ("master_seed", "fine_delta", "n_fine_steps"):
            if getattr(run.plan, name) != getattr(lead, name):
                raise ValueError("coupled run has plan.%s %r, expected %r"
                                 % (name, getattr(run.plan, name),
                                    getattr(lead, name)))

    n_blocks = max(run.plan.n_blocks for run in runs)

    def run_block(b):
        return _run_block(runs, b)

    blocks = range(n_blocks)
    if spec.threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            partials = list(pool.map(run_block, blocks))
    else:
        partials = [run_block(b) for b in blocks]

    results = [_reduce(run, [part[i] for part in partials if part[i] is not None])
               for i, run in enumerate(runs)]
    for result in results:
        if result.n_active[-1] == 0:
            raise AllPathsBlewUp(result)
    return results[0] if coupled is None else results


def _reduce(run, partials):
    """Fixed-order reduction: ascending block index, elementwise adds."""
    n_out = run.rec_steps.size
    orders = tuple(run.spec.moment_orders)
    counts = np.zeros(n_out, dtype=np.int64)
    obs_sum = np.zeros((n_out, len(run.observables)))
    obs_sq = np.zeros_like(obs_sum)
    mom_sum = np.zeros((n_out, len(orders)))
    mom_sq = np.zeros_like(mom_sum)
    blowups = 0
    for part in partials:
        counts += part[0]
        obs_sum += part[1]
        obs_sq += part[2]
        mom_sum += part[3]
        mom_sq += part[4]
        blowups += part[5]

    delta = run.scheme.delta
    times = run.rec_steps * delta
    result = EnsembleResult(
        times=times, n_paths=run.spec.n_paths, n_active=counts,
        n_blowups=int(blowups), scheme_kind=run.scheme.kind, delta=delta,
        seed=run.plan.master_seed, blowup_threshold=run.spec.blowup_threshold)
    for j, p in enumerate(orders):
        mean, se = _mean_stderr(mom_sum[:, j], mom_sq[:, j], counts)
        result.moments[p] = MomentSeries(p, times, mean, se)
    for j, obs in enumerate(run.observables):
        mean, se = _mean_stderr(obs_sum[:, j], obs_sq[:, j], counts)
        result.observables[obs.name] = ObservableSeries(obs.name, times, mean, se)
    return result


def _mean_stderr(s, sq, counts):
    counts = counts.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, s / np.maximum(counts, 1.0), np.nan)
        var = (sq - counts * mean**2) / np.maximum(counts - 1.0, 1.0)
        var = np.maximum(var, 0.0)
        se = np.where(counts > 1, np.sqrt(var / np.maximum(counts, 1.0)), np.nan)
    return mean, se


def _survivors(y, threshold):
    """Rows of y that are finite and lie in the blow-up ball."""
    finite = np.all(np.isfinite(y), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return finite & (_norm(np.where(finite[..., None], y, 0.0)) <= threshold)


def _run_block(runs, b):
    """Step every run that has path block b through one pass over its fine
    rows, chunk by chunk; returns each run's partial sums (None where the
    run has no block b)."""
    states = [_BlockRun(run, b) if b < run.plan.n_blocks else None
              for run in runs]
    live = [st for st in states if st is not None]
    widest = max(live, key=lambda st: st.size).run.plan
    end = max(st.fine_end for st in live)
    s = 0
    while s < end:
        e = min((s // CHUNK_STEPS + 1) * CHUNK_STEPS, end)
        fine = None
        if any(st.wants_noise() for st in live):
            fine = fine_increments_block(widest, b, s, e - s)
        for st in live:
            st.advance(fine, e)
        s = e
    return [None if st is None else st.partial() for st in states]


class _BlockRun:
    """One run's paths in one block: state, survivors and partial sums.

    Fine rows arrive in windows that need not hold whole coarse steps; the
    fewer than m rows of an unfinished step carry over to the next window,
    so every coarse increment sums the same m rows in the same order.
    """

    def __init__(self, run, b):
        self.run = run
        self.size = run.plan.block_size(b)
        self.m = run.plan.coarsen_factor
        self.n_coarse = int(run.rec_steps[-1])
        self.fine_end = self.n_coarse * self.m
        self.orders = tuple(run.spec.moment_orders)
        self.x = np.broadcast_to(run.x0, (self.size, run.x0.size)).astype(float).copy()
        self.active = np.ones(self.size, dtype=bool)

        n_out = run.rec_steps.size
        self.counts = np.zeros(n_out, dtype=np.int64)
        self.obs_sum = np.zeros((n_out, len(run.observables)))
        self.obs_sq = np.zeros_like(self.obs_sum)
        self.mom_sum = np.zeros((n_out, len(self.orders)))
        self.mom_sq = np.zeros_like(self.mom_sum)

        self.step_idx = 0
        self.ptr = 0
        self.leftover = None
        if run.rec_steps[0] == 0:
            self.record(0)
            self.ptr = 1

    def record(self, j):
        xa = self.x[self.active]
        self.counts[j] = xa.shape[0]
        if xa.shape[0] == 0:
            return
        for i, obs in enumerate(self.run.observables):
            g = obs.eval(xa)
            self.obs_sum[j, i] = np.sum(g)
            self.obs_sq[j, i] = np.sum(g * g)
        nrm = _norm(xa)
        for i, p in enumerate(self.orders):
            v = nrm**p
            self.mom_sum[j, i] = np.sum(v)
            self.mom_sq[j, i] = np.sum(v * v)

    def wants_noise(self):
        return self.step_idx < self.n_coarse and bool(self.active.any())

    def advance(self, fine, e):
        """Take the coarse steps completed by the fine rows before index e;
        fine holds the window's rows, or is None when no run needs them."""
        m = self.m
        take = min(e, self.fine_end) // m - self.step_idx
        win = None
        if fine is not None and self.wants_noise():
            rows = fine[:, :self.size]
            if self.leftover is not None:
                rows = np.concatenate([self.leftover, rows])
            used = take * m
            win = _coarsen(rows[:used], m)
            self.leftover = rows[used:].copy() if used < rows.shape[0] else None
        x, active, stepper = self.x, self.active, self.run.stepper
        threshold = self.run.spec.blowup_threshold
        rec_steps = self.run.rec_steps
        n_out = rec_steps.size
        for i in range(take):
            if win is not None:
                y = stepper(x, win[i])
                ok = active & _survivors(y, threshold)
                np.copyto(x, y, where=ok[:, None])
                active &= ok
            self.step_idx += 1
            if self.ptr < n_out and self.step_idx == rec_steps[self.ptr]:
                self.record(self.ptr)
                self.ptr += 1

    def partial(self):
        return (self.counts, self.obs_sum, self.obs_sq, self.mom_sum,
                self.mom_sq, int(self.size - self.active.sum()))


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
    if scheme.kind == "tte":
        alpha = scheme.alpha
        if alpha is None:
            alpha, _ = select_alpha(cst)
        eps = epsilon_delta(cst, alpha, delta)
    else:
        eps = 1.0
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


def moment_recursion_audit(problem, scheme, spec, power=2):
    """Monte Carlo audit of the time-uniform second-moment recursion.

    Runs the ensemble recording every step, then checks two things: that
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
        spec: EnsembleSpec; record_dt/record_times are ignored (the audit
            records every step).
        power: moment order to audit (the theory covers 2).

    Returns:
        dict with empirical_sup, fitted_C, first_step_ratio,
        contraction_bound, contraction_ok, n_blowups, eps, drift_grid,
        and "pass" (contraction and grid both fine, no blow-ups).
    """
    if scheme.kind != "tte":
        raise ValueError("moment audit covers the tte scheme, got %r"
                         % scheme.kind)
    cst = problem.constants
    alpha = scheme.alpha
    if alpha is None:
        alpha, _ = select_alpha(cst)
    delta = scheme.delta
    eps = epsilon_delta(cst, alpha, delta)

    run_spec = EnsembleSpec(
        x0=spec.x0, n_paths=spec.n_paths, horizon=spec.horizon,
        seed=spec.seed, record_dt=None, threads=spec.threads,
        blowup_threshold=spec.blowup_threshold, moment_orders=(power,))
    result = simulate_ensemble(problem, scheme, run_spec)
    series = result.moments[power]
    x0 = np.atleast_1d(np.asarray(spec.x0, dtype=float))
    base = float(np.linalg.norm(x0)) ** power
    empirical_sup = float(np.max(series.value))
    fitted_c = max(0.0, empirical_sup - base)

    first_ratio = None
    bound = None
    contraction_ok = None
    if power == 2 and np.linalg.norm(x0) > 1.0 and series.value.size > 1:
        first_ratio = float(series.value[1] / base)
        allowance = (delta * problem.noise_scale**2 * cst.K
                     + 2.0 * delta * cst.tamed_b1
                     + 2.0 * delta**2 * cst.growth_c1) / base
        se = series.stderr[1]
        se = 0.0 if not np.isfinite(se) else float(se)
        bound = eps + allowance + 3.0 * se / base
        contraction_ok = bool(first_ratio <= bound)

    grid = drift_step_audit(problem, scheme)
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
