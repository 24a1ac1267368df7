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
writes a new state back in place, one column at a time, only for the paths
that are still active and survive it. A stepper acts row by row, so an
active path gets the bits it would get alone; a frozen row is stepped from
its last good state and the result is dropped.

Blow-up policy: a path whose next state has a non-finite norm or leaves the
ball of radius blowup_threshold is frozen at its last good state and
excluded from every later statistic (it still counts in n_paths and in
n_blowups). The norm of N >= 2 components overflows for finite states above
about 1.3e154, so such a state freezes even under an infinite threshold. If
no path survives to the end, AllPathsBlewUp is raised with the partial
result attached.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .implicit_map import _norm
from .noise import CHUNK_STEPS, NoisePlan, _coarsen, fine_increments_block
from .schemes import make_stepper


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
    results = _simulate(runs, spec.threads)
    return results[0] if coupled is None else results


def _simulate(runs, threads):
    """One pass of validated runs over their shared fine lattice; returns
    one EnsembleResult per run, in order."""
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
    if threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_block, blocks))
    else:
        partials = [run_block(b) for b in blocks]

    results = [_reduce(run, [part[i] for part in partials if part[i] is not None])
               for i, run in enumerate(runs)]
    for result in results:
        if result.n_active[-1] == 0:
            raise AllPathsBlewUp(result)
    return results


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
    """Rows of y whose norm is finite and at most threshold."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _norm(y)
    return np.isfinite(r) & (r <= threshold)


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
                for j in range(x.shape[1]):
                    np.copyto(x[:, j], y[:, j], where=ok)
                active &= ok
            self.step_idx += 1
            if self.ptr < n_out and self.step_idx == rec_steps[self.ptr]:
                self.record(self.ptr)
                self.ptr += 1

    def partial(self):
        return (self.counts, self.obs_sum, self.obs_sq, self.mom_sum,
                self.mom_sq, int(self.size - self.active.sum()))

