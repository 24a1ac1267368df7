"""Ensemble simulation with deterministic parallel reduction.

Paths are partitioned into the same fixed blocks the noise generator uses.
Each block accumulates its own partial sums, and partials are always combined
in ascending block order, so results are bitwise identical for any worker
count.

Blocks of a pass are mapped over W = min(threads, blocks, usable cores)
workers: worker w runs blocks w, w + W, ... in ascending order. Worker 0 is
the calling process; the others are forked child processes, which inherit
the validated runs (closures and lambdas included, nothing of them is
pickled) and, when done, send back only their blocks' partials and their
first error, if any, over a pipe. A pass raises the error of the
lowest-numbered failing block, which is the error a single worker raises.
With W = 1 nothing is forked for the blocks.

A block walks its fine rows once, one window at a time, so each fine row is
drawn at most once per pass. Runs coupled on the same fine lattice (a
reference and its coarse schemes) share that pass: every run takes the
window's rows at its own width and coarsening factor, and gets the result it
would get alone.

When a pass has fewer blocks than min(threads, usable cores), a core would
sit idle, so each block is fed: a forked producer process draws the block's
rows through noise._fine_rows, _FEED_ROWS rows per window, and writes each
window into the next of _FEED_SLOTS slots of a ring in an anonymous shared
mmap made before the fork. One-byte tokens on two pipes say that a slot is
ready and that it is free again. The calling process draws window 0 itself,
through noise.fine_increments_block, while the child starts. The stepper
reads a slot in place and holds no view of it beyond _BlockRun.advance, so a
slot is handed back when the next window is taken. The windows, and so the
bits, are those of the producer's generator, which equal the in-process
draws; a fed pass gives every result of an unfed one. Once no run wants
noise the consumer stops reading. A producer that dies raises RuntimeError
with its exit code; an error of the consumer stops and reaps the producer
and then propagates unchanged.

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

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .implicit_map import _norm
from .noise import (CHUNK_STEPS, NoisePlan, _coarsen, _fine_rows,
                    _whole_multiple, _windows, fine_increments_block)
from .schemes import make_stepper

_FEED_ROWS = 64     # fine rows per window of a fed block
_FEED_SLOTS = 4     # windows in the ring between a producer and its block


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
    integer multiple of the scheme step. x0 is a scalar or a length-N vector
    shared by all paths. Each moment order p is recorded as the mean of the
    observable |x|^p. threads caps the worker processes of a pass at the
    usable cores; it never changes a result.
    """

    x0: object
    n_paths: int
    horizon: float
    seed: int = 0
    record_dt: Optional[float] = None
    threads: int = 1
    blowup_threshold: float = 1e12
    moment_orders: tuple = (1, 2, 4)


@dataclass
class Series:
    """Mean of one recorded quantity over the surviving paths."""

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
    moments: dict = field(default_factory=dict)       # order p -> Series of |x|^p
    observables: dict = field(default_factory=dict)   # name -> Series


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
        if plan.master_seed != spec.seed:
            raise ValueError("plan.master_seed %d != spec.seed %d"
                             % (plan.master_seed, spec.seed))
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
    k_rec = (1 if spec.record_dt is None
             else _whole_multiple(spec.record_dt, delta))
    if k_rec is None:
        raise ValueError("record_dt must be a positive integer multiple of delta")
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
        spec: EnsembleSpec; its threads cap the worker processes of the
            whole pass.
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
    results = _simulate(runs)
    return results[0] if coupled is None else results


def _simulate(runs):
    """One pass of validated runs over their shared fine lattice; returns
    one EnsembleResult per run, in order. The lead run's spec.threads caps
    the pass's worker processes."""
    lead = runs[0].plan
    for run in runs[1:]:
        for name in ("master_seed", "fine_delta", "n_fine_steps"):
            if getattr(run.plan, name) != getattr(lead, name):
                raise ValueError("coupled run has plan.%s %r, expected %r"
                                 % (name, getattr(run.plan, name),
                                    getattr(lead, name)))

    partials = _map_blocks(runs, _n_blocks(runs), runs[0].spec.threads)
    results = [_reduce(run, [part[i] for part in partials if part[i] is not None])
               for i, run in enumerate(runs)]
    for result in results:
        if result.n_active[-1] == 0:
            raise AllPathsBlewUp(result)
    return results


def _n_blocks(runs):
    return max(run.plan.n_blocks for run in runs)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_blocks(runs, n_blocks, threads):
    """Every block's _run_block partials, in block order, from
    min(threads, n_blocks, usable cores) workers; raises the error of the
    lowest-numbered failing block."""
    workers = min(threads, n_blocks, _usable_cores())
    children = []
    try:
        if workers > 1:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            for w in range(1, workers):
                recv, send = ctx.Pipe(duplex=False)
                # not a daemon: a worker may fork a noise producer
                proc = ctx.Process(target=_block_worker,
                                   args=(runs, range(w, n_blocks, workers), send))
                proc.start()
                send.close()
                children.append((proc, recv))
        outcomes = [_run_blocks(runs, range(0, n_blocks, workers))]
        for proc, recv in children:
            try:
                outcomes.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError("a block worker exited with code %s"
                                   % proc.exitcode) from None
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()
    partials = [None] * n_blocks
    errors = []
    for w, (parts, error) in enumerate(outcomes):
        for b, part in zip(range(w, n_blocks, workers), parts):
            partials[b] = part
        if error is not None:
            errors.append(error)
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return partials


def _run_blocks(runs, blocks):
    """Run blocks in order until one fails; returns their partials and
    (block, error) of the failure, or None."""
    parts = []
    for b in blocks:
        try:
            parts.append(_run_block(runs, b))
        except Exception as exc:
            return parts, (b, exc)
    return parts, None


def _block_worker(runs, blocks, conn):
    """Forked worker body: one message with the outcome of its blocks, sent
    once they are all done, so a send never holds up the next block."""
    conn.send(_run_blocks(runs, blocks))
    conn.close()


def _reduce(run, partials):
    """Fixed-order reduction in ascending block index: counts and sums add
    elementwise; the centred sums of squares merge pairwise (Chan, Golub and
    LeVeque, Am. Stat. 37, 1983), M2 = M2a + M2b + d^2 na nb / n with d the
    difference of the two means, skipping blocks with no paths at a time."""
    n_out = run.rec_steps.size
    counts = np.zeros(n_out, dtype=np.int64)
    sums = np.zeros((n_out, len(run.observables) + len(run.spec.moment_orders)))
    m2 = np.zeros_like(sums)
    blowups = 0
    for part_counts, part_sums, part_m2, part_blowups in partials:
        na = counts[:, None].astype(float)
        nb = part_counts[:, None].astype(float)
        both = (na > 0) & (nb > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            d = part_sums / nb - sums / na
            corr = np.where(both, d * d * (na * nb / (na + nb)), 0.0)
        m2 += part_m2
        m2 += corr
        counts += part_counts
        sums += part_sums
        blowups += part_blowups

    delta = run.scheme.delta
    times = run.rec_steps * delta
    series = [Series(times, *_mean_stderr(sums[:, j], m2[:, j], counts))
              for j in range(sums.shape[1])]
    k = len(run.observables)
    return EnsembleResult(
        times=times, n_paths=run.spec.n_paths, n_active=counts,
        n_blowups=int(blowups), scheme_kind=run.scheme.kind, delta=delta,
        seed=run.plan.master_seed, blowup_threshold=run.spec.blowup_threshold,
        moments=dict(zip(run.spec.moment_orders, series[k:])),
        observables={obs.name: s for obs, s in zip(run.observables, series)})


def _mean_stderr(s, m2, counts):
    counts = counts.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, s / np.maximum(counts, 1.0), np.nan)
        var = m2 / np.maximum(counts - 1.0, 1.0)
        se = np.where(counts > 1, np.sqrt(var / np.maximum(counts, 1.0)), np.nan)
    return mean, se


def _survivors(y, threshold):
    """Rows of y whose norm is finite and at most threshold."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _norm(y)
    return np.isfinite(r) & (r <= threshold)


def _run_block(runs, b):
    """Step every run that has path block b through one pass over its fine
    rows, window by window; returns each run's partial sums (None where the
    run has no block b). The block is fed by a producer process when the
    pass has fewer blocks than min(threads, usable cores)."""
    states = [_BlockRun(run, b) if b < run.plan.n_blocks else None
              for run in runs]
    live = [st for st in states if st is not None]
    widest = max(live, key=lambda st: st.size).run.plan
    end = max(st.fine_end for st in live)
    fed = _n_blocks(runs) < min(runs[0].spec.threads, _usable_cores())
    windows = _windows(end, _FEED_ROWS if fed else CHUNK_STEPS)
    feed = None
    try:
        if fed and len(windows) > 1:
            feed = _Feed(widest, b, windows[1:])
        for s, e in windows:
            fine = None
            if any(st.wants_noise() for st in live):
                fine = (feed.take(e - s) if feed is not None and s
                        else fine_increments_block(widest, b, s, e - s))
            for st in live:
                st.advance(fine, e)
    finally:
        if feed is not None:
            feed.close()
    return [None if st is None else st.partial() for st in states]


class _Feed:
    """A forked producer of block b's fine rows for consecutive windows of
    at most _FEED_ROWS steps, handed over through a ring of _FEED_SLOTS
    shared slots."""

    def __init__(self, plan, b, windows):
        import mmap
        import multiprocessing
        shape = (_FEED_ROWS, plan.block_size(b), plan.d)
        size = math.prod(shape)
        ring = mmap.mmap(-1, _FEED_SLOTS * size * 8)
        self.slots = [np.frombuffer(ring, float, size, k * size * 8).reshape(shape)
                      for k in range(_FEED_SLOTS)]
        self.n_windows = len(windows)
        self.taken = 0
        self.ready, ready_w = os.pipe()
        free_r, self.free = os.pipe()
        self.proc = multiprocessing.get_context("fork").Process(
            target=_produce, daemon=True,
            args=(plan, b, windows, self.slots, ready_w, free_r,
                  (self.ready, self.free)))
        try:
            self.proc.start()
        except BaseException:
            os.close(self.ready)
            os.close(self.free)
            raise
        finally:
            os.close(ready_w)
            os.close(free_r)

    def take(self, n):
        """The next window's n rows, a view of its slot; hands the previous
        window's slot back when the producer will need it again."""
        if 0 < self.taken <= self.n_windows - _FEED_SLOTS:
            try:
                os.write(self.free, b"f")
            except BrokenPipeError:
                pass    # the producer is gone; the ready pipe ends in EOF
        if not os.read(self.ready, 1):
            self.proc.join()
            raise RuntimeError("the noise producer exited with code %s"
                               % self.proc.exitcode)
        slot = self.slots[self.taken % _FEED_SLOTS]
        self.taken += 1
        return slot[:n]

    def close(self):
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        os.close(self.ready)
        os.close(self.free)


def _produce(plan, b, windows, slots, ready, free, parent_ends):
    """Producer body: draws the block's rows window by window and writes
    window k into slot k mod _FEED_SLOTS once the consumer has freed it;
    stops early when the consumer closes the free pipe."""
    for fd in parent_ends:
        os.close(fd)
    for k, rows in enumerate(_fine_rows(plan, b, windows)):
        if k >= _FEED_SLOTS and not os.read(free, 1):
            return
        slots[k % _FEED_SLOTS][:rows.shape[0]] = rows
        os.write(ready, b"r")


class _BlockRun:
    """One run's paths in one block: state, survivors and partial sums.

    The recorded columns are the observables followed by |x|^p for each
    moment order p; each gets a sum and a centred sum of squares M2 (taken
    about the block's own mean, in a second pass) per record time.

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
        self.columns = [obs.eval for obs in run.observables]
        self.columns += [lambda x, p=p: _norm(x) ** p
                         for p in run.spec.moment_orders]
        self.x = np.broadcast_to(run.x0, (self.size, run.x0.size)).astype(float).copy()
        self.active = np.ones(self.size, dtype=bool)

        n_out = run.rec_steps.size
        self.counts = np.zeros(n_out, dtype=np.int64)
        self.sums = np.zeros((n_out, len(self.columns)))
        self.m2 = np.zeros_like(self.sums)

        self.step_idx = 0
        self.ptr = 0
        self.leftover = None
        if run.rec_steps[0] == 0:
            self.record(0)
            self.ptr = 1

    def record(self, j):
        xa = self.x[self.active]
        n = xa.shape[0]
        self.counts[j] = n
        if n == 0:
            return
        for i, column in enumerate(self.columns):
            g = column(xa)
            s = np.sum(g)
            self.sums[j, i] = s
            dev = g - s / n
            self.m2[j, i] = np.sum(dev * dev)

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
        return (self.counts, self.sums, self.m2,
                int(self.size - self.active.sum()))

