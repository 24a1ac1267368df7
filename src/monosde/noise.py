"""Deterministic Brownian increment generation.

Increments are a pure function of (master_seed, path_index, fine step index,
component). Two groupings of paths are kept apart:

- A key is KEY_PATHS consecutive paths; path p reads key p // KEY_PATHS.
  Steps are grouped into chunks of CHUNK_STEPS, and each (key, chunk) pair
  owns a counter-based Philox generator keyed by
  (master_seed, key << 32 | chunk) (Salmon et al., "Parallel random numbers:
  as easy as 1, 2, 3", SC'11). Keys are the unit of noise: a read draws
  only the keys its columns need.
- A block is BLOCK_PATHS consecutive paths, a whole number of keys. Blocks
  are the unit of reads and of the engine's reduction.

So the increments a path sees never depend on n_paths, the horizon, the
coarsening factor, or how many workers consume them. That is what makes
common-random-number coupling across step sizes work: a run at
delta = m * fine_delta sees exactly the sums of the fine increments of the
reference run.

A read draws only the leading rows of a chunk that it needs; a generator
fills rows in order, so those rows equal the same rows of a whole-chunk
draw bit for bit. Each key's rows are scaled straight into the read's one
(rows, width, d) array, so no full-width temporary exists. The engine reads
each fine row of a block at most once per pass, and coupled runs on one
lattice share that read.

Coarse increments are always formed by _coarsen (in-order sequential
addition of the m fine rows), never by np.sum, so the result is bitwise
identical no matter the array layout of the caller.
"""

import math
from dataclasses import dataclass

import numpy as np

BLOCK_PATHS = 4096
KEY_PATHS = 256
CHUNK_STEPS = 1024
_MASK64 = (1 << 64) - 1


@dataclass
class NoisePlan:
    """Addressing scheme for one family of Brownian paths.

    Args:
        master_seed: nonnegative integer seed; same seed, same increments.
        n_paths: number of paths addressable through this plan.
        d: number of Brownian components per path.
        fine_delta: the finest time step; all increments live on this lattice.
        horizon: final time T; must be an integer multiple of fine_delta.
        coarsen_factor: m >= 1; the coarse level uses step m * fine_delta.
    """

    master_seed: int
    n_paths: int
    d: int
    fine_delta: float
    horizon: float
    coarsen_factor: int = 1

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.n_paths < 1 or self.d < 1:
            raise ValueError("n_paths and d must be positive")
        if self.fine_delta <= 0 or self.horizon <= 0:
            raise ValueError("fine_delta and horizon must be positive")
        n = _whole_multiple(self.horizon, self.fine_delta)
        if n is None:
            raise ValueError("horizon must be an integer multiple of fine_delta")
        if self.coarsen_factor < 1:
            raise ValueError("coarsen_factor must be >= 1")
        if n % self.coarsen_factor != 0:
            raise ValueError("fine step count %d not divisible by coarsen_factor %d"
                             % (n, self.coarsen_factor))
        self.n_fine_steps = n

    @property
    def n_coarse_steps(self):
        return self.n_fine_steps // self.coarsen_factor

    @property
    def n_blocks(self):
        return (self.n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS

    def block_size(self, block_index):
        return min(BLOCK_PATHS, self.n_paths - block_index * BLOCK_PATHS)


def _whole_multiple(span, step):
    """The k >= 1 with |k * step - span| <= 1e-9 * max(1, span), else None."""
    k = round(span / step)
    if k < 1 or abs(k * step - span) > 1e-9 * max(1.0, span):
        return None
    return k


def _chunk_generator(master_seed, key, chunk):
    """The counter-based generator that owns one (key, chunk)."""
    seed = np.array([master_seed & _MASK64, ((key << 32) | chunk) & _MASK64],
                    dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed))


def _chunk_normals(gen, rows, d):
    """The next rows of one key's chunk from its generator: standard
    normals of shape (rows, KEY_PATHS, d)."""
    return gen.standard_normal((rows, KEY_PATHS, d))


def _key_columns(plan, block_index):
    """(key, lo, hi) for each key that block_index holds: block columns
    lo..hi-1 are the leading hi - lo paths of that key."""
    size = plan.block_size(block_index)
    first = block_index * (BLOCK_PATHS // KEY_PATHS)
    return [(first + k, lo, min(lo + KEY_PATHS, size))
            for k, lo in enumerate(range(0, size, KEY_PATHS))]


def _fill(out, gens, columns, skip, scale):
    """Scale the next out.shape[0] rows of each key's generator, after
    drawing and dropping skip rows, into out's columns of that key."""
    rows, _, d = out.shape
    for gen, (_, lo, hi) in zip(gens, columns):
        if skip:
            _chunk_normals(gen, skip, d)
        z = _chunk_normals(gen, rows, d)
        np.multiply(z[:, :hi - lo], scale, out=out[:, lo:hi])


def _windows(end, rows, start=0):
    """(s, e) windows over fine steps start..end-1: each ends rows steps
    after its start, at the end of its chunk or at end, whichever comes
    first."""
    out = []
    s = start
    while s < end:
        e = min(s + rows, (s // CHUNK_STEPS + 1) * CHUNK_STEPS, end)
        out.append((s, e))
        s = e
    return out


def _fine_rows(plan, block_index, windows):
    """Scaled fine increments of one path block, one (e - s, block_size, d)
    slab per window (s, e) of consecutive _windows.

    Each chunk's keys are drawn from one generator each, slab after slab
    (steps of the chunk before the first window are drawn and dropped), so
    every slab equals the same rows of a whole-chunk draw bit for bit.
    """
    columns = _key_columns(plan, block_index)
    size = plan.block_size(block_index)
    scale = math.sqrt(plan.fine_delta)
    chunk = pos = None
    for s, e in windows:
        if s // CHUNK_STEPS != chunk:
            chunk = s // CHUNK_STEPS
            gens = [_chunk_generator(plan.master_seed, key, chunk)
                    for key, _, _ in columns]
            pos = chunk * CHUNK_STEPS
        out = np.empty((e - s, size, plan.d))
        _fill(out, gens, columns, s - pos, scale)
        pos = e
        yield out


def _coarsen(fine, m):
    """Sum groups of m consecutive leading-axis rows, in index order."""
    if m == 1:
        return fine
    out = fine[0::m].copy()
    for j in range(1, m):
        out += fine[j::m]
    return out


def fine_increments_block(plan, block_index, step_start, n_steps):
    """Scaled fine increments for one path block.

    Args:
        plan: the NoisePlan.
        block_index: which path block (0 .. n_blocks-1).
        step_start: first fine step index.
        n_steps: number of fine steps to return.

    Returns:
        Array (n_steps, block_size, d) of N(0, fine_delta) increments, read
        through _fine_rows one chunk at a time.
    """
    if block_index < 0 or block_index >= plan.n_blocks:
        raise IndexError("block_index out of range")
    if step_start < 0 or step_start + n_steps > plan.n_fine_steps:
        raise IndexError("fine step range out of range")
    slabs = list(_fine_rows(plan, block_index,
                            _windows(step_start + n_steps, CHUNK_STEPS,
                                     start=step_start)))
    if not slabs:
        return np.empty((0, plan.block_size(block_index), plan.d))
    return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)


def increments_for(plan, path_index, level="fine"):
    """All increments of one path at the requested level.

    Coarse increments are the in-order sums of coarsen_factor consecutive
    fine increments, bitwise identical to what the simulation engine
    consumes for that path.

    Args:
        plan: the NoisePlan.
        path_index: 0-based path index, < n_paths.
        level: "fine" or "coarse".

    Returns:
        Array (n_steps, d) of the path's increments at that level.
    """
    if level not in ("fine", "coarse"):
        raise ValueError('level must be "fine" or "coarse"')
    if path_index < 0 or path_index >= plan.n_paths:
        raise IndexError("path_index out of range")
    key, col = divmod(path_index, KEY_PATHS)
    scale = math.sqrt(plan.fine_delta)
    n = plan.n_fine_steps
    fine = np.empty((n, plan.d))
    for s in range(0, n, CHUNK_STEPS):
        gen = _chunk_generator(plan.master_seed, key, s // CHUNK_STEPS)
        z = _chunk_normals(gen, min(CHUNK_STEPS, n - s), plan.d)
        np.multiply(z[:, col], scale, out=fine[s:s + CHUNK_STEPS])
    if level == "fine":
        return fine
    return _coarsen(fine, plan.coarsen_factor)
