"""Deterministic Brownian increment generation.

Increments are a pure function of (master_seed, path_index, fine step index,
component). Paths are grouped into blocks of BLOCK_PATHS and steps into
chunks of CHUNK_STEPS; each (block, chunk) pair owns a counter-based
generator keyed by (master_seed, block << 32 | chunk), so the increments a
path sees never depend on n_paths, the horizon, the coarsening factor, or
how many threads consume them. That is what makes common-random-number
coupling across step sizes work: a run at delta = m * fine_delta sees
exactly the sums of the fine increments of the reference run.

A read draws only the leading rows of a chunk that it needs; the generator
fills rows in order, so those rows equal the same rows of a whole-chunk
draw bit for bit. The engine reads each fine row of a block at most once
per pass, and coupled runs on one lattice share that read.

Coarse increments are always formed by _coarsen (in-order sequential
addition of the m fine rows), never by np.sum, so the result is bitwise
identical no matter the array layout of the caller.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

BLOCK_PATHS = 4096
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
    def coarse_delta(self):
        return self.fine_delta * self.coarsen_factor

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


def _chunk_normals(master_seed, block, chunk, d, rows=CHUNK_STEPS):
    """Leading rows of one (block, chunk) of standard normals, shape
    (rows, BLOCK_PATHS, d); equal to the first rows of the whole chunk."""
    key = np.array([master_seed & _MASK64, ((block << 32) | chunk) & _MASK64],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((rows, BLOCK_PATHS, d))


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
        Array (n_steps, block_size, d) of N(0, fine_delta) increments.
    """
    if block_index < 0 or block_index >= plan.n_blocks:
        raise IndexError("block_index out of range")
    if step_start < 0 or step_start + n_steps > plan.n_fine_steps:
        raise IndexError("fine step range out of range")
    size = plan.block_size(block_index)
    rows = []
    s = step_start
    end = step_start + n_steps
    while s < end:
        chunk = s // CHUNK_STEPS
        lo = s % CHUNK_STEPS
        take = min(CHUNK_STEPS - lo, end - s)
        z = _chunk_normals(plan.master_seed, block_index, chunk, plan.d, lo + take)
        rows.append(z[lo:, :size])
        s += take
    scale = math.sqrt(plan.fine_delta)
    if len(rows) == 1 and size < BLOCK_PATHS:
        # a compact copy of the narrow columns frees the full-width draw
        return scale * rows[0]
    # a concatenation or a full-width draw is this read's own array
    out = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)
    out *= scale
    return out


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
    # a plan that ends at this path reads only the block columns up to it
    upto = replace(plan, n_paths=path_index + 1)
    block = fine_increments_block(upto, path_index // BLOCK_PATHS, 0,
                                  plan.n_fine_steps)
    fine = block[:, path_index % BLOCK_PATHS, :].copy()
    if level == "fine":
        return fine
    return _coarsen(fine, plan.coarsen_factor)
