"""Tests for the counter-based Brownian increment generator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import monosde as m
from monosde.noise import (CHUNK_STEPS, _fine_rows, _whole_multiple,
                           _windows, fine_increments_block)


def _stack_paths(plan, n, level="fine"):
    return np.stack([m.increments_for(plan, i, level=level)
                     for i in range(n)])


def test_shapes_and_scaling():
    plan = m.NoisePlan(0, 16, 2, fine_delta=0.01, horizon=1.0)
    path = m.increments_for(plan, 0)
    assert path.shape == (100, 2)


def test_increments_are_standard_normal_after_rescaling():
    plan = m.NoisePlan(12, 64, 1, fine_delta=0.004, horizon=8.0)
    z = _stack_paths(plan, 50).ravel() / np.sqrt(0.004)
    assert z.size == 100000
    stat, pvalue = stats.kstest(z, "norm")
    assert pvalue > 0.01
    np.testing.assert_allclose(np.var(z), 1.0, rtol=0.02)


def test_no_serial_correlation():
    plan = m.NoisePlan(5, 8, 1, fine_delta=0.001, horizon=10.0)
    z = _stack_paths(plan, 8)[:, :, 0]
    n = z.shape[1] - 1
    for row in z:
        r = np.corrcoef(row[:-1], row[1:])[0, 1]
        assert abs(r) < 3.0 / np.sqrt(n)


def test_paths_are_independent():
    plan = m.NoisePlan(5, 32, 1, fine_delta=0.001, horizon=4.0)
    z = _stack_paths(plan, 8)[:, :, 0]
    r = np.corrcoef(z[0], z[5])[0, 1]
    assert abs(r) < 3.0 / np.sqrt(z.shape[1])


def test_coarse_level_is_strided_sum_of_fine():
    plan = m.NoisePlan(0, 8, 1, fine_delta=0.01, horizon=0.5, coarsen_factor=5)
    fine = m.increments_for(plan, 3)
    coarse = m.increments_for(plan, 3, level="coarse")
    assert coarse.shape == (10, 1)
    np.testing.assert_array_equal(
        fine.reshape(-1, 5, 1).sum(axis=1), coarse)


def test_same_path_regardless_of_ensemble_size():
    """Path increments depend only on (seed, path index), not n_paths."""
    small = m.NoisePlan(9, 8, 1, fine_delta=0.01, horizon=1.0)
    large = m.NoisePlan(9, 5000, 1, fine_delta=0.01, horizon=1.0)
    np.testing.assert_array_equal(m.increments_for(small, 7),
                                  m.increments_for(large, 7))


def test_same_path_regardless_of_horizon():
    short = m.NoisePlan(9, 8, 1, fine_delta=0.01, horizon=1.0)
    longp = m.NoisePlan(9, 8, 1, fine_delta=0.01, horizon=3.0)
    a = m.increments_for(short, 2)
    b = m.increments_for(longp, 2)
    np.testing.assert_array_equal(a, b[: a.shape[0]])


def test_fine_level_unaffected_by_coarsen_factor():
    plain = m.NoisePlan(9, 8, 1, fine_delta=0.01, horizon=1.0)
    coarse = m.NoisePlan(9, 8, 1, fine_delta=0.01, horizon=1.0, coarsen_factor=10)
    np.testing.assert_array_equal(m.increments_for(plain, 4),
                                  m.increments_for(coarse, 4))


def test_deterministic_reconstruction():
    plan1 = m.NoisePlan(123, 16, 2, fine_delta=0.02, horizon=2.0)
    plan2 = m.NoisePlan(123, 16, 2, fine_delta=0.02, horizon=2.0)
    np.testing.assert_array_equal(m.increments_for(plan1, 11),
                                  m.increments_for(plan2, 11))


def test_different_seeds_differ():
    a = m.increments_for(m.NoisePlan(0, 4, 1, fine_delta=0.01, horizon=1.0), 0)
    b = m.increments_for(m.NoisePlan(1, 4, 1, fine_delta=0.01, horizon=1.0), 0)
    assert np.any(a != b)


def test_path_index_out_of_range():
    plan = m.NoisePlan(0, 4, 1, fine_delta=0.01, horizon=1.0)
    with pytest.raises(IndexError):
        m.increments_for(plan, 4)


def test_paths_across_block_boundary_are_deterministic():
    # block size is 4096 paths; indices either side must both reproduce
    plan = m.NoisePlan(0, 5000, 1, fine_delta=0.01, horizon=0.1)
    for idx in (4095, 4096):
        a = m.increments_for(plan, idx)
        b = m.increments_for(plan, idx)
        np.testing.assert_array_equal(a, b)


@given(step=st.floats(1e-4, 1.0), k=st.integers(1, 10**5),
       frac=st.floats(0.0, 0.4999))
def test_whole_multiple(step, k, frac):
    assert _whole_multiple(k * step, step) == k
    assert _whole_multiple((k + 0.5) * step, step) is None
    assert _whole_multiple(frac * step, step) is None


@settings(max_examples=10, deadline=None)
@given(d=st.integers(1, 2), n_paths=st.integers(1, 300),
       end=st.integers(1, 2600), rows=st.integers(1, 700),
       first=st.integers(0, 5))
def test_fine_rows_slabs_equal_one_read(d, n_paths, end, rows, first):
    # slabs drawn one after the other from a chunk's generator, from any
    # window on, are the rows of one whole read, bit for bit
    plan = m.NoisePlan(3, n_paths, d, fine_delta=0.01, horizon=26.0)
    windows = _windows(end, rows)
    assert [s for s, _ in windows] == [0] + [e for _, e in windows[:-1]]
    assert windows[-1][1] == end
    for s, e in windows:
        assert 0 < e - s <= rows and s // CHUNK_STEPS == (e - 1) // CHUNK_STEPS
    windows = windows[min(first, len(windows) - 1):]
    slabs = list(_fine_rows(plan, 0, windows))
    assert [z.shape for z in slabs] == [(e - s, n_paths, d) for s, e in windows]
    start = windows[0][0]
    whole = fine_increments_block(plan, 0, start, end - start)
    np.testing.assert_array_equal(np.concatenate(slabs), whole)
