"""Tests for the counter-based Brownian increment generator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import monosde as m
from monosde import noise
from monosde.noise import (CHUNK_STEPS, KEY_PATHS, _fine_rows,
                           _whole_multiple, _windows, fine_increments_block)


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


def test_path_reads_equal_block_columns_across_keys():
    # keys are 256 paths wide and blocks 4096; both boundaries, both sides
    plan = m.NoisePlan(4, 4353, 1, fine_delta=0.01, horizon=10.3)
    blocks = [fine_increments_block(plan, b, 0, plan.n_fine_steps)
              for b in range(plan.n_blocks)]
    for i in (255, 256, 257, 4095, 4096, 4351, 4352):
        np.testing.assert_array_equal(m.increments_for(plan, i),
                                      blocks[i // 4096][:, i % 4096])


def test_path_across_key_boundary_regardless_of_ensemble_size():
    small = m.NoisePlan(9, 257, 2, fine_delta=0.01, horizon=1.0)
    large = m.NoisePlan(9, 5000, 2, fine_delta=0.01, horizon=1.0)
    np.testing.assert_array_equal(m.increments_for(small, 256),
                                  m.increments_for(large, 256))


def test_paths_on_adjacent_keys_are_independent():
    plan = m.NoisePlan(5, 300, 1, fine_delta=0.001, horizon=4.0)
    a = m.increments_for(plan, 255)[:, 0]
    b = m.increments_for(plan, 256)[:, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 3.0 / np.sqrt(a.size)


@settings(max_examples=10, deadline=None)
@given(d=st.integers(1, 2), n_paths=st.integers(250, 1100),
       end=st.integers(1, 2100), rows=st.integers(1, 700),
       first=st.integers(0, 5))
def test_fine_rows_slabs_equal_one_read_across_keys(d, n_paths, end, rows,
                                                    first):
    # as test_fine_rows_slabs_equal_one_read, with windows over several
    # keys; a read from inside a chunk is the tail of one from its start
    plan = m.NoisePlan(3, n_paths, d, fine_delta=0.01, horizon=21.0)
    windows = _windows(end, rows)
    windows = windows[min(first, len(windows) - 1):]
    slabs = list(_fine_rows(plan, 0, windows))
    assert [z.shape for z in slabs] == [(e - s, n_paths, d) for s, e in windows]
    start = windows[0][0]
    whole = fine_increments_block(plan, 0, start, end - start)
    np.testing.assert_array_equal(np.concatenate(slabs), whole)
    head = start - start % CHUNK_STEPS
    np.testing.assert_array_equal(
        fine_increments_block(plan, 0, head, end - head)[start - head:], whole)


@pytest.mark.parametrize("width", [1, 255, 256, 257, 1000, 4096])
def test_a_read_draws_only_the_keys_it_needs(monkeypatch, width):
    drawn = []
    draw = noise._chunk_normals

    def counted(gen, rows, d):
        z = draw(gen, rows, d)
        drawn.append(z.size)
        return z

    monkeypatch.setattr(noise, "_chunk_normals", counted)
    d, rows = 2, 40
    # block 1 is width paths wide, on keys 16 and up
    plan = m.NoisePlan(1, 4096 + width, d, fine_delta=0.01, horizon=1.0)
    expected = -(-width // KEY_PATHS) * KEY_PATHS * rows * d
    fine_increments_block(plan, 1, 0, rows)
    assert sum(drawn) == expected
    drawn.clear()
    assert sum(z.shape[0] for z in _fine_rows(plan, 1, _windows(rows, 16))) == rows
    assert sum(drawn) == expected


def test_block_read_across_chunk_and_key_boundaries_equals_path_reads():
    # a read from mid-chunk that crosses fine step 1024, over paths on both
    # sides of key boundary 256, against the per-path oracle
    plan = m.NoisePlan(6, 300, 2, fine_delta=0.01, horizon=11.0)
    start, n = 1000, 40
    block = fine_increments_block(plan, 0, start, n)
    assert block.shape == (n, 300, 2)
    for i in (0, 255, 256, 299):
        np.testing.assert_array_equal(
            block[:, i], m.increments_for(plan, i)[start:start + n])


def test_zero_length_block_read_is_empty():
    plan = m.NoisePlan(6, 300, 2, fine_delta=0.01, horizon=11.0)
    for start in (0, 1024, 1100):
        assert fine_increments_block(plan, 0, start, 0).shape == (0, 300, 2)
