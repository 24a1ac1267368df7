"""Property tests for the shared noise pass: split reads of the fine lattice
and coupled engine runs reproduce the separate computations bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import monosde as m
from monosde.noise import CHUNK_STEPS, fine_increments_block

FIG1 = m.make_fig1()
IDENTITY = m.make_observable("identity")
ARCTAN = m.make_observable("arctan")
FINE = 0.001

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@SLOW
@given(data=st.data(), n=st.integers(1, 2 * CHUNK_STEPS + 300),
       n_paths=st.integers(1, 9), d=st.integers(1, 2),
       seed=st.integers(0, 2**32))
def test_split_reads_concatenate_to_single_read(data, n, n_paths, d, seed):
    plan = m.NoisePlan(seed, n_paths, d, fine_delta=FINE, horizon=n * FINE)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)), max_size=4)))
    bounds = [0] + [c for c in cuts if c < n] + [n]
    pieces = [fine_increments_block(plan, 0, a, b - a)
              for a, b in zip(bounds[:-1], bounds[1:])]
    whole = fine_increments_block(plan, 0, 0, n)
    assert whole.shape == (n, n_paths, d)
    np.testing.assert_array_equal(np.concatenate(pieces), whole)


def _spec(x0, n_paths, horizon, threads, threshold=1e12):
    return m.EnsembleSpec(x0, n_paths, horizon, seed=0, threads=threads,
                          blowup_threshold=threshold)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.n_active, b.n_active)
    assert a.n_blowups == b.n_blowups
    assert a.delta == b.delta and a.seed == b.seed
    assert a.observables.keys() == b.observables.keys()
    for name in a.observables:
        np.testing.assert_array_equal(a.observables[name].mean,
                                      b.observables[name].mean)
        np.testing.assert_array_equal(a.observables[name].stderr,
                                      b.observables[name].stderr)
    for p in a.moments:
        np.testing.assert_array_equal(a.moments[p].value, b.moments[p].value)
        np.testing.assert_array_equal(a.moments[p].stderr, b.moments[p].stderr)


def _check_coupled_equals_separate(runs, threads):
    """runs: (coarsen factor, n_paths, x0, blowup threshold) on one lattice."""
    lcm = math.lcm(*(r[0] for r in runs))
    n_fine = lcm * math.ceil((CHUNK_STEPS + 76) / lcm)   # crosses a chunk
    horizon = n_fine * FINE
    jobs = []
    for k, n_paths, x0, threshold in runs:
        scheme = m.SchemeConfig("tte", k * FINE, alpha=1.3)
        plan = m.NoisePlan(3, n_paths, 1, fine_delta=FINE, horizon=horizon,
                           coarsen_factor=k)
        jobs.append((scheme, _spec(x0, n_paths, horizon, threads, threshold),
                     [IDENTITY, ARCTAN], plan))
    together = m.simulate_ensemble(FIG1, *jobs[0], coupled=jobs[1:])
    assert len(together) == len(jobs)
    for job, res in zip(jobs, together):
        _assert_same(res, m.simulate_ensemble(FIG1, *job))


@SLOW
@given(runs=st.lists(st.tuples(st.integers(1, 13), st.integers(1, 300),
                               st.floats(-2.0, 2.0),
                               st.sampled_from([1e12, 3.0])),
                     min_size=1, max_size=3),
       threads=st.integers(1, 3))
def test_coupled_pass_equals_separate_runs(runs, threads):
    _check_coupled_equals_separate(runs, threads)


def test_coupled_pass_equals_separate_runs_over_two_blocks():
    _check_coupled_equals_separate([(1, 4100, 1.0, 1e12), (10, 5000, -0.5, 1e12),
                                    (7, 64, 0.3, 1e12)], threads=2)


def _brownian_problem():
    c = m.AssumptionConstants(b0=1.0, b1=0.0, c0=0.0, c1=0.0, c2=1.0, q=0.0,
                              K=0.0, tamed_b0=1.0, tamed_b1=0.0,
                              growth_c0=1.0, growth_c1=1.0)
    return m.SdeProblem(name="brownian", dim_state=1, dim_noise=1,
                        drift=lambda x: np.zeros_like(x),
                        diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)),
                        constants=c, noise_scale=1.0)


@SLOW
@given(factors=st.lists(st.integers(1, 13), min_size=1, max_size=3),
       x0=st.floats(-2.0, 2.0))
def test_runs_step_on_in_order_sums_of_fine_rows(factors, x0):
    # explicit Euler on X = x0 + B makes each recorded state the running sum
    # of the coarse increments the engine consumed
    lcm = math.lcm(*factors)
    horizon = lcm * math.ceil((CHUNK_STEPS + 76) / lcm) * FINE
    jobs = []
    for k in factors:
        plan = m.NoisePlan(8, 1, 1, fine_delta=FINE, horizon=horizon,
                           coarsen_factor=k)
        jobs.append((m.SchemeConfig("em", k * FINE), _spec(x0, 1, horizon, 1),
                     [IDENTITY], plan))
    results = m.simulate_ensemble(_brownian_problem(), *jobs[0], coupled=jobs[1:])
    for (_, _, _, plan), res in zip(jobs, results):
        x = x0
        path = [x]
        for dB in m.increments_for(plan, 0, level="coarse")[:, 0]:
            x = x + dB
            path.append(x)
        np.testing.assert_array_equal(res.observables["identity"].mean, path)


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(["seed", "fine_delta", "horizon"]),
       n_paths=st.integers(1, 50), k=st.sampled_from([1, 2, 4, 5]))
def test_coupled_run_on_another_lattice_is_rejected(field, n_paths, k):
    lead_plan = m.NoisePlan(1, 16, 1, fine_delta=0.01, horizon=1.0)
    lead = (m.SchemeConfig("tamed", 0.01), _spec(1.0, 16, 1.0, 1), [], lead_plan)
    seed, fine, horizon = 1, 0.01, 1.0
    if field == "seed":
        seed = 2
    elif field == "fine_delta":
        fine = 0.005
    else:
        horizon = 2.0
    plan = m.NoisePlan(seed, n_paths, 1, fine_delta=fine, horizon=horizon,
                       coarsen_factor=k)
    other = (m.SchemeConfig("tte", k * fine, alpha=1.3),
             _spec(1.0, n_paths, horizon, 1), [], plan)
    with pytest.raises(ValueError):
        m.simulate_ensemble(FIG1, *lead, coupled=[other])
