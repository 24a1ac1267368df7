"""Tests for the Monte Carlo ensemble engine."""
import dataclasses
import math
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import monosde as m
from monosde import engine
from monosde.noise import BLOCK_PATHS

FIG1 = m.make_fig1()
TTE = m.SchemeConfig("tte", 0.05, alpha=1.3)


def _zero_problem():
    c = m.AssumptionConstants(b0=1.0, b1=0.0, c0=0.0, c1=0.0, c2=1.0, q=0.0,
                              K=0.0, tamed_b0=1.0, tamed_b1=0.0,
                              growth_c0=1.0, growth_c1=1.0)
    return m.SdeProblem(name="frozen", dim_state=1, dim_noise=1,
                        drift=lambda x: np.zeros_like(x),
                        diffusion=lambda x: np.zeros(x.shape[:-1] + (1, 1)),
                        constants=c)


def test_results_identical_across_thread_counts():
    obs = [m.make_observable("identity"), m.make_observable("arctan")]
    runs = []
    for threads in (1, 3, 8):
        spec = m.EnsembleSpec(1.0, 5000, 2.0, seed=4, record_dt=0.25,
                              threads=threads)
        runs.append(m.simulate_ensemble(FIG1, TTE, spec, obs))
    base = runs[0]
    for other in runs[1:]:
        for name in ("identity", "arctan"):
            np.testing.assert_array_equal(other.observables[name].mean,
                                          base.observables[name].mean)
            np.testing.assert_array_equal(other.observables[name].stderr,
                                          base.observables[name].stderr)
        for p in base.moments:
            np.testing.assert_array_equal(other.moments[p].mean,
                                          base.moments[p].mean)


def _assert_results_equal(a, b):
    np.testing.assert_array_equal(a.n_active, b.n_active)
    assert a.n_blowups == b.n_blowups
    for series in ("observables", "moments"):
        sa, sb = getattr(a, series), getattr(b, series)
        assert sa.keys() == sb.keys()
        for key in sa:
            for name in ("times", "mean", "stderr"):
                np.testing.assert_array_equal(getattr(sa[key], name),
                                              getattr(sb[key], name))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_paths=st.integers(BLOCK_PATHS + 1, 3 * BLOCK_PATHS),
       n_steps=st.integers(1, 4), threads=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_multi_block_results_do_not_depend_on_threads(n_paths, n_steps,
                                                      threads, seed):
    obs = [m.make_observable("identity"), m.make_observable("arctan")]
    runs = [m.simulate_ensemble(FIG1, TTE, m.EnsembleSpec(
                1.0, n_paths, n_steps * TTE.delta, seed=seed, threads=t), obs)
            for t in (1, threads)]
    _assert_results_equal(*runs)


@pytest.mark.parametrize("failing", [{1}, {1, 2}, {2}, {0, 1}])
@pytest.mark.parametrize("threads", [2, 3])
def test_worker_errors_match_one_worker(monkeypatch, failing, threads):
    # the lowest-numbered failing block's error reaches the caller, typed,
    # whichever worker ran it, and no worker process outlives the pass
    run_block = engine._run_block

    def flaky(runs, b):
        if b in failing:
            raise m.NonConvergence(float(b), b)
        return run_block(runs, b)

    monkeypatch.setattr(engine, "_run_block", flaky)
    errors = []
    for t in (1, threads):
        spec = m.EnsembleSpec(1.0, 3 * BLOCK_PATHS, 0.1, seed=2, threads=t)
        with pytest.raises(m.NonConvergence) as exc:
            m.simulate_ensemble(FIG1, TTE, spec)
        errors.append((type(exc.value), str(exc.value), exc.value.index))
        assert not multiprocessing.active_children()
    assert errors[1] == errors[0]
    assert errors[0][2] == min(failing)


def test_passing_multi_block_pass_leaves_no_workers():
    spec = m.EnsembleSpec(1.0, 2 * BLOCK_PATHS, 0.1, seed=2, threads=2)
    m.simulate_ensemble(FIG1, TTE, spec)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("n_paths", [1000, 5000])
def test_stderr_does_not_depend_on_a_constant_shift(n_paths):
    # |X|^4 from x0 = 100 is of order 1e8; a variance formed from sums of
    # squares loses every digit of the spread at that offset
    shift = m.Observable("shift", lambda x: 1e8 + x[..., 0], None, None, 0.0)
    spec = m.EnsembleSpec(1.0, n_paths, 5.0, seed=2, record_dt=0.25)
    res = m.simulate_ensemble(FIG1, TTE, spec,
                              [m.make_observable("identity"), shift])
    ratio = (res.observables["shift"].stderr[1:]
             / res.observables["identity"].stderr[1:])
    assert ratio.size == 20
    assert np.all((ratio >= 0.999) & (ratio <= 1.001))


def _finite_norm_rule(y, threshold):
    r = np.abs(y[:, 0])
    return np.isfinite(r) & (r <= threshold)


_TINY = np.nextafter(0.0, 1.0)
_SUBNORMAL = np.finfo(float).tiny / 3.0


@pytest.mark.parametrize("threshold", [1e12, 1.0, 1e300, _SUBNORMAL, 0.0])
def test_one_component_guard_equals_finite_norm_rule(threshold):
    above = np.nextafter(threshold, np.inf)
    y = np.array([np.nan, -np.nan, np.inf, -np.inf, threshold, -threshold,
                  above, -above, _TINY, -_TINY, _SUBNORMAL, -_SUBNORMAL,
                  0.0, -0.0, 1.0, -1e300])[:, None]
    with np.errstate(all="raise"):
        got = engine._survivors(y, threshold)
    np.testing.assert_array_equal(got, _finite_norm_rule(y, threshold))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=16),
       st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_one_component_guard_property(values, threshold):
    y = np.array(values)[:, None]
    with np.errstate(all="raise"):
        got = engine._survivors(y, threshold)
    np.testing.assert_array_equal(got, _finite_norm_rule(y, threshold))


def test_infinite_threshold_keeps_the_finite_norm_rule():
    # |inf| <= inf holds, so an infinite threshold must not take the
    # one-comparison path
    y = np.array([np.inf, -np.inf, np.nan, 1e308, -_TINY])[:, None]
    np.testing.assert_array_equal(engine._survivors(y, np.inf),
                                  [False, False, False, True, True])


def test_record_grid_from_record_dt():
    spec = m.EnsembleSpec(1.0, 16, 1.0, seed=0, record_dt=0.25)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    np.testing.assert_allclose(r.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_record_every_step_by_default():
    spec = m.EnsembleSpec(1.0, 8, 0.2, seed=0)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert len(r.times) == 5


def test_bad_record_dt_rejected():
    spec = m.EnsembleSpec(1.0, 8, 1.0, seed=0, record_dt=0.13)
    with pytest.raises(ValueError):
        m.simulate_ensemble(FIG1, TTE, spec)


def test_initial_moment_is_exact():
    spec = m.EnsembleSpec(3.0, 32, 0.5, seed=0, record_dt=0.25,
                          moment_orders=(2,))
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert r.moments[2].mean[0] == 9.0
    assert r.moments[2].stderr[0] == 0.0


def test_moments_use_euclidean_norm():
    p = m.make_coupled_2d(1.0, 1.0)
    spec = m.EnsembleSpec(np.array([0.3, -0.7]), 16, 0.1, seed=0,
                          record_dt=0.1, moment_orders=(2,))
    r = m.simulate_ensemble(p, m.SchemeConfig("em", 0.01), spec)
    np.testing.assert_allclose(r.moments[2].mean[0], 0.58)


def test_stderr_scales_like_sqrt_n():
    big = m.EnsembleSpec(1.0, 4000, 2.0, seed=1, record_dt=0.5)
    small = m.EnsembleSpec(1.0, 2000, 2.0, seed=12345, record_dt=0.5)
    rb = m.simulate_ensemble(FIG1, TTE, big, [m.make_observable("identity")])
    rs = m.simulate_ensemble(FIG1, TTE, small, [m.make_observable("identity")])
    ratio = (rs.observables["identity"].stderr[1:]
             / rb.observables["identity"].stderr[1:])
    assert abs(np.mean(ratio) - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


def test_all_paths_blow_up_under_explicit_euler():
    spec = m.EnsembleSpec(100.0, 64, 2.0, seed=0, record_dt=0.5)
    with pytest.raises(m.AllPathsBlewUp) as exc:
        m.simulate_ensemble(FIG1, m.SchemeConfig("em", 0.05), spec)
    result = exc.value.result
    assert result.n_blowups == 64
    assert result.n_active[-1] == 0


def test_partial_blowups_are_frozen_and_counted():
    # a tiny threshold turns ordinary excursions into recorded blow-ups
    spec = m.EnsembleSpec(1.0, 256, 2.0, seed=3, record_dt=0.5,
                          blowup_threshold=1.5)
    r = m.simulate_ensemble(FIG1, TTE, spec, [m.make_observable("identity")])
    assert 0 < r.n_blowups < 256
    assert r.n_active[-1] == 256 - r.n_blowups
    assert np.all(np.isfinite(r.observables["identity"].mean))


def test_zero_dynamics_series_constant():
    p = _zero_problem()
    spec = m.EnsembleSpec(2.0, 16, 1.0, seed=0, record_dt=0.25)
    r = m.simulate_ensemble(p, m.SchemeConfig("em", 0.05), spec,
                            [m.make_observable("identity")])
    np.testing.assert_array_equal(r.observables["identity"].mean, 2.0)
    np.testing.assert_array_equal(r.observables["identity"].stderr, 0.0)
    np.testing.assert_array_equal(r.moments[2].mean, 4.0)


def test_fine_delta_of_the_scheme_step_is_the_default_lattice():
    spec = m.EnsembleSpec(1.0, 64, 1.0, seed=5, record_dt=0.25)
    a = m.simulate_ensemble(FIG1, TTE, spec, [m.make_observable("identity")])
    b = m.simulate_ensemble(FIG1, TTE,
                            dataclasses.replace(spec, fine_delta=TTE.delta),
                            [m.make_observable("identity")])
    assert a.fine_delta == b.fine_delta == TTE.delta
    np.testing.assert_array_equal(a.observables["identity"].mean,
                                  b.observables["identity"].mean)
    np.testing.assert_array_equal(a.moments[4].mean, b.moments[4].mean)


@pytest.mark.parametrize("fine_delta", [0.02, 0.1, 0.0])
def test_scheme_step_off_the_fine_lattice_is_rejected(fine_delta):
    spec = m.EnsembleSpec(1.0, 64, 1.0, seed=5, fine_delta=fine_delta)
    with pytest.raises(ValueError, match="spec.fine_delta"):
        m.simulate_ensemble(FIG1, TTE, spec)


def test_drift_step_audit_separates_schemes():
    bad = m.drift_step_audit(FIG1, m.SchemeConfig("em", 0.05))
    good = m.drift_step_audit(FIG1, TTE)
    assert not bad["pass"]
    assert good["pass"]
    assert good["eps"] < 1.0


def test_moment_recursion_audit_requires_tte():
    spec = m.EnsembleSpec(100.0, 200, 10.0, seed=0)
    result = m.simulate_ensemble(FIG1, TTE, spec)
    with pytest.raises(ValueError):
        m.moment_recursion_audit(FIG1, m.SchemeConfig("em", 0.05), result,
                                 100.0)


@pytest.mark.parametrize("record_dt,orders",
                         [(0.25, (1, 2, 4)), (None, (4,))])
def test_moment_recursion_audit_needs_every_step(record_dt, orders):
    spec = m.EnsembleSpec(100.0, 64, 1.0, seed=0, record_dt=record_dt,
                          moment_orders=orders)
    result = m.simulate_ensemble(FIG1, TTE, spec)
    with pytest.raises(ValueError, match="every step"):
        m.moment_recursion_audit(FIG1, TTE, result, 100.0)


def test_moment_recursion_audit_on_tte():
    spec = m.EnsembleSpec(100.0, 500, 20.0, seed=2)
    result = m.simulate_ensemble(FIG1, TTE, spec)
    rep = m.moment_recursion_audit(FIG1, TTE, result, 100.0, power=2)
    assert rep["pass"]
    assert rep["empirical_sup"] <= 100.0**2 + rep["fitted_C"] + 1e-9
    assert rep["first_step_ratio"] <= rep["contraction_bound"]
    assert rep["n_blowups"] == 0


def test_result_metadata():
    spec = m.EnsembleSpec(1.0, 32, 0.5, seed=17, record_dt=0.25)
    r = m.simulate_ensemble(FIG1, TTE, spec)
    assert r.scheme_kind == "tte"
    assert r.delta == 0.05
    assert r.seed == 17
    assert r.n_paths == 32


def _per_path_run(scheme, spec):
    """The engine's statistics from a loop over single paths: each path
    steps on its own increments_for noise and freezes at its last good state
    once a step leaves the blow-up ball or is non-finite."""
    plan = m.NoisePlan(spec.seed, spec.n_paths, 1, fine_delta=scheme.delta,
                       horizon=spec.horizon)
    stepper = m.make_stepper(FIG1, scheme)
    n_out = plan.n_coarse_steps + 1
    n_active = np.zeros(n_out, dtype=np.int64)
    total = np.zeros(n_out)
    scale = np.zeros(n_out)
    blowups = 0
    for p in range(spec.n_paths):
        inc = m.increments_for(plan, p)
        x = np.array([[float(spec.x0)]])
        alive = True
        for k in range(n_out):
            if k and alive:
                y = stepper(x, inc[k - 1][None])
                if np.all(np.isfinite(y)) and abs(y[0, 0]) <= spec.blowup_threshold:
                    x = y
                else:
                    alive = False
                    blowups += 1
            if alive:
                n_active[k] += 1
                total[k] += x[0, 0]
                scale[k] += abs(x[0, 0])
    return n_active, blowups, total, scale


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["em", "tamed"]),
       x0=st.floats(-2.5, 2.5),
       log_margin=st.floats(-1.3, 0.5),
       n_paths=st.integers(1, 300),
       threads=st.integers(1, 3))
# explicit Euler from 4.4 overflows to inf and NaN on most paths, a few
# steps in; an infinite threshold leaves only the finiteness check
@example(kind="em", x0=4.4, log_margin=math.inf, n_paths=200, threads=2)
def test_freezing_mid_block_matches_per_path_loop(kind, x0, log_margin,
                                                  n_paths, threads):
    # a threshold a little above |x0| freezes paths mid-block; the engine
    # still steps their rows, so a frozen path that a later step would bring
    # back into the ball must stay out of every statistic, as in a loop over
    # single paths
    scheme = m.SchemeConfig(kind, 0.1)
    spec = m.EnsembleSpec(x0, n_paths, 1.5, seed=5, threads=threads,
                          blowup_threshold=abs(x0) + 10.0 ** log_margin)
    obs = [m.make_observable("identity")]
    with np.errstate(over="ignore", invalid="ignore"):
        n_active, blowups, total, scale = _per_path_run(scheme, spec)
        if n_active[-1] == 0:
            with pytest.raises(m.AllPathsBlewUp) as exc:
                m.simulate_ensemble(FIG1, scheme, spec, obs)
            res = exc.value.result
        else:
            res = m.simulate_ensemble(FIG1, scheme, spec, obs)
    np.testing.assert_array_equal(res.n_active, n_active)
    assert res.n_blowups == blowups
    live = n_active > 0
    mean = res.observables["identity"].mean
    assert np.all(np.isnan(mean[~live]))
    err = np.abs(mean[live] - total[live] / n_active[live])
    assert np.all(err <= 1e-12 * scale[live] / n_active[live])


def _reference_advance(self, fine, e):
    """_BlockRun.advance with the per-column masked write-back on every
    step, as it was before the all-survive path; kept as the oracle for
    that path."""
    m_ = self.m
    take = min(e, self.fine_end) // m_ - self.step_idx
    win = None
    if fine is not None and self.wants_noise():
        rows = fine[:, :self.size]
        if self.leftover is not None:
            rows = np.concatenate([self.leftover, rows])
        used = take * m_
        win = engine._coarsen(rows[:used], m_)
        self.leftover = rows[used:].copy() if used < rows.shape[0] else None
    x, active, stepper = self.x, self.active, self.run.stepper
    threshold = self.run.spec.blowup_threshold
    rec_steps = self.run.rec_steps
    n_out = rec_steps.size
    for i in range(take):
        if win is not None:
            y = stepper(x, win[i])
            ok = active & engine._survivors(y, threshold)
            for j in range(x.shape[1]):
                np.copyto(x[:, j], y[:, j], where=ok)
            active &= ok
        self.step_idx += 1
        if self.ptr < n_out and self.step_idx == rec_steps[self.ptr]:
            self.record(self.ptr)
            self.ptr += 1


_COUPLED = m.make_coupled_2d(1.0, 1.0)
_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "1e200": 1e200, "-1e200": -1e200, "half": 0.5}


def _scripted_stepper(mode, growth, events, special):
    """y = growth * x + dB * (1, -1/2) / 8, then for each event (k, r,
    values) row r of the k-th step's output is overwritten with the named
    values (special names the threshold-relative ones); mode returns a new
    array ("fresh"), the input updated in place ("input"), or a view of the
    updated input with its rows ("rows") or columns ("cols") reversed."""
    calls = [0]
    values_of = dict(_VALUES, **special)

    def step(x, dB):
        k = calls[0]
        calls[0] += 1
        kick = dB[:, :1] * np.array([1.0, -0.5])[:x.shape[1]] / 8.0
        if mode == "fresh":
            y = growth * x + kick
        else:
            y = x
            y *= growth
            y += kick
        for kk, r, values in events:
            if kk == k and r < y.shape[0]:
                y[r] = [values_of[v] for v in values[:y.shape[1]]]
        return {"fresh": y, "input": y, "rows": y[::-1],
                "cols": y[:, ::-1]}[mode]
    return step


def _scripted_result(n, x0, n_paths, n_steps, threshold, mode, growth, events,
                     reference):
    """One single-block run of _scripted_stepper, through the engine or
    through _reference_advance: its result, or the partial result when every
    path blew up. A row of "between" entries has its norm between the
    all-survive bound and the threshold; a row of "corner" entries has each
    entry inside the threshold and, at N = 2, its norm outside."""
    problem = FIG1 if n == 1 else _COUPLED
    finite = math.isfinite(threshold)
    special = {"between": 0.9 * threshold / math.sqrt(n) if finite else 1e160,
               "corner": 0.9 * threshold if finite else 1e200}
    spec = m.EnsembleSpec(x0 * np.array([1.0, 0.5])[:n], n_paths,
                          n_steps * 0.125, seed=3, blowup_threshold=threshold,
                          moment_orders=(1, 2))
    run = engine._prepare_run(problem, m.SchemeConfig("em", 0.125), spec,
                              [m.make_observable("identity")])
    run = dataclasses.replace(
        run, stepper=_scripted_stepper(mode, growth, events, special))
    advance = _reference_advance if reference else engine._BlockRun.advance
    with mock.patch.object(engine._BlockRun, "advance", advance), \
            np.errstate(over="ignore", invalid="ignore"):
        try:
            return engine._simulate([run])[0]
        except m.AllPathsBlewUp as exc:
            return exc.result


_EVENT_VALUES = st.sampled_from(sorted(_VALUES) + ["between", "corner"])


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2]), x0=st.floats(-2.0, 2.0),
       n_paths=st.integers(1, 40), n_steps=st.integers(1, 30),
       threshold=st.sampled_from([10.0, 1e12, math.inf]),
       mode=st.sampled_from(["fresh", "input", "rows", "cols"]),
       growth=st.floats(0.5, 1.3),
       events=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 39),
                                 st.lists(_EVENT_VALUES, min_size=2,
                                          max_size=2)), max_size=3))
@example(n=1, x0=1.0, n_paths=8, n_steps=20, threshold=10.0, mode="input",
         growth=1.0, events=[])
@example(n=2, x0=1.0, n_paths=8, n_steps=20, threshold=10.0, mode="rows",
         growth=1.0, events=[(4, 2, ["between", "between"])])
@example(n=2, x0=0.5, n_paths=8, n_steps=20, threshold=10.0, mode="cols",
         growth=1.1, events=[])
@example(n=1, x0=1.0, n_paths=16, n_steps=30, threshold=10.0, mode="fresh",
         growth=1.1, events=[])
@example(n=2, x0=1.0, n_paths=8, n_steps=10, threshold=1e12, mode="fresh",
         growth=1.0, events=[(3, 1, ["nan", "inf"]), (5, 4, ["-inf", "half"])])
@example(n=1, x0=1.0, n_paths=8, n_steps=10, threshold=1e12, mode="fresh",
         growth=1.0, events=[(2, 1, ["nan", "nan"]), (2, 3, ["inf", "inf"]),
                             (6, 5, ["-inf", "-inf"])])
@example(n=1, x0=1.0, n_paths=8, n_steps=10, threshold=1e12, mode="fresh",
         growth=1.0, events=[(3, 2, ["-inf", "-inf"])])
@example(n=1, x0=1.0, n_paths=8, n_steps=10, threshold=10.0, mode="fresh",
         growth=1.0, events=[(2, 0, ["between", "between"])])
@example(n=2, x0=1.0, n_paths=8, n_steps=10, threshold=10.0, mode="fresh",
         growth=1.0, events=[(2, 0, ["corner", "corner"])])
@example(n=1, x0=1.0, n_paths=4, n_steps=6, threshold=math.inf, mode="fresh",
         growth=1.0, events=[(1, 2, ["1e200", "1e200"])])
@example(n=2, x0=1.0, n_paths=4, n_steps=6, threshold=math.inf, mode="fresh",
         growth=1.0, events=[(1, 2, ["1e200", "half"])])
def test_all_survive_path_equals_masked_write_back(n, x0, n_paths, n_steps,
                                                   threshold, mode, growth,
                                                   events):
    # the whole-array test may take a step's output outright only where the
    # per-column masked copy would keep every row: steppers that return
    # their input or a view of it, freezes after an all-active stretch,
    # non-finite rows, rows between the bound and the threshold and rows
    # whose entries lie inside the threshold but whose norm does not all
    # give the masked copy's bits
    args = (n, x0, n_paths, n_steps, threshold, mode, growth, events)
    _assert_results_equal(_scripted_result(*args, reference=False),
                          _scripted_result(*args, reference=True))


@pytest.mark.parametrize("n,blowups", [(1, 0), (2, 1)])
def test_infinite_threshold_row_at_1e200(n, blowups):
    # the N >= 2 norm of a 1e200 row overflows, so it freezes even under an
    # infinite threshold; one component is its abs and survives
    args = (n, 1.0, 4, 6, math.inf, "fresh", 1.0,
            [(1, 2, ["1e200", "1e200"])])
    res = _scripted_result(*args, reference=False)
    assert res.n_blowups == blowups
    _assert_results_equal(res, _scripted_result(*args, reference=True))


def test_calm_block_skips_the_survivor_guard(monkeypatch):
    # no row freezes and none comes near the threshold: the guard never runs
    # until a step fails the whole-array test, and after the first freeze it
    # runs on every step
    survivors = engine._survivors
    calls = []

    def counting(y, threshold):
        calls.append(threshold)
        return survivors(y, threshold)

    monkeypatch.setattr(engine, "_survivors", counting)
    m.simulate_ensemble(FIG1, TTE, m.EnsembleSpec(1.0, 64, 2.0, seed=1))
    assert not calls
    res = _scripted_result(1, 1.0, 8, 30, 10.0, "fresh", 1.0,
                           [(4, 0, ["nan", "nan"])], reference=False)
    assert res.n_blowups == 1
    assert len(calls) == 30 - 4



class _CountingFeed(engine._Feed):
    made = 0

    def __init__(self, *args):
        type(self).made += 1
        super().__init__(*args)


def _fed():
    """Patches under which a single-block pass at threads >= 2 is fed,
    whatever the host's core count, and counts the producers started."""
    return (mock.patch.object(engine, "_usable_cores", return_value=2),
            mock.patch.object(engine, "_Feed", _CountingFeed))


def _coupled_pass(problem, runs, fine_delta, n_fine, seed, threads):
    """One coupled pass of (kind, factor, x0, n_paths, threshold) runs on a
    lattice of n_fine fine steps: the results, or the partial result of the
    first run whose paths all blew up."""
    horizon = n_fine * fine_delta
    args = []
    for kind, factor, x0, n_paths, threshold in runs:
        spec = m.EnsembleSpec(x0, n_paths, horizon, seed=seed,
                              fine_delta=fine_delta, threads=threads,
                              blowup_threshold=threshold)
        args.append((m.SchemeConfig(kind, factor * fine_delta), spec,
                     [m.make_observable("identity")]))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return m.simulate_ensemble(problem, *args[0], coupled=args[1:])
    except m.AllPathsBlewUp as exc:
        return [exc.result]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(d=st.sampled_from([1, 2]),
       factors=st.lists(st.integers(1, 13), min_size=1, max_size=3,
                        unique=True),
       min_steps=st.integers(1025, 2600),
       case=st.sampled_from(["calm", "freeze", "blowup"]),
       seed=st.integers(0, 2**32 - 1))
@example(d=1, factors=[13, 1, 4], min_steps=1025, case="blowup", seed=0)
@example(d=2, factors=[7, 2], min_steps=2000, case="freeze", seed=3)
def test_fed_single_block_pass_equals_one_worker(d, factors, min_steps, case,
                                                 seed):
    # a fed pass steps 64-row windows drawn by a producer process; every run
    # of a coupled pass (coarsening factors 1..13, frozen paths, or every
    # path blown up so the consumer stops reading early) must get the bits
    # of threads=1
    problem = FIG1 if d == 1 else m.make_coupled_2d(1.0, 1.0)
    lcm = math.lcm(*factors)
    n_fine = lcm * -(-min_steps // lcm)   # past the first chunk
    x0 = np.full(d, {"blowup": 100.0, "freeze": 0.1}.get(case, 0.8))
    # about a quarter of the paths leave these balls within 5 time units
    threshold = (1.4 if d == 1 else 0.3) if case == "freeze" else 1e12
    runs = [("em" if case == "blowup" else "tte", f, x0, 40 + 97 * i,
             threshold) for i, f in enumerate(factors)]
    one = _coupled_pass(problem, runs, 0.005, n_fine, seed, 1)
    patch_cores, patch_feed = _fed()
    with patch_cores, patch_feed:
        made = _CountingFeed.made
        two = _coupled_pass(problem, runs, 0.005, n_fine, seed, 2)
        assert _CountingFeed.made == made + 1
    assert not multiprocessing.active_children()
    assert len(one) == len(two)
    if case == "blowup":
        assert len(one) == 1 and one[0].n_active[-1] == 0
    if case == "freeze":
        assert any(0 < r.n_blowups < r.n_paths for r in one)
    for a, b in zip(one, two):
        _assert_results_equal(a, b)


def _long_spec(threads):
    # one block, 2000 fine steps: 32 fed windows across two chunks
    return m.EnsembleSpec(1.0, 300, 2000 * 0.005, seed=4, threads=threads)


_SMALL_TTE = m.SchemeConfig("tte", 0.005, alpha=1.3)


def test_fed_pass_error_matches_one_worker(monkeypatch):
    # a stepper that fails mid-pass, in a window the producer drew, gives
    # threads=1's error; the producer is stopped and reaped
    make_stepper = engine.make_stepper

    def failing_stepper(problem, scheme):
        step = make_stepper(problem, scheme)
        calls = [0]

        def stepper(x, dw):
            calls[0] += 1
            if calls[0] == 1500:
                raise m.NonConvergence(float(calls[0]), 7)
            return step(x, dw)
        return stepper

    monkeypatch.setattr(engine, "make_stepper", failing_stepper)
    errors = []
    patch_cores, patch_feed = _fed()
    with patch_cores, patch_feed:
        for t in (1, 2):
            with pytest.raises(m.NonConvergence) as exc:
                m.simulate_ensemble(FIG1, _SMALL_TTE, _long_spec(t))
            errors.append((type(exc.value), str(exc.value), exc.value.index))
            assert not multiprocessing.active_children()
    assert errors[1] == errors[0]


def _dying_rows(after):
    rows = engine._fine_rows

    def dying(*args):
        for k, slab in enumerate(rows(*args)):
            if k == after:
                os._exit(3)
            yield slab
    return dying


@pytest.mark.parametrize("after", [0, 5])
def test_dead_producer_raises(monkeypatch, after):
    # the producer exits with code 3 after `after` windows; the pass must
    # raise instead of waiting for rows that never come
    monkeypatch.setattr(engine, "_fine_rows", _dying_rows(after))
    patch_cores, patch_feed = _fed()
    with patch_cores, patch_feed:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            m.simulate_ensemble(FIG1, _SMALL_TTE, _long_spec(2))
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("threads,n_paths,fed", [
    (1, 300, False), (2, 300, True), (2, 2 * BLOCK_PATHS, False)])
def test_only_passes_with_idle_workers_are_fed(threads, n_paths, fed):
    patch_cores, patch_feed = _fed()
    with patch_cores, patch_feed:
        made = _CountingFeed.made
        m.simulate_ensemble(FIG1, TTE, m.EnsembleSpec(
            1.0, n_paths, 200 * TTE.delta, seed=1, threads=threads))
        assert (_CountingFeed.made > made) == fed
    assert not multiprocessing.active_children()


def test_fed_blocks_on_block_workers_equal_one_worker():
    # two blocks on four workers: each block worker forks its own producer
    obs = [m.make_observable("identity")]
    spec = m.EnsembleSpec(1.0, BLOCK_PATHS + 1, 150 * 0.005, seed=9)
    one = m.simulate_ensemble(FIG1, _SMALL_TTE, spec, obs)
    with mock.patch.object(engine, "_usable_cores", return_value=4):
        four = m.simulate_ensemble(FIG1, _SMALL_TTE,
                                   dataclasses.replace(spec, threads=4), obs)
    assert not multiprocessing.active_children()
    _assert_results_equal(one, four)


def test_scalar_start_sets_every_component():
    problem = m.make_problem("coupled2d")
    obs = [m.make_observable("coord0"), m.make_observable("coord1")]
    scheme = m.SchemeConfig("tamed", 0.05)
    scalar, vector = (
        m.simulate_ensemble(problem, scheme,
                            m.EnsembleSpec(x0, 64, 0.5, seed=2), obs)
        for x0 in (1.5, [1.5, 1.5]))
    _assert_results_equal(scalar, vector)
    assert scalar.observables["coord1"].mean[0] == 1.5
    for x0 in ([1.0, 2.0, 3.0], [[1.5, 1.5]]):
        with pytest.raises(ValueError, match="length-2"):
            m.simulate_ensemble(problem, scheme, m.EnsembleSpec(x0, 4, 0.5))
