"""Acceptance suite: ten numbered criteria, one verdict line each.

Each test evaluates its criterion at the stated tolerances and prints
"criterion N (<label>): PASS/FAIL" before asserting, so a plain pytest run
shows one line per criterion with -s (and the same information through the
test outcome itself).
"""
import json
import time

import numpy as np
import pytest

import monosde as m
from monosde.analysis import ReferenceConfig
from monosde.cli import main
from monosde.noise import fine_increments_block

FIG1 = m.make_fig1()
CUBIC = m.make_cubic_1d(1.0, 0.3)
OU = m.make_linear_1d()
IDENTITY = m.make_observable("identity")
ARCTAN = m.make_observable("arctan")


def _verdict(num, label, ok, detail=""):
    sep = " " if detail else ""
    print("criterion %d (%s): %s%s%s" % (num, label, "PASS" if ok else "FAIL",
                                         sep, detail))
    assert ok, "criterion %d (%s) failed%s%s" % (num, label, sep, detail)


def test_criterion_01_pathwise_identities():
    t0 = time.monotonic()
    delta, n_steps, n_paths = 0.05, 200, 100
    plan = m.NoisePlan(0, n_paths, 1, fine_delta=delta, horizon=10.0)
    dB = fine_increments_block(plan, 0, 0, n_steps)

    split = m.make_stepper(CUBIC, m.SchemeConfig("splitstep", delta))
    emmod = m.make_stepper(CUBIC, m.SchemeConfig("em-modified", delta))
    impl = m.make_stepper(CUBIC, m.SchemeConfig("implicit", delta))

    x0 = np.full((n_paths, 1), 1.0)
    z = x0.copy()                       # split-step chain
    xb = x0.copy()                      # explicit Euler on the modified fields
    y = x0.copy()                       # implicit Euler chain
    xs = x0 - delta * CUBIC.drift(x0)   # shifted chain tracking F_delta
    gap_mod = 0.0
    gap_impl = 0.0
    for n in range(n_steps):
        step = dB[n]
        z = split(z, step)
        xb = emmod(xb, step)
        y = impl(y, step)
        xs = split(xs, step)
        gap_mod = max(gap_mod, float(np.max(np.abs(z - xb))))
        gap_impl = max(gap_impl, float(np.max(np.abs(y - m.solve_fdelta(CUBIC, xs, delta)))))
    elapsed = time.monotonic() - t0
    ok = gap_mod <= 1e-9 and gap_impl <= 1e-9 and elapsed < 5.0
    _verdict(1, "pathwise identities", ok,
             "max gaps %.2e / %.2e in %.2fs" % (gap_mod, gap_impl, elapsed))


def test_criterion_02_fig1_reproduction(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "fig1"
    rc = main(["fig1", "--seed", "11", "--threads", "4", "--out", str(out)])
    elapsed = time.monotonic() - t0
    doc = json.loads((out / "fig1_summary.json").read_text())
    small = doc["curves"]["x0=1"]
    large = doc["curves"]["x0=100"]
    part_a = all(small[k]["within_3se"] for k in small if k.startswith("tte"))
    tamed_sup = large["tamed"]["sup_deviation"]
    overshoots = {k: large[k]["first_step_overshoot"]
                  for k in large if k.startswith("tte")}
    part_b = (large["tte_a1.3"]["sup_deviation"] < tamed_sup
              and large["tte_a5"]["sup_deviation"] < tamed_sup
              and max(overshoots, key=overshoots.get) == "tte_a1")
    ok = rc == 0 and part_a and part_b and elapsed < 600.0
    _verdict(2, "fig1 reproduction", ok,
             "a=%s b=%s in %.0fs" % (part_a, part_b, elapsed))


def test_criterion_03_uit_plateau():
    ref = ReferenceConfig(kind="tamed", delta=0.005, n_paths=400)
    scheme = m.SchemeConfig("tte", 0.05, alpha=1.3)
    flags = 0
    for seed in range(20):
        rep = m.weak_error_curve(FIG1, scheme, ARCTAN, x0=1.0, horizon=50.0,
                                 n_paths=1000, seed=seed, record_dt=0.5,
                                 reference=ref, threads=4)
        flags += int(rep.plateau)
    ok = flags >= 18
    _verdict(3, "uit plateau", ok, "flag true in %d/20 repetitions" % flags)


def test_criterion_04_weak_order():
    deltas = [0.2, 0.1, 0.05, 0.025]
    ou_rep = m.convergence_order(
        OU, "em", deltas, IDENTITY, x0=1.0, horizon=5.0, n_paths=100000,
        seed=0, record_dt=0.25, exact_mean=lambda t: m.ou_exact_mean(1.0, t),
        threads=4)
    ref = ReferenceConfig(kind="tamed", delta=0.0025, n_paths=20000)
    tte_rep = m.convergence_order(
        FIG1, "tte", deltas, ARCTAN, x0=1.0, horizon=8.0, n_paths=20000,
        seed=0, record_dt=0.2, reference=ref, alpha=1.3, threads=4)
    ss_rep = m.convergence_order(
        FIG1, "splitstep", deltas, ARCTAN, x0=1.0, horizon=8.0, n_paths=20000,
        seed=0, record_dt=0.2, reference=ref, threads=4)
    ok = (0.85 <= ou_rep.beta_hat <= 1.2
          and tte_rep.beta_hat >= 0.35 and ss_rep.beta_hat >= 0.35)
    _verdict(4, "weak order", ok,
             "ou %.3f tte %.3f splitstep %.3f"
             % (ou_rep.beta_hat, tte_rep.beta_hat, ss_rep.beta_hat))


def test_criterion_05_moment_uniformity():
    bound = 100.0**2 + 50.0
    sups = {}
    blowups = {}
    for kind in ("tte", "splitstep", "implicit"):
        # alpha=None lets the TTE stepper take alpha from the selection rule
        spec = m.EnsembleSpec(100.0, 1000, 100.0, seed=0, moment_orders=(2,),
                              threads=4)
        res = m.simulate_ensemble(FIG1, m.SchemeConfig(kind, 0.05), spec)
        sups[kind] = float(np.max(res.moments[2].mean))
        blowups[kind] = res.n_blowups
    with pytest.raises(m.AllPathsBlewUp) as exc:
        m.simulate_ensemble(FIG1, m.SchemeConfig("em", 0.05),
                            m.EnsembleSpec(100.0, 1000, 100.0, seed=0,
                                           moment_orders=(2,)))
    em_all_paths = exc.value.result.n_blowups == 1000
    ok = (all(s <= bound for s in sups.values())
          and all(b == 0 for b in blowups.values()) and em_all_paths)
    _verdict(5, "moment uniformity", ok,
             "sup %.1f / %.1f / %.1f vs %.0f, em blowups %d/1000"
             % (sups["tte"], sups["splitstep"], sups["implicit"], bound,
                exc.value.result.n_blowups))


def test_criterion_06_stationary_moment():
    target = 0.28960238631923996  # quadrature of x^2 exp(-(x^4/2+x^2)), normalized
    spec = m.EnsembleSpec(1.0, 4096, 50.0, seed=0, record_dt=50.0,
                          moment_orders=(2,), threads=4)
    res = m.simulate_ensemble(FIG1, m.SchemeConfig("tte", 0.05, alpha=1.3), spec)
    est = float(res.moments[2].mean[-1])
    se = float(res.moments[2].stderr[-1])
    dev = abs(est - target)
    allowance = 3.0 * se + 0.05
    ok = dev <= allowance
    _verdict(6, "stationary moment", ok,
             "estimate %.4f vs %.4f, dev %.4f <= %.4f" % (est, target, dev,
                                                          allowance))


def test_criterion_07_ses_probe():
    t0 = time.monotonic()
    fig_rep = m.ses_probe(FIG1, IDENTITY, [1.0], horizon=6.0, n_paths=4096,
                          fine_delta=0.01, seed=0, threads=4)
    ou_rep = m.ses_probe(OU, IDENTITY, [1.0], horizon=6.0, n_paths=256,
                         fine_delta=0.01, seed=0)
    elapsed = time.monotonic() - t0
    ok = (fig_rep.gamma_hat is not None and fig_rep.gamma_hat >= 0.8
          and ou_rep.gamma_hat is not None
          and abs(ou_rep.gamma_hat - 1.0) <= 0.05 and elapsed < 120.0)
    _verdict(7, "ses probe", ok,
             "fig1 gamma %.3f, ou gamma %.4f in %.0fs"
             % (fig_rep.gamma_hat, ou_rep.gamma_hat, elapsed))


def test_criterion_08_implicit_map_properties():
    delta = 0.1
    rng = np.random.default_rng(42)
    x = rng.uniform(-10, 10, size=(10000, 1))
    y = rng.uniform(-10, 10, size=(10000, 1))
    fx = m.solve_fdelta(CUBIC, x, delta)
    fy = m.solve_fdelta(CUBIC, y, delta)
    c = CUBIC.constants
    contraction_gap = float(np.max(
        np.linalg.norm(fx - fy, axis=-1) ** 2
        - np.linalg.norm(x - y, axis=-1) ** 2 / (1.0 - 2.0 * delta * c.c0)))
    growth_gap = float(np.max(
        np.linalg.norm(fx, axis=-1) ** 2
        - np.linalg.norm(x, axis=-1) ** 2 / (1.0 + c.b0 * delta) ** 2
        - 2.0 * c.b1 * delta / (1.0 + c.b0 * delta)))
    resid = float(np.max(np.abs(fx - x - delta * CUBIC.drift(fx))))
    deriv = m.fdelta_derivative_bounds_check(
        CUBIC, delta, points=rng.uniform(-10, 10, size=(1000, 1)), tol=1e-4)
    ok = (contraction_gap <= 1e-8 and growth_gap <= 1e-8 and resid <= 1e-8
          and deriv["pass"])
    _verdict(8, "implicit map properties", ok,
             "gaps %.1e / %.1e, resid %.1e, derivative check %s"
             % (contraction_gap, growth_gap, resid, deriv["pass"]))


def test_criterion_09_assumption_checker():
    good = m.check_assumptions(CUBIC, seed=0)
    sect2 = ["2.6", "2.7", "2.10", "2.11", "2.12"]
    good_ok = all(good.get(c).passed and not good.get(c).skipped for c in sect2)
    bad = m.check_assumptions(m.make_cubic_1d(1.0, 2.0), seed=0)
    bad_ok = not bad.get("2.11").passed
    twod = m.check_assumptions(m.make_coupled_2d(1.0, 1.0), seed=0)
    res27 = twod.get("2.7")
    gamma_max = (res27.constant or {}).get("gamma_max", float("nan"))
    twod_ok = res27.passed and gamma_max > 0
    ok = good_ok and bad_ok and twod_ok
    _verdict(9, "assumption checker", ok,
             "cubic(1,0.3) %s, cubic(1,2) rejects %s, 2-D gamma_max %.4f"
             % (good_ok, bad_ok, gamma_max))


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                   "run.x0 = 1.0\nrun.n_paths = 512\nrun.horizon = 2.0\n")
    outs = []
    for threads, sub in [("1", "a"), ("5", "b")]:
        out = tmp_path / sub
        rc = main(["simulate", "--config", str(cfg), "--seed", "11",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same_sim = all((outs[0] / f.name).read_bytes() == (outs[1] / f.name).read_bytes()
                   for f in sorted(outs[0].iterdir()))

    ses_outs = []
    for threads, sub in [("1", "s1"), ("3", "s3")]:
        out = tmp_path / sub
        rc = main(["ses", "--config", str(cfg), "--seed", "7",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        ses_outs.append(out)
    same_ses = all((ses_outs[0] / f.name).read_bytes()
                   == (ses_outs[1] / f.name).read_bytes()
                   for f in sorted(ses_outs[0].iterdir()))
    ok = same_sim and same_ses
    _verdict(10, "determinism", ok,
             "simulate identical %s, ses identical %s" % (same_sim, same_ses))
