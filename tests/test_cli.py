"""End-to-end tests for the command line front end."""
import collections
import contextlib
import io
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monosde import analysis, cli, engine
from monosde.cli import main
from monosde.schemes import KINDS


def _read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().split("\n"):
        if not line:
            continue
        if line.startswith("# "):
            k, v = line[2:].split(": ", 1)
            meta[k] = v
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_writes_expected_files(tmp_path):
    cfg = _write(tmp_path, "run.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                 "run.x0 = 1.0\nrun.n_paths = 256\nrun.horizon = 2.0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    for name in ["series_identity.csv", "moments_p1.csv", "moments_p2.csv",
                 "moments_p4.csv", "run.json"]:
        assert (out / name).exists(), name
    meta, header, rows = _read_csv(out / "series_identity.csv")
    assert meta["seed"] == "3"
    assert meta["tool"].startswith("monosde ")
    assert "config_hash" in meta
    assert header == ["time", "estimate", "stderr", "n_effective", "blowups"]
    assert float(rows[0][1]) == 1.0  # E[g(x)] at t=0 is x0 itself
    doc = json.loads((out / "run.json").read_text())
    assert doc["n_blowups"] == 0
    assert doc["meta"]["scheme"] == "tte"


def test_reruns_are_byte_identical_across_threads(tmp_path):
    cfg = _write(tmp_path, "run.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                 "run.x0 = 1.0\nrun.n_paths = 512\nrun.horizon = 2.0\n")
    outs = []
    for threads, sub in [("1", "a"), ("6", "b")]:
        out = tmp_path / sub
        assert main(["simulate", "--config", cfg, "--seed", "11",
                     "--threads", threads, "--out", str(out)]) == 0
        outs.append(out)
    for f in sorted(outs[0].iterdir()):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name


def test_multi_block_fig1_is_byte_identical_across_threads(tmp_path):
    # a 5000-path reference spans two noise blocks, so two workers split it
    cfg = _write(tmp_path, "f.cfg",
                 "fig1.n_paths = 100\nfig1.ref_paths = 5000\n"
                 "fig1.horizon = 0.25\n")
    outs = []
    for threads, sub in [("1", "a"), ("2", "b")]:
        out = tmp_path / sub
        assert main(["fig1", "--config", cfg, "--seed", "3",
                     "--threads", threads, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_config_error_names_field(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg",
                 "problem.name = fig1\nscheme.delta = -0.05\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scheme.delta" in capsys.readouterr().err


def test_blowup_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.cfg",
                 "problem.name = fig1\nscheme.kind = em\nrun.x0 = 100.0\n"
                 "run.n_paths = 32\nrun.horizon = 1.0\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "blow" in capsys.readouterr().err


def test_order_needs_three_deltas(tmp_path, capsys):
    cfg = _write(tmp_path, "two.cfg",
                 "problem.name = ou\nscheme.kind = em\norder.deltas = [0.2, 0.1]\n")
    rc = main(["order", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "need >= 3 deltas" in capsys.readouterr().err


def test_order_on_ou(tmp_path):
    cfg = _write(tmp_path, "ou.cfg",
                 "problem.name = ou\nscheme.kind = em\nrun.x0 = 1.0\n"
                 "run.n_paths = 4000\nrun.horizon = 3.0\norder.use_exact = true\n")
    out = tmp_path / "o"
    assert main(["order", "--config", cfg, "--seed", "2", "--threads", "4",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "order.json").read_text())
    assert 0.6 <= doc["beta_hat"] <= 1.4
    assert (out / "order.csv").exists()


@pytest.mark.parametrize("kind", ["tamed", "implicit"])
def test_order_refuses_zero_sup_error(tmp_path, capsys, kind):
    # x = 0 is a fixed point of cubic1d (U0(0) = 0, V(0) = 0): every curve
    # equals its reference, so no order can be fitted through log(0)
    cfg = _write(tmp_path, "zero.cfg",
                 "problem.name = cubic1d\nscheme.kind = %s\nrun.x0 = 0\n"
                 "run.n_paths = 16\nrun.horizon = 1.0\n"
                 "order.deltas = [0.2, 0.1, 0.05]\nreference.n_paths = 16\n"
                 % kind)
    out = tmp_path / "o"
    assert main(["order", "--config", cfg, "--out", str(out)]) == 4
    assert "at delta=0.2" in capsys.readouterr().err
    assert not (out / "order.json").exists()


def _assert_finite_outputs(out, names):
    """Every listed file exists and every number in it is finite."""
    for name in names:
        path = out / name
        assert path.exists(), name
        if name.endswith(".csv"):
            _, _, rows = _read_csv(path)
            values = [float(v) for row in rows for v in row]
        else:
            doc = json.loads(path.read_text())
            values = np.hstack([v for k, v in doc.items() if k != "meta"
                                and isinstance(v, (int, float, list))])
        assert len(values) and np.all(np.isfinite(values)), name


def test_order_against_a_reference(tmp_path):
    cfg = _write(tmp_path, "ref.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.alpha = 1.3\n"
                 "run.n_paths = 64\nrun.horizon = 1.0\n"
                 "order.deltas = [0.2, 0.1, 0.05]\n"
                 "reference.delta = 0.0125\nreference.n_paths = 64\n")
    out = tmp_path / "o"
    assert main(["order", "--config", cfg, "--out", str(out)]) == 0
    _assert_finite_outputs(out, ["order.csv", "order.json"])
    doc = json.loads((out / "order.json").read_text())
    assert doc["deltas"] == [0.2, 0.1, 0.05]


def test_local_error_profile(tmp_path):
    cfg = _write(tmp_path, "local.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.alpha = 1.3\n"
                 "local.states = [0, 1, 2, 4]\nlocal.deltas = [0.2, 0.1, 0.05]\n"
                 "local.n_paths = 64\nlocal.inner_factor = 10\n")
    out = tmp_path / "o"
    assert main(["local-error", "--config", cfg, "--out", str(out)]) == 0
    _assert_finite_outputs(out, ["local_error.csv", "local_error.json"])
    _, header, rows = _read_csv(out / "local_error.csv")
    assert header == ["x_norm", "delta", "err", "halfwidth"]
    assert len(rows) == 4 * 3


def test_ses_on_ou(tmp_path):
    cfg = _write(tmp_path, "ses.cfg",
                 "problem.name = ou\nses.n_paths = 128\nses.horizon = 3.0\n"
                 "ses.fine_delta = 0.01\nses.second = false\n")
    out = tmp_path / "o"
    assert main(["ses", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "ses.json").read_text())
    np.testing.assert_allclose(doc["gamma_hat"], 1.005, atol=0.01)
    assert doc["decay_detected"]


def test_ses_nonfinite_curve_exits_nonzero(tmp_path, capsys):
    # every explicit tangent path blows up from x0 = 100; a NaN curve must
    # not pass for a result
    cfg = _write(tmp_path, "ses.cfg",
                 "ses.points = [100.0]\nses.horizon = 5\nses.n_paths = 512\n"
                 "ses.second = false\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        rc = main(["ses", "--config", cfg, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "all 512 paths blew up" in err
    assert not (out / "ses.csv").exists()


def test_ses_far_start_freezes_every_stacked_path(tmp_path, capsys):
    # all starts share one run, and a path freezes as a whole: the start at
    # 100 blows up on every path (as it does in a run of its own), so no
    # path of the joint run survives and no curve is written.
    # test_ses_probe_freezes_on_the_stacked_norm pins the stacked-norm rule
    cfg = _write(tmp_path, "ses.cfg",
                 "ses.points = [1.0, 100.0]\nses.horizon = 5\n"
                 "ses.n_paths = 512\nses.second = false\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        rc = main(["ses", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert "all 512 paths blew up" in capsys.readouterr().err
    assert not (out / "ses.csv").exists()


def test_ses_partial_blowup_exits_nonzero(tmp_path, capsys):
    # from x0 = 14.1 some tangent paths blow up and some do not; a mean over
    # the survivors is biased, so no curve is written
    cfg = _write(tmp_path, "ses.cfg",
                 "ses.points = [14.1]\nses.horizon = 5\nses.n_paths = 512\n"
                 "ses.second = false\n")
    out = tmp_path / "o"
    rc = main(["ses", "--config", cfg, "--out", str(out), "--seed", "0"])
    assert rc == 4
    err = capsys.readouterr().err
    count = re.search(r"(\d+) of 512 paths blew up", err)
    assert count and 0 < int(count.group(1)) < 512, err
    assert not (out / "ses.csv").exists()


def test_check_reports_conditions(tmp_path):
    cfg = _write(tmp_path, "chk.cfg",
                 "problem.name = cubic1d\nproblem.a = 1.0\nproblem.b = 2.0\n")
    out = tmp_path / "o"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "check.json").read_text())
    by_id = {c["condition"]: c for c in doc["conditions"]}
    assert not by_id["2.11"]["passed"]
    assert not doc["overall_pass"]


def test_weak_error_subcommand(tmp_path):
    cfg = _write(tmp_path, "we.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                 "run.x0 = 1.0\nrun.n_paths = 400\nrun.horizon = 2.0\n"
                 "reference.delta = 0.005\nreference.n_paths = 800\n")
    out = tmp_path / "o"
    assert main(["weak-error", "--config", cfg, "--threads", "4",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "weak_error.json").read_text())
    assert doc["sup_error"] >= 0
    assert doc["coupled"] is True
    assert "stderr_undefined_at" not in doc


@pytest.mark.parametrize("command,text,hooks", [
    ("weak-error", "scheme.kind = tte\nscheme.delta = 0.05\nrun.n_paths = 64\n"
     "run.horizon = 1.0\nreference.delta = 0.005\nreference.n_paths = 64\n",
     {"diffusion"}),
    ("ses", "ses.n_paths = 64\nses.horizon = 1.0\nses.second = false\n",
     {"diffusion", "diffusion_jacobians"}),
])
def test_problem_callbacks_are_called_through_the_cli(tmp_path, monkeypatch,
                                                      command, text, hooks):
    # a tracer that wraps the callbacks of the problem make_problem returns
    # must see them called, however the noise map binds them
    calls = collections.Counter()
    make = cli.make_problem

    def traced(name, **params):
        problem = make(name, **params)
        for attr in ("diffusion", "diffusion_jacobians"):
            def wrapped(*args, _fn=getattr(problem, attr), _attr=attr):
                calls[_attr] += 1
                return _fn(*args)
            setattr(problem, attr, wrapped)
        return problem

    monkeypatch.setattr(cli, "make_problem", traced)
    cfg = _write(tmp_path, "run.cfg", "problem.name = fig1\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert hooks <= {attr for attr, k in calls.items() if k}


def test_moments_subcommand_includes_audit(tmp_path):
    cfg = _write(tmp_path, "mo.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                 "run.x0 = 100.0\nrun.n_paths = 200\nrun.horizon = 5.0\n")
    out = tmp_path / "o"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert doc["audit"]["pass"]
    assert doc["sup"]["p2"] <= 100.0**2 + 50.0


def test_fig1_file_bundle(tmp_path):
    # scaled-down protocol, just the file contract and summary shape
    cfg = _write(tmp_path, "f.cfg",
                 "fig1.n_paths = 100\nfig1.ref_paths = 400\n"
                 "fig1.ref_delta = 0.005\nfig1.horizon = 1.0\n")
    out = tmp_path / "o"
    assert main(["fig1", "--config", cfg, "--threads", "4",
                 "--out", str(out)]) == 0
    csvs = sorted(f.name for f in out.iterdir() if f.suffix == ".csv")
    assert len(csvs) == 10  # (reference + tamed + 3 TTE curves) per x0
    assert "fig1_x0-100_reference.csv" in csvs
    doc = json.loads((out / "fig1_summary.json").read_text())
    assert set(doc["curves"]) == {"x0=1", "x0=100"}
    for block in doc["curves"].values():
        assert set(block) == {"tamed", "tte_a1", "tte_a1.3", "tte_a5"}


_SMALL_RUNS = {
    "problem.name": "fig1", "run.n_paths": 16, "run.horizon": 0.5,
    "reference.delta": 0.005, "reference.n_paths": 16,
    "fig1.n_paths": 16, "fig1.ref_paths": 16, "fig1.ref_delta": 0.005,
    "fig1.horizon": 0.5, "local.n_paths": 16, "ses.n_paths": 16,
    "ses.horizon": 0.5, "ses.second": "false",
}


@pytest.mark.parametrize("command,key", [
    ("simulate", "run.n_paths"), ("moments", "run.n_paths"),
    ("weak-error", "reference.n_paths"), ("order", "reference.n_paths"),
    ("fig1", "fig1.n_paths"), ("fig1", "fig1.ref_paths"),
    ("local-error", "local.n_paths"), ("ses", "ses.n_paths"),
])
def test_one_path_is_a_config_error(tmp_path, capsys, command, key):
    # one path has no standard error; the run must not write a nan curve
    settings = dict(_SMALL_RUNS, **{key: 1})
    cfg = _write(tmp_path, "one.cfg",
                 "".join("%s = %s\n" % kv for kv in settings.items()))
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("command,key,value", [
    ("order", "scheme.alpha", -1.0), ("order", "scheme.alpha", 0),
    ("order", "scheme.alpha", "abc"), ("simulate", "scheme.alpha", "abc"),
    ("order", "scheme.kind", "foo"), ("simulate", "scheme.kind", "foo"),
    ("weak-error", "reference.kind", "foo"),
    ("weak-error", "reference.delta", -0.005),
    ("order", "reference.kind", "foo"), ("order", "reference.delta", 0),
])
def test_bad_scheme_or_reference_is_a_config_error(tmp_path, capsys, command,
                                                   key, value):
    settings = dict(_SMALL_RUNS, **{key: value})
    cfg = _write(tmp_path, "bad.cfg",
                 "".join("%s = %s\n" % kv for kv in settings.items()))
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("command,settings,key", [
    ("simulate", {"run.record_dt": 0.12, "scheme.delta": 0.05}, "run.record_dt"),
    ("weak-error", {"run.record_dt": 0.12, "scheme.delta": 0.05},
     "run.record_dt"),
    ("moments", {"run.record_dt": 0.12, "scheme.delta": 0.05}, "run.record_dt"),
    ("ses", {"problem.name": "coupled2d", "ses.fine_delta": 0.02},
     "ses.record_dt"),
    ("simulate", {"run.horizon": 0.6, "run.record_dt": 0.25}, "run.horizon"),
    ("ses", {"ses.horizon": 0.6}, "ses.horizon"),
    ("fig1", {"fig1.horizon": 0.27}, "fig1.horizon"),
    ("weak-error", {"reference.delta": 0.003}, "reference.delta"),
    ("weak-error", {"reference.delta": 0.02}, "reference.delta"),
    ("order", {"order.deltas": [0.2, 0.1, 0.05], "run.horizon": 0.4,
               "reference.delta": 0.003}, "reference.delta"),
    ("order", {"order.deltas": [0.2, 0.1, 0.05], "run.horizon": 0.4,
               "reference.delta": 0.02}, "reference.delta"),
    ("order", {"order.deltas": [0.2, 0.1, 0.05]}, "run.horizon"),
])
def test_off_grid_record_dt_or_horizon_is_a_config_error(tmp_path, capsys,
                                                         command, settings,
                                                         key):
    settings = dict(_SMALL_RUNS, **settings)
    cfg = _write(tmp_path, "grid.cfg",
                 "".join("%s = %s\n" % kv for kv in settings.items()))
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not list(out.iterdir())


def test_moments_runs_its_ensemble_once(tmp_path, monkeypatch):
    calls = []
    simulate = engine._simulate

    def counting(runs):
        calls.append(len(runs))
        return simulate(runs)

    monkeypatch.setattr(engine, "_simulate", counting)
    cfg = _write(tmp_path, "mo.cfg",
                 "problem.name = fig1\nscheme.kind = tte\nscheme.delta = 0.05\n"
                 "run.x0 = 100.0\nrun.n_paths = 200\nrun.horizon = 5.0\n")
    assert main(["moments", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == [1]


def test_json_config_accepted(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"problem": {"name": "ou"},
                             "scheme": {"kind": "em", "delta": 0.05},
                             "run": {"x0": 1.0, "n_paths": 64, "horizon": 1.0}}))
    assert main(["simulate", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 0


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "monosde" in capsys.readouterr().out


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_seed_must_be_nonnegative(tmp_path, capsys):
    rc = main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o")])
    assert rc == 2


def _strict_json(path):
    def reject(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("command,name", [("simulate", "run.json"),
                                          ("moments", "moments.json")])
def test_single_survivor_flags_undefined_stderr(tmp_path, command, name):
    # explicit Euler from 3 blows up 3 of the 4 paths at seed 2; one
    # survivor has no standard error, which the JSON must say, not print nan
    cfg = _write(tmp_path, "one.cfg",
                 "problem.name = fig1\nscheme.kind = em\nscheme.delta = 0.2\n"
                 "run.record_dt = 0.2\nrun.x0 = 3.0\nrun.n_paths = 4\n"
                 "run.horizon = 2.0\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--seed", "2",
                 "--out", str(out)]) == 0
    doc = _strict_json(out / name)
    assert doc["n_blowups"] == 3
    rows = _read_csv(out / "moments_p2.csv")[2]
    alone = [float(r[0]) for r in rows if int(r[3]) < 2]
    assert alone and alone[-1] == 2.0
    assert doc["stderr_undefined_at"] == alone
    if command == "simulate":
        assert doc["final"]["stderr"] is None


def test_weak_error_flags_undefined_halfwidths(tmp_path):
    # explicit Euler from 2.8 leaves one of the 3 curve paths from t = 1.5 at
    # seed 3; a half-width there would count only the reference's standard
    # error, so it is undefined, and no plateau is decided from it
    cfg = _write(tmp_path, "we.cfg",
                 "problem.name = fig1\nscheme.kind = em\nscheme.delta = 0.25\n"
                 "run.x0 = 2.8\nrun.n_paths = 3\nrun.horizon = 2.0\n"
                 "run.record_dt = 0.5\n")
    out = tmp_path / "o"
    assert main(["weak-error", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    doc = _strict_json(out / "weak_error.json")
    assert doc["stderr_undefined_at"] == [1.5, 2.0]
    assert doc["plateau"] is None and doc["max_halfwidth"] is None
    _, header, rows = _read_csv(out / "weak_error.csv")
    hw = {float(r[0]): float(r[header.index("halfwidth")]) for r in rows}
    assert [t for t, v in hw.items() if not np.isfinite(v)] == [1.5, 2.0]


def _undefined_from(compare, start):
    """compare with the standard errors from record index start on nan, as
    where fewer than two paths survive."""
    def undefined(curve, ref):
        err, se = compare(curve, ref)
        se = se.copy()
        se[start:] = np.nan
        return err, se
    return undefined


def test_fig1_flags_undefined_comparisons(tmp_path, monkeypatch):
    # a curve whose last comparison has no standard error gets no within_3se
    monkeypatch.setattr(cli, "_compare", _undefined_from(cli._compare, -1))
    cfg = _write(tmp_path, "f.cfg", "".join(
        "%s = %s\n" % kv for kv in _SMALL_RUNS.items() if kv[0][:5] == "fig1."))
    out = tmp_path / "o"
    assert main(["fig1", "--config", cfg, "--out", str(out)]) == 0
    doc = _strict_json(out / "fig1_summary.json")
    for block in doc["curves"].values():
        for curve in block.values():
            assert curve["within_3se"] is None
            assert curve["stderr_undefined_at"] == [0.5]


def test_order_refuses_an_undefined_halfwidth(tmp_path, capsys, monkeypatch):
    # the order fit weights each sup error by its half-width
    monkeypatch.setattr(analysis, "_compare",
                        _undefined_from(analysis._compare, 0))
    cfg = _write(tmp_path, "o.cfg", "".join(
        "%s = %s\n" % kv for kv in _SMALL_RUNS.items()) + "scheme.kind = em\n"
        "order.deltas = [0.1, 0.05, 0.025]\nrun.x0 = 2.0\n")
    out = tmp_path / "o"
    assert main(["order", "--config", cfg, "--out", str(out)]) == 4
    assert "is undefined" in capsys.readouterr().err
    assert not (out / "order.json").exists()


def test_defined_stderr_writes_no_flag(tmp_path):
    cfg = _write(tmp_path, "ok.cfg", "problem.name = fig1\nrun.n_paths = 16\n"
                 "run.horizon = 0.5\n")
    for command, name in [("simulate", "run.json"), ("moments", "moments.json")]:
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        doc = _strict_json(out / name)
        assert "stderr_undefined_at" not in doc


@pytest.mark.parametrize("command", ["simulate", "moments", "weak-error",
                                     "order"])
def test_scalar_start_on_two_components(tmp_path, command):
    # a scalar run.x0 on coupled2d starts every component there: the data
    # equal those of the vector start, and only the headers differ
    keys = dict(_SMALL_RUNS, **{"problem.name": "coupled2d",
                                    "order.deltas": [0.1, 0.05, 0.025]})
    outs = []
    for x0 in ("1.5", "[1.5, 1.5]"):
        cfg = _write(tmp_path, "s.cfg", "".join(
            "%s = %s\n" % kv for kv in keys.items()) + "run.x0 = %s\n" % x0)
        outs.append(tmp_path / ("x0-%d" % len(outs)))
        assert main([command, "--config", cfg, "--out", str(outs[-1])]) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        a, b = (out / name for out in outs)
        if name.endswith(".csv"):
            assert _read_csv(a)[1:] == _read_csv(b)[1:], name
        else:
            doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
            assert doc_a.pop("meta") != doc_b.pop("meta")
            assert doc_a == doc_b, name


@pytest.mark.parametrize("problem,x0", [("coupled2d", "[1, 2, 3]"),
                                        ("fig1", "[1, 2]")])
@pytest.mark.parametrize("command", ["simulate", "moments", "weak-error",
                                     "order"])
def test_wrong_length_start_is_a_config_error(tmp_path, capsys, command,
                                              problem, x0):
    keys = dict(_SMALL_RUNS, **{"problem.name": problem})
    cfg = _write(tmp_path, "x0.cfg", "".join(
        "%s = %s\n" % kv for kv in keys.items()) + "run.x0 = %s\n" % x0)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "run.x0" in capsys.readouterr().err
    assert not list(out.iterdir())


_SWEEP_SIZES = {
    "run.n_paths": 16, "run.horizon": 0.5, "scheme.delta": 0.05,
    "reference.delta": 0.005, "reference.n_paths": 16,
    "order.deltas": [0.1, 0.05, 0.025],
    "local.n_paths": 16, "local.deltas": [0.1, 0.05], "local.inner_factor": 4,
    "fig1.n_paths": 16, "fig1.ref_paths": 16, "fig1.ref_delta": 0.005,
    "fig1.horizon": 0.5, "ses.n_paths": 16, "ses.horizon": 0.5,
    "check.samples": 100,
}
_DIMS = {"fig1": 1, "cubic1d": 1, "coupled2d": 2, "ou": 1}


def _numbers_are_finite(out):
    """Every JSON number is finite (JSON holds no nan), and so is every CSV
    number, but for the stderr and half-width columns at the record times
    some document lists under stderr_undefined_at."""
    undefined = set()

    def walk(doc):
        if isinstance(doc, dict):
            undefined.update(doc.get("stderr_undefined_at", ()))
            for value in doc.values():
                walk(value)

    for path in out.glob("*.json"):
        walk(_strict_json(path))
    for path in out.glob("*.csv"):
        _, header, rows = _read_csv(path)
        for row in rows:
            for name, value in zip(header, row):
                ok = math.isfinite(float(value)) or (
                    ("stderr" in name or "halfwidth" in name)
                    and float(row[0]) in undefined)
                assert ok, (path.name, name, row)


def _sweep_run(argv, out):
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    return code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(cli._HANDLERS)),
       problem=st.sampled_from(sorted(_DIMS)),
       kind=st.sampled_from(KINDS),
       start=st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 2)),
       vector=st.booleans(), seed=st.integers(0, 999))
@example(command="simulate", problem="coupled2d", kind="tte", start=1.5,
         vector=False, seed=3)
@example(command="moments", problem="coupled2d", kind="tte", start=-2.0,
         vector=False, seed=1)
def test_tiny_runs_exit_cleanly_with_finite_reproducible_outputs(
        command, problem, kind, start, vector, seed):
    x0 = [start] * _DIMS[problem] if vector else start
    keys = dict(_SWEEP_SIZES, **{
        "problem.name": problem, "scheme.kind": kind, "run.x0": x0,
        "local.states": [0.0, x0], "ses.points": [x0]})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = _write(tmp, "sweep.cfg", "".join(
            "%s = %s\n" % (k, json.dumps(v)) for k, v in keys.items()))
        argv = [command, "--config", cfg, "--seed", str(seed)]
        code, files = _sweep_run(argv + ["--threads", "1"], tmp / "a")
        assert code in (0, 2, 3, 4)
        if code != 0:
            return
        _numbers_are_finite(tmp / "a")
        assert _sweep_run(argv + ["--threads", "1"], tmp / "b") == (0, files)
        assert _sweep_run(argv + ["--threads", "3"], tmp / "c") == (0, files)


def _refused(tmp_path, command, keys):
    """Run command on keys; return its exit code and stderr, failing the
    test if an exception escapes main or any output file is written."""
    cfg = _write(tmp_path, "bad.cfg", "".join(
        "%s = %s\n" % (k, json.dumps(v)) for k, v in keys.items()))
    out = tmp_path / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(out)])
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))
    return code, err.getvalue()


_NAN = float("nan")


@pytest.mark.parametrize("command,problem,key,value,named", [
    ("simulate", "fig1", "run.moment_orders", 5, None),
    ("simulate", "fig1", "run.moment_orders", ["a"], None),
    ("moments", "fig1", "run.moment_orders", [1, _NAN], None),
    ("order", "fig1", "order.deltas", 5, None),
    ("ses", "fig1", "ses.points", 5, None),
    ("local-error", "fig1", "local.states", 5, None),
    ("fig1", "fig1", "fig1.x0s", [[1, 2]], None),
    ("simulate", "fig1", "run.threads", "x", None),
    ("simulate", "fig1", "rng.master_seed", "abc", None),
    ("simulate", "fig1", "run.record_dt", "abc", None),
    ("weak-error", "fig1", "run.x0", "abc", None),
    ("ses", "coupled2d", "ses.points", [[1, 2, 3]], None),
    ("local-error", "coupled2d", "local.states", [[1, 2, 3]], None),
    ("ses", "fig1", "ses.points", [_NAN], None),
    ("simulate", "fig1", "problem.a", 5, "'a'"),
    ("simulate", "cubic1d", "problem.rate", 5, "'rate'"),
    ("fig1", "fig1", "fig1.alphas", [-1.0], None),
    ("fig1", "fig1", "fig1.alphas", [0.0], None),
    ("fig1", "fig1", "fig1.x0s", [_NAN], None),
    ("local-error", "fig1", "local.deltas", [-0.1, 0.1, 0.05], None),
    ("order", "fig1", "order.deltas", [0.1, 0.05, -0.025], None),
    ("order", "fig1", "run.record_dt", -0.5, None),
])
def test_malformed_value_is_a_config_error(tmp_path, command, problem, key,
                                           value, named):
    keys = dict(_SWEEP_SIZES, **{"problem.name": problem, key: value})
    code, err = _refused(tmp_path, command, keys)
    assert code == 2, err
    assert (named or repr(key)) in err


# each list or start key, with the commands that read it and whether its
# value (or each entry of it) is a start
_LIST_AND_START_KEYS = {
    "run.x0": (("simulate", "moments", "weak-error", "order"), True),
    "run.moment_orders": (("simulate", "moments"), False),
    "fig1.alphas": (("fig1",), False), "fig1.x0s": (("fig1",), False),
    "order.deltas": (("order",), False), "local.deltas": (("local-error",), False),
    "local.states": (("local-error",), True), "ses.points": (("ses",), True),
}


@st.composite
def _malformed(draw):
    """(command, problem, key, value) with one malformed list or start key."""
    key = draw(st.sampled_from(sorted(_LIST_AND_START_KEYS)))
    commands, start = _LIST_AND_START_KEYS[key]
    problem = draw(st.sampled_from(sorted(_DIMS)))
    v = draw(st.floats(-3.0, 3.0, allow_nan=False))
    word = draw(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6))
    forms = {"string": word, "nested": [[[v]]], "nan": _NAN}
    if start:
        forms["wrong length"] = [v] * draw(st.integers(_DIMS[problem] + 1, 4))
    if key != "run.x0":
        forms = {name: [value] for name, value in forms.items()}
        forms.update(scalar=v, string=word)
    value = forms[draw(st.sampled_from(sorted(forms)))]
    return draw(st.sampled_from(commands)), problem, key, value


@settings(max_examples=60, deadline=None)
@given(case=_malformed())
def test_malformed_list_or_start_is_a_config_error(case):
    # ROADMAP item 3's sweep over malformed values
    command, problem, key, value = case
    keys = dict(_SWEEP_SIZES, **{"problem.name": problem, key: value})
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _refused(pathlib.Path(tmp), command, keys)
    assert code == 2, err
    assert repr(key) in err
