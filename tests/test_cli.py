"""End-to-end tests for the command line front end."""
import json
import re

import numpy as np
import pytest

from monosde import engine
from monosde.cli import main


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


def test_defined_stderr_writes_no_flag(tmp_path):
    cfg = _write(tmp_path, "ok.cfg", "problem.name = fig1\nrun.n_paths = 16\n"
                 "run.horizon = 0.5\n")
    for command, name in [("simulate", "run.json"), ("moments", "moments.json")]:
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        doc = _strict_json(out / name)
        assert "stderr_undefined_at" not in doc
