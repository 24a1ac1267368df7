"""Tests for CSV/JSON writers."""
import json

import numpy as np
import pytest

from monosde.output import format_value, standard_meta, write_csv, write_json


def test_format_value_round_trips_floats():
    for v in [0.1, 1.0 / 3.0, 1e-17, -2.5e300]:
        assert float(format_value(v)) == v
    assert format_value(True) == "true"
    assert format_value(7) == "7"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, [("seed", 3), ("tool", "monosde")],
              [("time", np.array([0.0, 0.5])), ("value", np.array([1.0, 0.25]))])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "# seed: 3"
    assert lines[1] == "# tool: monosde"
    assert lines[2] == "time,value"
    assert lines[3].split(",")[0] == "0.0"
    assert "\r" not in text


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [],
                  [("a", np.array([1.0])), ("b", np.array([1.0, 2.0]))])


def test_write_csv_scalar_columns_broadcast(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, [], [("t", np.array([0.0, 1.0])), ("n", 32)])
    rows = [l for l in path.read_text().strip().split("\n") if not l.startswith("#")]
    assert rows[1].split(",")[1] == "32"
    assert rows[2].split(",")[1] == "32"


def test_write_json_meta_and_numpy(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, [("seed", 1)], {"vals": np.array([1.0, 2.0]),
                                     "flag": np.bool_(True),
                                     "n": np.int64(5)})
    doc = json.loads(path.read_text())
    assert doc["meta"]["seed"] == 1
    assert doc["vals"] == [1.0, 2.0]
    assert doc["flag"] is True
    assert doc["n"] == 5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), np.array([1.0, np.inf])])
def test_write_json_refuses_non_finite_floats(tmp_path, bad):
    # bare NaN or Infinity is not JSON; the file must not appear at all
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        write_json(path, [("seed", 1)], {"value": bad})
    assert not path.exists()


def test_standard_meta_order():
    meta = standard_meta("0.1.0", "abc123", 7, extra=[("x0", 1.0)])
    keys = [k for k, _ in meta]
    assert keys == ["tool", "config_hash", "seed", "x0"]
    assert meta[0][1] == "monosde 0.1.0"
