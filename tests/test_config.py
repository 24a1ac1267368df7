"""Tests for config parsing, serialization, and hashing."""
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosde.cli import main
from monosde.config import (ConfigError, _flatten, config_hash, get_value,
                            load_config, parse_config_text, require_positive,
                            serialize_config)


def test_parse_dotted_keys_and_types():
    cfg = parse_config_text(
        "problem.name = fig1\n"
        "scheme.delta = 0.05\n"
        "# a comment line\n"
        "run.n_paths = 1000\n"
        "flags.fast = true\n"
        "order.deltas = [0.2, 0.1, 0.05]\n")
    assert cfg["problem.name"] == "fig1"
    assert cfg["scheme.delta"] == 0.05
    assert cfg["run.n_paths"] == 1000
    assert cfg["flags.fast"] is True
    assert cfg["order.deltas"] == [0.2, 0.1, 0.05]


def test_parse_quoted_strings():
    cfg = parse_config_text('label = "a b c"\n')
    assert cfg["label"] == "a b c"


def test_duplicate_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config_text("a = 1\na = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_round_trip_is_lossless():
    cfg = {"problem.name": "fig1", "scheme.delta": 0.05,
           "run.x0": -3.5, "order.deltas": [0.2, 0.1], "flags.on": False,
           "run.n_paths": 4096}
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_round_trip_preserves_float_precision():
    cfg = {"a.b": 0.1 + 0.2, "c.d": 1e-300}
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_load_config_text_and_json(tmp_path):
    p1 = tmp_path / "run.cfg"
    p1.write_text("problem.name = ou\nscheme.delta = 0.1\n")
    assert load_config(p1)["problem.name"] == "ou"

    p2 = tmp_path / "run.json"
    p2.write_text(json.dumps({"problem": {"name": "ou"}, "scheme": {"delta": 0.1}}))
    cfg = load_config(p2)
    assert cfg["problem.name"] == "ou"
    assert cfg["scheme.delta"] == 0.1


def test_config_hash_ignores_thread_count():
    cfg = {"problem.name": "fig1", "run.threads": 1}
    assert config_hash(cfg) == config_hash({**cfg, "run.threads": 16})
    assert config_hash(cfg) != config_hash({**cfg, "problem.name": "ou"})


def test_get_value_casts_and_reports_key():
    cfg = {"run.n_paths": "512"}
    assert get_value(cfg, "run.n_paths", cast=int) == 512
    assert get_value(cfg, "run.horizon", 10.0, float) == 10.0
    with pytest.raises(ConfigError, match="run.missing"):
        get_value(cfg, "run.missing")
    with pytest.raises(ConfigError, match="run.n_paths"):
        get_value({"run.n_paths": "abc"}, "run.n_paths", cast=int)


def test_require_positive():
    require_positive({"k": 1}, "k", 1.0)
    with pytest.raises(ConfigError, match="'k'"):
        require_positive({"k": -1}, "k", -1.0)


@pytest.mark.parametrize("obj", [
    {"a=b": 1}, {"#a": 1}, {" a": 1}, {"a ": 1}, {"": 1}, {"a = 1\nb": 2},
    {"a\rb": 1}, {"a\u2028b": 1}, {"run": {"x=y": 1}},
    {"a": {"b": 1}, "a.b": 2}])
def test_json_keys_that_cannot_round_trip_are_rejected(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=re.escape(repr(_last_key(obj)))):
        load_config(path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


def _last_key(obj, prefix=""):
    k, v = list(obj.items())[-1]
    key = "%s.%s" % (prefix, k) if prefix else k
    return _last_key(v, key) if isinstance(v, dict) else key


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@settings(max_examples=200)
@given(cfg=st.dictionaries(st.text(), _json_values, max_size=6))
def test_flattened_configs_round_trip(cfg):
    # every key _flatten accepts survives the text format, and so does its
    # value; a key it rejects is one the text format would change
    try:
        flat = _flatten(cfg, "", {})
    except ConfigError:
        return
    assert flat == cfg
    assert parse_config_text(serialize_config(flat)) == flat


@given(cfg=st.dictionaries(
    st.from_regex(r"[a-z_][a-z0-9_]*(\.[a-z0-9_]+){0,2}", fullmatch=True),
    _json_values, min_size=1, max_size=6))
def test_dotted_configs_round_trip(cfg):
    assert _flatten(cfg, "", {}) == cfg
    assert parse_config_text(serialize_config(cfg)) == cfg
