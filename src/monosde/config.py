"""Flat dotted-key experiment configuration.

Grammar (one assignment per line):

    # comment
    problem.name = fig1
    scheme.kind = tte
    scheme.delta = 0.05
    order.deltas = [0.2, 0.1, 0.05, 0.025]

Values are parsed as JSON when possible (numbers, booleans, lists, quoted
strings) and kept as bare strings otherwise, so `problem.name = fig1` and
`problem.name = "fig1"` mean the same thing. A JSON object file is accepted
as an alternative input; nested objects flatten into dotted keys.
"""

import hashlib
import json


class ConfigError(Exception):
    """Bad or missing configuration; the message names the offending field."""


_MISSING = object()


def parse_config_text(text):
    """Parse the dotted-key format into a flat dict.

    Raises:
        ConfigError: with the line number for unparseable lines.
    """
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("line %d: empty key" % lineno)
        if key in cfg:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        try:
            cfg[key] = json.loads(value)
        except (json.JSONDecodeError, ValueError):
            cfg[key] = value
    return cfg


def _flatten(obj, prefix, out):
    """Flatten nested objects into dotted keys, rejecting every key that
    serialize_config could not write as its own 'key = value' line."""
    for k, v in obj.items():
        key = "%s.%s" % (prefix, k) if prefix else str(k)
        if isinstance(v, dict):
            _flatten(v, key, out)
            continue
        if (key.splitlines() != [key] or key != key.strip() or "=" in key
                or key.startswith("#")):
            raise ConfigError("config key %r: a key must be one line without "
                              "'=', a leading '#' or surrounding spaces" % key)
        if key in out:
            raise ConfigError("duplicate config key %r" % key)
        out[key] = v
    return out


def load_config(path):
    """Load a config file: dotted-key text, or a JSON object (flattened)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    stripped = text.lstrip()
    if str(path).endswith(".json") or stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON config %s: %s" % (path, exc))
        if not isinstance(obj, dict):
            raise ConfigError("JSON config %s must be an object" % path)
        return _flatten(obj, "", {})
    return parse_config_text(text)


def serialize_config(cfg):
    """Canonical text form: sorted keys, JSON-encoded values.

    parse_config_text(serialize_config(cfg)) == cfg for JSON-representable
    values, which is the round-trip the file format promises.
    """
    lines = ["%s = %s" % (k, json.dumps(cfg[k])) for k in sorted(cfg)]
    return "\n".join(lines) + ("\n" if lines else "")


def config_hash(cfg):
    """16-hex-char digest of the canonical serialization.

    run.threads is excluded: it caps workers without affecting results, so
    two runs differing only in thread count hash (and compare) equal.
    """
    trimmed = {k: v for k, v in cfg.items() if k != "run.threads"}
    digest = hashlib.sha256(serialize_config(trimmed).encode("utf-8"))
    return digest.hexdigest()[:16]


def get_value(cfg, key, default=_MISSING, cast=None):
    """Fetch cfg[key] with an optional cast; ConfigError names the field."""
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError("missing required config key %r" % key)
        return default
    value = cfg[key]
    if cast is not None:
        try:
            return cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError("config key %r: cannot read %r as %s (%s)"
                              % (key, value, getattr(cast, "__name__", cast), exc))
    return value


def require_positive(cfg, key, value):
    if not (value > 0):
        raise ConfigError("config key %r must be positive, got %r" % (key, value))
    return value
