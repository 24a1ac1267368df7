"""CSV and JSON writers with reproducibility headers.

Every file starts with (or carries, for JSON) the tool version, the config
hash, and the master seed, so any output can be traced back to the exact
run that produced it. Floats are written with repr, which round-trips
exactly, and the writers are deterministic: the same data yields the same
bytes.
"""

import json

import numpy as np


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, meta, columns):
    """Write columns as CSV preceded by '# key: value' header lines.

    Args:
        path: output file.
        meta: list of (key, value) pairs, written in the given order.
        columns: list of (name, sequence) pairs of equal lengths; scalar
            entries are repeated to the common length.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(col) for _, col in columns]
    lengths = [arr.shape[0] for arr in arrays if arr.ndim > 0]
    length = lengths[0] if lengths else 0
    for name, arr in zip(names, arrays):
        if arr.ndim > 0 and arr.shape[0] != length:
            raise ValueError("column %r has length %d, expected %d"
                             % (name, arr.shape[0], length))
    arrays = [arr if arr.ndim > 0 else np.broadcast_to(arr, (length,))
              for arr in arrays]
    lines = ["# %s: %s" % (k, format_value(v)) for k, v in meta]
    lines.append(",".join(names))
    for i in range(length):
        lines.append(",".join(format_value(arr[i]) for arr in arrays))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON-serializable: %r" % type(obj))


def write_json(path, meta, payload):
    """Write payload under a 'meta' header block; keys sorted, 2-space indent.

    Raises:
        ValueError: the document holds a NaN or infinite float, which JSON
            cannot represent; no file is written.
    """
    doc = {"meta": dict(meta)}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default,
                      allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def standard_meta(version, cfg_hash, seed, extra=()):
    """The (tool, config_hash, seed) header triple plus any extras."""
    meta = [("tool", "monosde %s" % version),
            ("config_hash", cfg_hash),
            ("seed", int(seed))]
    meta.extend(extra)
    return meta
