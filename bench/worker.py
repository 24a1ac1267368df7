"""One benchmark run in a fresh process: a closed loop over a workload.

run.py starts this script; it is not meant to be run by hand:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \\
        --work DIR --result FILE [--setup-only]

The process imports monosde from ``src/``, parses the workload's config files
(written to DIR by run.py) and notes the moment it is ready for its first CLI
call. With --setup-only it stops there. Otherwise one client repeats the
workload, one ``monosde.cli.main`` call after the other with ``--threads 2``,
until the next iteration would end after S seconds (at least three
iterations, or four when tracing). After every iteration it checks each
call's outputs and hashes its output files.

With --trace 1 every second iteration runs with the tracer of spans.py
installed; the others run untraced, so the run also measures the tracing
overhead. The first traced iteration fails the run when a hook the workload
must hit was never called.

The result goes to FILE as one JSON object.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import monosde.cli as cli                   # noqa: E402
from monosde.config import load_config      # noqa: E402

import spans                                # noqa: E402
import workloads                            # noqa: E402

MAX_LOOP_S = 120.0   # no iteration starts after this, whatever --seconds says


def _call(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return "SystemExit(%r)" % (exc.code,)
    except Exception:
        traceback.print_exc()
        return "exception"


def _digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check(op, code, out_dir):
    if code != 0:
        return ["%s: exit code %s" % (op.label, code)]
    try:
        problems = op.check(out_dir) + workloads.finite_outputs(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = ["output check raised %r" % exc]
    return ["%s: %s" % (op.label, p) for p in problems]


def _iteration(ops, tracer, workload):
    for _, _, out_dir in ops:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        codes = [_call(argv) for _, argv, _ in ops]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    it = {"wall": wall, "traced": tracer is not None,
          "problems": [], "digests": [], "notes": []}
    for (op, _, out), code in zip(ops, codes):
        problems = _check(op, code, out)
        it["problems"].append(problems)
        it["digests"].append(_digest(out))
        if op.note is not None and not problems:
            it["notes"].append(op.note(out))
    if tracer is not None:
        recorded, seen = tracer.take()
        missing = sorted(workload.required_hooks - seen)
        if missing:
            raise spans.HookError("hooks never hit on workload %s: %s"
                                  % (workload.name, ", ".join(missing)))
        it["layers"] = spans.layer_metrics(recorded, wall)
    return it


def _summary(iters, workload):
    """attempted / failed operations, with digest consensus per operation."""
    attempted = failed = 0
    problems = []
    for i in range(len(workload.ops)):
        modal, _ = Counter(it["digests"][i] for it in iters).most_common(1)[0]
        for it in iters:
            attempted += 1
            bad = list(it["problems"][i])
            if it["digests"][i] != modal:
                bad.append("%s: output digest differs from the other iterations"
                           % workload.ops[i].label)
            failed += bool(bad)
            problems += bad
    run_digest = hashlib.sha256("".join(
        Counter(it["digests"][i] for it in iters).most_common(1)[0][0]
        for i in range(len(workload.ops))).encode()).hexdigest()
    return attempted, failed, sorted(set(problems)), run_digest


def _layers(iters):
    traced = [it for it in iters if it["traced"]]
    untraced = [it["wall"] for it in iters if not it["traced"]]
    out = {}
    for k in traced[0]["layers"]:
        values = [it["layers"][k] for it in traced]
        # counts repeat exactly, so keep them whole
        pick = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        out[k] = pick(values)
    out["trace.wall_s"] = statistics.median(it["wall"] for it in traced)
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    workload = workloads.WORKLOADS[args.workload]
    ops = []
    for i, op in enumerate(workload.ops):
        cfg = work / ("%d-%s.cfg" % (i, op.label))
        load_config(cfg)
        out_dir = work / ("out-%d" % i)
        ops.append((op, workloads.argv(op, cfg, args.seed, out_dir), out_dir))
    ready = time.monotonic()
    result = {"ready": ready}

    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        min_iters = 4 if tracer else 3
        iters = []
        start = time.monotonic()
        while True:
            trace_this = tracer if len(iters) % 2 == 1 else None
            try:
                iters.append(_iteration(ops, trace_this, workload))
            except spans.HookError as exc:
                print("bench: %s" % exc, file=sys.stderr)
                return 3
            elapsed = time.monotonic() - start
            typical = statistics.median(it["wall"] for it in iters)
            if elapsed + typical > MAX_LOOP_S:
                break
            if len(iters) >= min_iters and elapsed + typical > args.seconds:
                break
        attempted, failed, problems, digest = _summary(iters, workload)
        result.update({
            "walls": [it["wall"] for it in iters if not it["traced"]],
            "traced_walls": [it["wall"] for it in iters if it["traced"]],
            "attempted": attempted, "failed": failed, "problems": problems,
            "notes": sorted({n for it in iters for n in it["notes"]}),
            "digest": digest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if tracer is not None:
            if not result["traced_walls"]:
                print("bench: no traced iteration fit in the run", file=sys.stderr)
                return 3
            result["layers"] = _layers(iters)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
