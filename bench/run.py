"""Protocol benchmark for monosde: one workload, one seed, one run.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workloads are the paper's protocols,
driven through ``monosde.cli.main`` (see workloads.py and README.md). A run
first starts the worker a few times with --setup-only to time set-up, then
once for the measured closed loop, each in a fresh Python process. It prints
a short report and, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the ``end_to_end`` metrics of BENCHMARK.json,
with --trace 1 the ``per_layer`` ones. The exit code is 0 whenever that line
is printed; it is not 0, and nothing is printed, when the checkout holds no
monosde sources, a worker fails, or a trace hook was never hit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE_S = 170.0   # the whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def _worker(args, work, result, extra, timeout):
    """Run worker.py once; returns (monotonic start time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd + extra, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish within %.0f s" % timeout)
    if code != 0:
        raise BenchError("worker exited with code %d" % code)
    with open(result, encoding="utf-8") as fh:
        return start, json.load(fh)


def _measure(args, workload, work, began):
    work.mkdir(parents=True)
    for i, op in enumerate(workload.ops):
        (work / ("%d-%s.cfg" % (i, op.label))).write_text(
            workloads.config_text(op.config), encoding="utf-8")
    result = work / "result.json"
    setups = []
    for _ in range(SETUP_PROBES):
        start, probe = _worker(args, work, result, ["--setup-only"],
                               DEADLINE_S - (time.monotonic() - began))
        setups.append(probe["ready"] - start)
    start, res = _worker(args, work, result, [], DEADLINE_S - (time.monotonic() - began))
    setups.append(res["ready"] - start)
    res["setups"] = setups
    return res


def _end_to_end(res, workload):
    wall = statistics.median(res["walls"])
    return {"wall_s": wall,
            "path_steps_per_s": workload.path_steps / wall,
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"]}


def _report(args, res, values):
    fail_frac = res["failed"] / res["attempted"]
    print("workload %s  seed %d  trace %d  ops %d  failed %d  fail_frac %g"
          % (args.workload, args.seed, args.trace, res["attempted"], res["failed"], fail_frac))
    print("digest %s" % res["digest"][:16])
    walls = res["walls"]
    print("wall_s median %.4f of %d iterations (min %.4f, max %.4f)"
          % (statistics.median(walls), len(walls), min(walls), max(walls)))
    print("setup_s median %.4f of %d starts" % (statistics.median(res["setups"]),
                                                len(res["setups"])))
    for name, value in values.items():
        print("  %-28s %.6g" % (name, value))
    for line in res["notes"] + res["problems"]:
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "monosde" / "cli.py").is_file():
        print("bench: no monosde sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.seed < 0:
        print("bench: --seed must be nonnegative", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        res = _measure(args, workload, work, began)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    values = res["layers"] if args.trace else _end_to_end(res, workload)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print("bench: metrics declared but not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    _report(args, res, values)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
