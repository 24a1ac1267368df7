"""Outside-in tracing of monosde's layers, from the benchmark's own files.

The tracer wraps the public entry points each module binds, records one
span per call (key, start, end, parent, a work count, process CPU time) in
memory, and turns the spans of one workload iteration into per-layer
metrics. Nothing under ``src/`` is changed: wrapping replaces every binding
of an entry point across the loaded ``monosde`` modules, and uninstalling
puts the originals back.

A span's parent is the innermost open span on its own thread. A span opened
on a pool thread with nothing open on that thread belongs to the innermost
span open on the thread that installed the tracer, which is the
``simulate_ensemble`` call that started the pool. A span's self time is its
duration minus the part of that interval its child spans cover.
"""

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict


class HookError(RuntimeError):
    """An entry point the tracer must wrap is gone, or was never called."""


def _states(x):
    shape = getattr(x, "shape", ())
    return math.prod(shape[:-1]) if shape else 1


def _first_arg_states(args, kwargs, out):
    return _states(args[0])


def _solve_states(args, kwargs, out):
    return _states(args[1])


def _result_size(args, kwargs, out):
    return out.size


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _scheduled_path_steps(args, kwargs, out):
    scheme, spec = args[1], args[2]
    return spec.n_paths * int(round(spec.horizon / scheme.delta))


# callbacks of every SdeProblem that cli.make_problem returns
PROBLEM_CALLBACKS = [("drift", "problems.drift"),
                     ("diffusion", "problems.diffusion"),
                     ("drift_jacobian", "problems.drift_jacobian"),
                     ("diffusion_jacobians", "problems.diffusion_jacobians")]


class Tracer:
    def __init__(self):
        self.spans = []     # (id, parent id, key, start, end, count, cpu seconds)
        self.seen = set()   # every hook key called since the last take()
        self._local = threading.local()
        self._main = []     # span stack of the thread that installs the tracer
        self._ids = itertools.count(1)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key, fn, size=None, cpu=False):
        """Return fn recording one span per call under key."""
        spans, seen, ids, main = self.spans, self.seen, self._ids, self._main
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            done = False
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = time.perf_counter()
                cpu_s = time.process_time() - c0 if cpu else 0.0
                stack.pop()
                count = size(args, kwargs, out) if size is not None and done else 0
                seen.add(key)
                spans.append((sid, parent, key, t0, t1, count, cpu_s))

        return traced

    def mark(self, key, fn, after):
        """Return fn that records no span but notes the call and passes the
        result through after(result)."""
        seen = self.seen

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            seen.add(key)
            return after(fn(*args, **kwargs))

        return marked

    def _instrument_problem(self, problem):
        for attr, key in PROBLEM_CALLBACKS:
            fn = getattr(problem, attr)
            if fn is not None:
                setattr(problem, attr, self.wrap(key, fn, _first_arg_states))
        return problem

    def _instrument_stepper(self, stepper):
        return self.wrap("schemes.step", stepper, _first_arg_states)

    # -- installation ------------------------------------------------------

    def hooks(self):
        """(defining module, name, wrapper factory) for every entry point."""
        w = self.wrap
        return [
            ("monosde.cli", "main", lambda f: w("cli.main", f)),
            ("monosde.problems", "make_problem",
             lambda f: self.mark("problems.make_problem", f, self._instrument_problem)),
            ("monosde.schemes", "make_stepper",
             lambda f: self.mark("schemes.make_stepper", f, self._instrument_stepper)),
            ("monosde.implicit_map", "solve_fdelta",
             lambda f: w("implicit_map.solve_fdelta", f, _solve_states)),
            ("monosde.engine", "simulate_ensemble",
             lambda f: w("engine.simulate_ensemble", f, _scheduled_path_steps, cpu=True)),
            ("monosde.noise", "fine_increments_block",
             lambda f: w("noise.fine_increments_block", f, _result_size)),
            ("monosde.noise", "_chunk_normals",
             lambda f: w("noise.chunk_normals", f, _result_size)),
            ("monosde.analysis", "weak_error_curve",
             lambda f: w("analysis.weak_error_curve", f)),
            ("monosde.analysis", "ses_probe", lambda f: w("analysis.ses_probe", f)),
            ("monosde.output", "write_csv", lambda f: w("output.write_csv", f, _file_bytes)),
            ("monosde.output", "write_json", lambda f: w("output.write_json", f, _file_bytes)),
        ]

    def install(self):
        """Wrap every binding of each entry point in the loaded monosde modules."""
        if self._patches:
            raise HookError("tracer is already installed")
        self._local.stack = self._main
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "monosde" or name.startswith("monosde.")]
        for modname, name, factory in self.hooks():
            original = getattr(importlib.import_module(modname), name, None)
            if original is None:
                self.uninstall()
                raise HookError("%s.%s no longer exists; update bench/spans.py"
                                % (modname, name))
            traced = factory(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    def take(self):
        """Return and forget the spans and hook keys recorded so far."""
        spans, seen = list(self.spans), set(self.seen)
        self.spans.clear()
        self.seen.clear()
        return spans, seen


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one iteration

def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    kids = defaultdict(list)
    for s in spans:
        kids[s[1]].append((s[3], s[4]))
    out = {}
    for sid, _, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for a, b in sorted(kids.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced iteration whose wall time is wall_s."""
    own = self_times(spans)
    by_key = defaultdict(list)
    key_of = {}
    for s in spans:
        by_key[s[2]].append(s)
        key_of[s[0]] = s[2]

    def self_s(*keys):
        return sum(own[s[0]] for k in keys for s in by_key[k])

    def calls(*keys):
        return sum(len(by_key[k]) for k in keys)

    def count(*keys):
        return sum(s[5] for k in keys for s in by_key[k])

    def under(key, parent_key):
        return [s for s in by_key[key] if key_of.get(s[1]) == parent_key]

    def ratio(a, b):
        return a / b if b else 0.0

    generated = count("noise.chunk_normals")
    used = count("noise.fine_increments_block")
    solves = calls("implicit_map.solve_fdelta")
    newton = len(under("problems.drift_jacobian", "implicit_map.solve_fdelta"))
    engine = by_key["engine.simulate_ensemble"]
    active = sum(s[5] for s in under("schemes.step", "engine.simulate_ensemble"))
    writes = ("output.write_csv", "output.write_json")
    return {
        "noise.s": self_s("noise.fine_increments_block", "noise.chunk_normals"),
        "noise.normals_generated": generated,
        "noise.normals_used": used,
        "noise.gen_per_used": ratio(generated, used),
        "problems.drift_s": self_s("problems.drift"),
        "problems.drift_calls": calls("problems.drift"),
        "problems.drift_states": count("problems.drift"),
        "problems.diffusion_s": self_s("problems.diffusion"),
        "problems.jacobian_s": self_s("problems.drift_jacobian",
                                      "problems.diffusion_jacobians"),
        "problems.jacobian_calls": calls("problems.drift_jacobian",
                                         "problems.diffusion_jacobians"),
        "schemes.step_s": self_s("schemes.step"),
        "schemes.step_calls": calls("schemes.step"),
        "schemes.step_states": count("schemes.step"),
        "implicit_map.solve_s": self_s("implicit_map.solve_fdelta"),
        "implicit_map.solve_calls": solves,
        "implicit_map.states": count("implicit_map.solve_fdelta"),
        "implicit_map.newton_iters": newton,
        "implicit_map.iters_per_solve": ratio(newton, solves),
        "engine.s": self_s("engine.simulate_ensemble"),
        "engine.calls": len(engine),
        "engine.active_path_steps": active,
        "engine.active_frac": ratio(active, sum(s[5] for s in engine)),
        "engine.cpu_per_wall": ratio(sum(s[6] for s in engine),
                                     sum(s[4] - s[3] for s in engine)),
        "analysis.s": self_s("analysis.weak_error_curve", "analysis.ses_probe"),
        "output.s": self_s(*writes),
        "output.bytes": count(*writes),
        "output.files": calls(*writes),
        "cli.s": self_s("cli.main"),
        "trace.self_share": ratio(sum(own.values()), wall_s),
    }
