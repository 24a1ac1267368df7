"""Batch command-line front end.

Subcommands: simulate, fig1, weak-error, order, local-error, moments, ses,
check. Common flags: --config PATH, --seed U64 (overrides the config),
--threads N (caps worker processes at the usable cores; never changes
results), --out DIR.

Exit codes: 0 ok, 2 config error, 3 simulation blow-up, 4 analysis failure.
Every output file embeds the tool version, a 16-hex config hash, and the
master seed; rerunning the same config reproduces byte-identical files.
"""

import argparse
import pathlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import (ReferenceConfig, _compare, _coupled_runs,
                       check_assumptions, convergence_order,
                       local_weak_error_profile, moment_recursion_audit,
                       ses_probe, weak_error_curve)
from .config import (ConfigError, config_hash, get_value, load_config,
                     require_positive)
from .engine import AllPathsBlewUp, EnsembleSpec, simulate_ensemble
from .implicit_map import DeltaTooLarge, NonConvergence
from .noise import _whole_multiple
from .output import standard_meta, write_csv, write_json
from .problems import make_observable, make_problem, ou_exact_mean
from .schemes import KINDS, SchemeConfig


@dataclass
class _Context:
    cfg: dict
    out: pathlib.Path
    seed: int
    threads: int
    cfg_hash: str

    def meta(self, extra=()):
        return standard_meta(__version__, self.cfg_hash, self.seed, extra)


def _fmt(v):
    return "%g" % float(v)


def _problem_from_cfg(cfg, default_name="fig1"):
    name = str(get_value(cfg, "problem.name", default_name))
    params = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("problem.") and k != "problem.name"}
    try:
        return make_problem(name, **params)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError("problem configuration: %s" % exc)


def _positive(cfg, key, default):
    return require_positive(cfg, key, get_value(cfg, key, default, float))


def _kind(cfg, key, default):
    kind = str(get_value(cfg, key, default))
    if kind not in KINDS:
        raise ConfigError("config key %r: unknown scheme kind %r (known: %s)"
                          % (key, kind, ", ".join(KINDS)))
    return kind


def _scheme_from_cfg(cfg, default_kind="tte", default_delta=0.05):
    alpha = get_value(cfg, "scheme.alpha", None, float)
    if alpha is not None:
        require_positive(cfg, "scheme.alpha", alpha)
    return SchemeConfig(_kind(cfg, "scheme.kind", default_kind),
                        _positive(cfg, "scheme.delta", default_delta),
                        alpha=alpha)


def _reference_from_cfg(cfg, default_delta, default_paths):
    return ReferenceConfig(
        kind=_kind(cfg, "reference.kind", "tamed"),
        delta=_positive(cfg, "reference.delta", default_delta),
        n_paths=_path_count(cfg, "reference.n_paths", default_paths))


def _observable_from_cfg(cfg, default="identity"):
    name = str(get_value(cfg, "observable", default))
    try:
        return make_observable(name)
    except (ValueError, KeyError) as exc:
        raise ConfigError("config key 'observable': %s" % exc)


def _x0_from_cfg(cfg, default=1.0):
    raw = get_value(cfg, "run.x0", default)
    x0 = np.atleast_1d(np.asarray(raw, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise ConfigError("config key 'run.x0' must be finite")
    return x0


def _path_count(cfg, key, default):
    n_paths = get_value(cfg, key, default, int)
    if n_paths < 2:
        raise ConfigError("config key %r must be >= 2 (a standard error needs "
                          "two paths), got %d" % (key, n_paths))
    return n_paths


def _run_ints(cfg):
    return (_path_count(cfg, "run.n_paths", 1000),
            _positive(cfg, "run.horizon", 10.0))


def _require_grid(horizon, record_dt, delta, keys, reference=None):
    """Raise a ConfigError naming the key at fault unless record_dt is a
    whole number of steps delta and horizon a whole number of record
    intervals; record_dt None records every step. keys names (horizon,
    record_dt, delta) in the config. A reference (ReferenceConfig) must
    step a whole fraction of delta, so it shares the run's grid."""
    h_key, r_key, d_key = keys
    if (reference is not None
            and _whole_multiple(delta, reference.delta) is None):
        raise ConfigError("config key 'reference.delta' (%g) must divide %r "
                          "(%g)" % (reference.delta, d_key, delta))
    if record_dt is None:
        record_dt, r_key = delta, d_key
    elif _whole_multiple(record_dt, delta) is None:
        raise ConfigError("config key %r (%g) must be a whole multiple of %r "
                          "(%g)" % (r_key, record_dt, d_key, delta))
    if _whole_multiple(horizon, record_dt) is None:
        raise ConfigError("config key %r (%g) must be a whole multiple of %r "
                          "(%g)" % (h_key, horizon, r_key, record_dt))


_RUN_GRID = ("run.horizon", "run.record_dt", "scheme.delta")


def _series_columns(result, series):
    blowups = result.n_paths - result.n_active
    return [("time", series.times),
            ("estimate", series.mean),
            ("stderr", series.stderr),
            ("n_effective", result.n_active),
            ("blowups", blowups)]


def _stderr_flag(result):
    """{"stderr_undefined_at": record times} for the times at which fewer
    than two paths survive, so the stderr columns read nan there; {} when
    every standard error is defined."""
    times = result.times[result.n_active < 2]
    return {"stderr_undefined_at": times} if times.size else {}


def _run_meta(ctx, problem, scheme, x0):
    alpha = scheme.alpha if scheme.alpha is not None else "auto"
    return ctx.meta([("problem", problem.name),
                     ("scheme", scheme.kind),
                     ("delta", scheme.delta),
                     ("alpha", alpha),
                     ("q", problem.constants.q),
                     ("x0", " ".join(repr(float(v)) for v in np.atleast_1d(x0)))])


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    scheme = _scheme_from_cfg(cfg)
    obs = _observable_from_cfg(cfg)
    x0 = _x0_from_cfg(cfg)
    n_paths, horizon = _run_ints(cfg)
    record_dt = get_value(cfg, "run.record_dt", 0.25)
    record_dt = None if record_dt is None else float(record_dt)
    _require_grid(horizon, record_dt, scheme.delta, _RUN_GRID)
    orders = tuple(get_value(cfg, "run.moment_orders", [1, 2, 4]))
    spec = EnsembleSpec(x0, n_paths, horizon, seed=ctx.seed,
                        record_dt=record_dt, threads=ctx.threads,
                        moment_orders=orders)
    result = simulate_ensemble(problem, scheme, spec, [obs])
    meta = _run_meta(ctx, problem, scheme, x0)
    series = result.observables[obs.name]
    write_csv(ctx.out / ("series_%s.csv" % obs.name), meta,
              _series_columns(result, series))
    for p in orders:
        mseries = result.moments[p]
        write_csv(ctx.out / ("moments_p%s.csv" % _fmt(p)), meta,
                  _series_columns(result, mseries))
    stderr = float(series.stderr[-1])
    write_json(ctx.out / "run.json", dict(meta), {
        "n_paths": result.n_paths,
        "n_blowups": result.n_blowups,
        "final": {
            "time": float(series.times[-1]),
            obs.name: float(series.mean[-1]),
            "stderr": stderr if np.isfinite(stderr) else None,
        },
        **_stderr_flag(result),
    })
    return 0


def cmd_fig1(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg, default_name="fig1")
    delta = _positive(cfg, "fig1.delta", 0.05)
    horizon = _positive(cfg, "fig1.horizon", 5.0)
    n_paths = _path_count(cfg, "fig1.n_paths", 1000)
    ref_delta = _positive(cfg, "fig1.ref_delta", 5e-4)
    ref_paths = _path_count(cfg, "fig1.ref_paths", 10000)
    alphas = [float(a) for a in get_value(cfg, "fig1.alphas", [1.0, 1.3, 5.0])]
    x0s = [float(v) for v in get_value(cfg, "fig1.x0s", [1.0, 100.0])]
    if _whole_multiple(delta, ref_delta) is None:
        raise ConfigError("fig1.ref_delta must divide fig1.delta")
    _require_grid(horizon, None, delta, ("fig1.horizon", None, "fig1.delta"))

    obs = make_observable("identity")
    reference = ReferenceConfig(kind="tamed", delta=ref_delta, n_paths=ref_paths)
    ref_scheme = SchemeConfig("tamed", ref_delta)
    curves = [("tamed", SchemeConfig("tamed", delta))]
    curves += [("tte_a%s" % _fmt(a), SchemeConfig("tte", delta, alpha=a))
               for a in alphas]
    pairs = _coupled_runs(problem, reference, obs, horizon, ctx.seed,
                          ctx.threads, [(scheme, x0, n_paths, delta)
                                        for x0 in x0s for _, scheme in curves])
    summary = {}
    for i, x0 in enumerate(x0s):
        key = "x0=%s" % _fmt(x0)
        mine = pairs[i * len(curves):(i + 1) * len(curves)]
        ref = mine[0][1]
        rser = ref.observables[obs.name]
        write_csv(ctx.out / ("fig1_x0-%s_reference.csv" % _fmt(x0)),
                  _run_meta(ctx, problem, ref_scheme, x0),
                  _series_columns(ref, rser))
        summary[key] = {}
        for (label, scheme), (res, _, _, _) in zip(curves, mine):
            ser = res.observables[obs.name]
            write_csv(ctx.out / ("fig1_x0-%s_%s.csv" % (_fmt(x0), label)),
                      _run_meta(ctx, problem, scheme, x0),
                      _series_columns(res, ser))
            dev, comb = _compare(ser, rser)
            summary[key][label] = {
                "sup_deviation": float(np.max(dev)),
                "within_3se": bool(np.all(dev <= 3.0 * comb)),
                "first_step_overshoot": float(max(0.0, rser.mean[1] - ser.mean[1])),
                "n_blowups": res.n_blowups,
            }
    write_json(ctx.out / "fig1_summary.json", dict(ctx.meta()), {
        "protocol": {"delta": delta, "horizon": horizon, "n_paths": n_paths,
                     "ref_delta": ref_delta, "ref_paths": ref_paths,
                     "alphas": alphas, "x0s": x0s},
        "curves": summary,
    })
    return 0


def cmd_weak_error(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    scheme = _scheme_from_cfg(cfg)
    obs = _observable_from_cfg(cfg, default="arctan")
    x0 = _x0_from_cfg(cfg)
    n_paths, horizon = _run_ints(cfg)
    record_dt = get_value(cfg, "run.record_dt", 0.25, float)
    reference = _reference_from_cfg(cfg, 5e-4, 10000)
    _require_grid(horizon, record_dt, scheme.delta, _RUN_GRID, reference)
    rep = weak_error_curve(problem, scheme, obs, x0, horizon, n_paths,
                           seed=ctx.seed, record_dt=record_dt,
                           reference=reference, threads=ctx.threads)
    meta = _run_meta(ctx, problem, scheme, x0)
    write_csv(ctx.out / "weak_error.csv", meta, [
        ("time", rep.times), ("err", rep.err), ("halfwidth", rep.halfwidth),
        ("curve_mean", rep.curve_mean), ("curve_stderr", rep.curve_stderr),
        ("ref_mean", rep.ref_mean), ("ref_stderr", rep.ref_stderr)])
    write_json(ctx.out / "weak_error.json", dict(meta), {
        "observable": rep.observable,
        "sup_error": rep.sup_error,
        "max_halfwidth": rep.max_halfwidth,
        "plateau": rep.plateau,
        "coupled": rep.coupling_checksum_curve == rep.coupling_checksum_ref,
        "n_blowups_curve": rep.n_blowups_curve,
        "n_blowups_ref": rep.n_blowups_ref,
    })
    return 0


def cmd_order(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    scheme = _scheme_from_cfg(cfg)
    deltas = [float(v) for v in get_value(cfg, "order.deltas",
                                          [0.2, 0.1, 0.05, 0.025])]
    if len(deltas) < 3:
        raise ConfigError("need >= 3 deltas (config key 'order.deltas')")
    obs = _observable_from_cfg(cfg)
    x0 = _x0_from_cfg(cfg)
    n_paths, horizon = _run_ints(cfg)
    record_dt = get_value(cfg, "run.record_dt", 0.25, float)

    exact = None
    use_exact = get_value(cfg, "order.use_exact",
                          problem.name == "ou" and obs.name == "identity")
    if use_exact:
        if problem.name != "ou" or obs.name != "identity":
            raise ConfigError("order.use_exact needs the ou problem with the "
                              "identity observable")
        rate = float(get_value(cfg, "problem.rate", 1.0))
        x_start = float(x0[0])

        def exact(times, _r=rate, _x=x_start):
            return ou_exact_mean(_x, np.asarray(times), _r)

    reference = _reference_from_cfg(cfg, min(deltas) / 8.0,
                                    max(n_paths, 10000))
    if exact:
        reference = None
    for delta in deltas:
        _require_grid(horizon, None, delta,
                      ("run.horizon", None, "order.deltas"), reference)
    rep = convergence_order(problem, scheme.kind, deltas, obs, x0, horizon,
                            n_paths, seed=ctx.seed, record_dt=record_dt,
                            reference=reference,
                            exact_mean=exact, alpha=scheme.alpha,
                            threads=ctx.threads)
    meta = ctx.meta([("problem", problem.name), ("scheme", scheme.kind)])
    write_csv(ctx.out / "order.csv", meta, [
        ("delta", rep.deltas), ("sup_error", rep.sup_errors),
        ("halfwidth", rep.halfwidths)])
    write_json(ctx.out / "order.json", dict(meta), {
        "observable": rep.observable,
        "beta_hat": rep.beta_hat,
        "beta_stderr": rep.beta_stderr,
        "intercept": rep.intercept,
        "deltas": list(rep.deltas),
        "sup_errors": list(rep.sup_errors),
    })
    return 0


def cmd_local_error(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    scheme = _scheme_from_cfg(cfg, default_kind="em", default_delta=0.1)
    obs = _observable_from_cfg(cfg)
    states = get_value(cfg, "local.states", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    deltas = [float(v) for v in get_value(cfg, "local.deltas", [0.2, 0.1, 0.05])]
    n_paths = _path_count(cfg, "local.n_paths", 4096)
    inner = get_value(cfg, "local.inner_factor", 100, int)
    if inner < 2:
        raise ConfigError("config key 'local.inner_factor' must be >= 2")
    rep = local_weak_error_profile(problem, scheme, states, deltas, obs,
                                   n_paths, seed=ctx.seed, inner_factor=inner,
                                   threads=ctx.threads)
    meta = ctx.meta([("problem", problem.name), ("scheme", scheme.kind)])
    write_csv(ctx.out / "local_error.csv", meta, [
        ("x_norm", [float(np.linalg.norm(r.x)) for r in rep.rows]),
        ("delta", [r.delta for r in rep.rows]),
        ("err", [r.err for r in rep.rows]),
        ("halfwidth", [r.halfwidth for r in rep.rows])])
    write_json(ctx.out / "local_error.json", dict(meta), {
        "observable": rep.observable,
        "growth_exponent": rep.growth_exponent,
        "delta_exponent": rep.delta_exponent,
        "n_paths": rep.n_paths,
    })
    return 0


def cmd_moments(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    scheme = _scheme_from_cfg(cfg)
    x0 = _x0_from_cfg(cfg)
    n_paths, horizon = _run_ints(cfg)
    orders = tuple(get_value(cfg, "run.moment_orders", [1, 2, 4]))
    record_dt = get_value(cfg, "run.record_dt", None)
    record_dt = None if record_dt is None else float(record_dt)
    _require_grid(horizon, record_dt, scheme.delta, _RUN_GRID)
    spec = EnsembleSpec(x0, n_paths, horizon, seed=ctx.seed,
                        record_dt=record_dt, threads=ctx.threads,
                        moment_orders=orders)
    result = simulate_ensemble(problem, scheme, spec)
    meta = _run_meta(ctx, problem, scheme, x0)
    payload = {"n_blowups": result.n_blowups, "sup": {},
               **_stderr_flag(result)}
    for p in orders:
        series = result.moments[p]
        write_csv(ctx.out / ("moments_p%s.csv" % _fmt(p)), meta,
                  _series_columns(result, series))
        payload["sup"]["p%s" % _fmt(p)] = float(np.nanmax(series.mean))
    if scheme.kind == "tte":
        if record_dt is not None or 2 not in orders:  # audit reads every step
            result = simulate_ensemble(problem, scheme, replace(
                spec, record_dt=None, moment_orders=(2,)))
        payload["audit"] = moment_recursion_audit(problem, scheme, result, x0)
    write_json(ctx.out / "moments.json", dict(meta), payload)
    return 0


def cmd_ses(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    obs = _observable_from_cfg(cfg)
    points = get_value(cfg, "ses.points", [1.0])
    fine_delta = _positive(cfg, "ses.fine_delta", 0.01)
    horizon = _positive(cfg, "ses.horizon", 6.0)
    n_paths = _path_count(cfg, "ses.n_paths", 4096)
    record_dt = _positive(cfg, "ses.record_dt", 0.25)
    _require_grid(horizon, record_dt, fine_delta,
                  ("ses.horizon", "ses.record_dt", "ses.fine_delta"))
    bump = _positive(cfg, "ses.bump", 0.05)
    second = bool(get_value(cfg, "ses.second", True))
    rep = ses_probe(problem, obs, points, horizon, n_paths, fine_delta,
                    seed=ctx.seed, record_dt=record_dt, second_order=second,
                    bump=bump, threads=ctx.threads)
    meta = ctx.meta([("problem", problem.name),
                     ("fine_delta", fine_delta)])
    cols = [("time", rep.times), ("grad_norm", rep.grad_norm),
            ("grad_stderr", rep.grad_stderr)]
    if rep.second_norm is not None:
        cols += [("second_norm", rep.second_norm),
                 ("second_stderr", rep.second_stderr)]
    write_csv(ctx.out / "ses.csv", meta, cols)
    write_json(ctx.out / "ses.json", dict(meta), {
        "observable": obs.name,
        "gamma_hat": rep.gamma_hat,
        "gamma_stderr": rep.gamma_stderr,
        "points_used": rep.points_used,
        "decay_detected": rep.decay_detected,
        "gamma2_hat": rep.gamma2_hat,
        "n_paths": rep.n_paths,
    })
    return 0


def cmd_check(ctx):
    cfg = ctx.cfg
    problem = _problem_from_cfg(cfg)
    radius = _positive(cfg, "check.radius", 10.0)
    samples = get_value(cfg, "check.samples", 400, int)
    if samples < 100:
        raise ConfigError("config key 'check.samples' must be >= 100")
    rep = check_assumptions(problem, radius=radius, samples=samples,
                            seed=ctx.seed)
    meta = ctx.meta([("problem", problem.name)])
    write_json(ctx.out / "check.json", dict(meta), {
        "problem": rep.problem,
        "radius": rep.radius,
        "samples": rep.samples,
        "grid_points": rep.grid_points,
        "overall_pass": rep.overall_pass,
        "conditions": [{
            "condition": c.condition,
            "description": c.description,
            "constant": c.constant,
            "worst_margin": c.worst_margin,
            "worst_x": None if c.worst_x is None else np.asarray(c.worst_x),
            "passed": c.passed,
            "skipped": c.skipped,
            "note": c.note,
        } for c in rep.conditions],
    })
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "fig1": cmd_fig1,
    "weak-error": cmd_weak_error,
    "order": cmd_order,
    "local-error": cmd_local_error,
    "moments": cmd_moments,
    "ses": cmd_ses,
    "check": cmd_check,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (dotted keys or JSON)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--threads", type=int,
                        help="worker process cap (does not affect results)")
    common.add_argument("--out", default=".", help="output directory")
    parser = argparse.ArgumentParser(
        prog="monosde",
        description="SDE schemes for monotone drifts: simulation and checks")
    parser.add_argument("--version", action="version",
                        version="monosde %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a nonnegative integer")
            cfg["rng.master_seed"] = args.seed
        if args.threads is not None:
            cfg["run.threads"] = args.threads
        seed = int(get_value(cfg, "rng.master_seed", 0))
        if seed < 0:
            raise ConfigError("config key 'rng.master_seed' must be >= 0")
        threads = int(get_value(cfg, "run.threads", 1))
        if threads < 1:
            raise ConfigError("config key 'run.threads' must be >= 1")
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ctx = _Context(cfg=cfg, out=out, seed=seed, threads=threads,
                       cfg_hash=config_hash(cfg))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("config error: cannot prepare output directory (%s)" % exc,
              file=sys.stderr)
        return 2

    handler = _HANDLERS[args.command]
    try:
        return handler(ctx)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except DeltaTooLarge as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except AllPathsBlewUp as exc:
        print("simulation blow-up: %s" % exc, file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print("analysis failure: implicit solve did not converge (%s)" % exc,
              file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print("analysis failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
