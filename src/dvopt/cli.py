"""Experiment runner: configs to trace files, bounds, sweeps.

Subcommands::

    dvopt run <config.json>
    dvopt bounds <name> [key=value ...]
    dvopt graph-info <schedule.json>
    dvopt sweep <config.json> --seeds S1 S2 ... --periods P1 P2 ...

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.

A config is a JSON object::

    {
      "seed": 1,
      "objective": {"kind": "ridge", "n": 20, "l": 20, "m": 10,
                    "c": 0.1, "noise": 0.1},
      "schedule": {...inline schedule...} | {"file": "sched.json"}
                  | {"alternating": {"kinds": ["star", "cycle"], "n": 20,
                                     "period": 50, "horizon": 1000}},
      "algorithms": ["nesterov", "dual_gd", "diging"],
      "max_iter": 1000,
      "record_every": 1,
      "output_dir": "out",
      "run_id": "optional-name",
      "overrides": {"diging_stepsize": 0.05}
    }

Objective kinds and their fields: ``ridge`` (n, l, m, and optional c
and noise, both 0.1 by default) and ``logistic`` (n, l, m, c), both
synthetic, and ``dataset`` (path, n, c; a sparse labeled text file whose
samples are shuffled evenly across agents).  One root seed drives
everything; the graph and data streams are derived from it with fixed
labels, so adding an algorithm never changes the generated instance.

Input is strict, and bad input exits 1 before any file is written: a
config or schedule file that cannot be read and an ``output_dir`` that
cannot be created are bad input too.
Every object (config, objective, schedule, alternating spec, epoch,
topology params, overrides) rejects a missing or unknown field.  A count
is an integer or an integral float, a real a finite number, neither a
bool or a string.  ``algorithms`` are distinct; ``run_id`` is a
non-empty string with no path separator.  ``sweep``'s seeds and periods
are distinct too, and ``bounds`` rejects a constant its bound does not
read or one given twice.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import algorithms, graphs, metrics, theory
from .graphs import ValidationError, _fields, _number, _seed
from .objectives import (
    AggregateObjective,
    ParseError,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
    load_sparse_labeled,
    logistic_blocks,
)

__all__ = ["ExperimentConfig", "execute", "bounds_command", "graphinfo_command", "sweep", "main"]

_SEED_GRAPHS = 0x67727068  # "grph"
_SEED_DATA = 0x64617461  # "data"

OVERRIDES = ("diging_stepsize",)

# required and optional fields of each object, the objective's by kind
_CONFIG_FIELDS = (
    ("seed", "objective", "schedule", "algorithms", "max_iter"),
    ("record_every", "output_dir", "run_id", "overrides"),
)
_OBJECTIVE_FIELDS = {
    "ridge": (("kind", "n", "l", "m"), ("c", "noise")),
    "logistic": (("kind", "n", "l", "m", "c"), ()),
    "dataset": (("kind", "path", "n", "c"), ()),
}
# the objective fields that are reals; every other numeric field is a count
_OBJECTIVE_REALS = ("c", "noise")
_ALTERNATING_FIELDS = (("kinds", "n", "period"), ("horizon", "params", "seed"))


class RunFailure(RuntimeError):
    """A ValueError raised once the runs have started: a numerical failure, not bad input."""


def _derive_seed(root: int, label: int) -> int:
    # a valid seed, as from_dict checks the root: root ^ label < 0 only if root < 0
    return int(root) ^ label


def _checked_overrides(raw) -> dict:
    # Checked before anything runs: a bad value would otherwise fail only
    # when DIGing starts, after the other algorithms have written files.
    overrides = _fields(raw, "overrides", optional=OVERRIDES)
    if "diging_stepsize" in overrides:
        step = overrides["diging_stepsize"]
        if not _number(step, "diging_stepsize", float) > 0:
            raise ValidationError(f"diging_stepsize must be positive, got {step!r}")
    return dict(overrides)


def _resolve_file(base_dir: str, name: str, what: str) -> str:
    if not isinstance(name, str):
        raise ValidationError(f"{what} file must be a path string, got {name!r}")
    path = os.path.abspath(os.path.join(base_dir, name))
    if not os.path.isfile(path):
        raise ValidationError(f"{what} file not found: {path}")
    return path


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    objective: dict
    schedule: dict
    algorithms: tuple[str, ...]
    max_iter: int
    record_every: int
    output_dir: str
    run_id: str
    overrides: dict

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str = ".") -> "ExperimentConfig":
        _fields(raw, "config", *_CONFIG_FIELDS)
        if not isinstance(raw["algorithms"], (list, tuple)):
            raise ValidationError(f"algorithms must be a list, got {raw['algorithms']!r}")
        algs = tuple(raw["algorithms"])
        bad = [a for a in algs if a not in ALGORITHMS]
        if bad:
            raise ValidationError(
                f"unknown algorithm name(s) {bad}; valid names: {list(ALGORITHMS)}"
            )
        if not algs or len(set(algs)) < len(algs):
            raise ValidationError(f"algorithms must name at least one, each once, got {list(algs)}")
        max_iter = _number(raw["max_iter"], "max_iter")
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        record_every = _number(raw.get("record_every", 1), "record_every")
        if record_every < 1:
            raise ValidationError("record_every must be >= 1")
        obj = raw["objective"]
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not isinstance(kind, str) or kind not in _OBJECTIVE_FIELDS:
            raise ValidationError(
                f"objective must be an object with a kind in {list(_OBJECTIVE_FIELDS)}, got {obj!r}"
            )
        obj = dict(_fields(obj, f"{kind} objective", *_OBJECTIVE_FIELDS[kind]))
        # File references and output_dir are relative to the config's
        # directory; they are stored resolved so the run does not depend on
        # the working directory.
        if kind == "dataset":
            obj["path"] = _resolve_file(base_dir, obj["path"], "dataset")
        sched = raw["schedule"]
        if isinstance(sched, dict) and "file" in sched:
            sched = {**sched, "file": _resolve_file(base_dir, sched["file"], "schedule")}
        output_dir = raw.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ValidationError(f"output_dir must be a path string, got {output_dir!r}")
        seed = _seed(raw["seed"], "seed")
        # the run id names the output files, so it must not lead out of output_dir
        run_id = raw.get("run_id", f"run{seed}")
        if not (isinstance(run_id, str) and run_id) or "/" in run_id or "\\" in run_id:
            raise ValidationError(f"run_id must be a non-empty str without / or \\, got {run_id!r}")
        return cls(
            seed=seed,
            objective=obj,
            schedule=dict(sched) if isinstance(sched, dict) else sched,
            algorithms=algs,
            max_iter=max_iter,
            record_every=record_every,
            output_dir=os.path.abspath(os.path.join(base_dir, output_dir)),
            run_id=run_id,
            overrides=_checked_overrides(raw.get("overrides", {})),
        )


def _build_objective(cfg: ExperimentConfig) -> AggregateObjective:
    spec = cfg.objective
    kind = spec["kind"]
    data_seed = _derive_seed(cfg.seed, _SEED_DATA)
    # the numeric fields given; an omitted optional one takes the generator's default
    given = {
        key: _number(value, f"{kind} objective {key}", float if key in _OBJECTIVE_REALS else int)
        for key, value in spec.items()
        if key not in ("kind", "path")
    }
    if kind == "ridge":
        return gen_ridge_instance(**given, seed=data_seed)
    if kind == "logistic":
        return gen_logistic_instance(**given, seed=data_seed)
    # dataset: samples shuffled, then split in consecutive equal blocks
    n, c = given["n"], given["c"]
    if n < 1:
        raise ValidationError(f"dataset objective n must be >= 1, got {n}")
    try:
        dense, labels = load_sparse_labeled(spec["path"]).to_dense()
    except OSError as exc:  # a file the user may not read
        raise ValidationError(f"cannot read dataset: {exc}") from None
    except (ParseError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read dataset: {spec['path']!r}: {exc}") from None
    total = dense.shape[0]
    per_agent = total // n
    if per_agent < 1:
        raise ValidationError(f"dataset has {total} samples, fewer than {n} agents")
    rows = np.random.default_rng(data_seed).permutation(total)[: n * per_agent]
    return logistic_blocks(dense[rows], labels[rows], n, c)


def _alternating_spec(schedule) -> dict:
    """The checked ``alternating`` object of an alternating schedule form."""
    alt = _fields(schedule, "alternating schedule", ("alternating",))["alternating"]
    return _fields(alt, "alternating", *_ALTERNATING_FIELDS)


def _build_schedule(cfg: ExperimentConfig) -> graphs.GraphSchedule:
    spec = cfg.schedule
    if isinstance(spec, dict) and "file" in spec:
        path = _fields(spec, "schedule file", ("file",))["file"]
        return graphs.schedule_from_spec(_read_json(path, "schedule"))
    if isinstance(spec, dict) and "alternating" in spec:
        alt = _alternating_spec(spec)
        kinds, params = alt["kinds"], alt.get("params", [None, None])
        if not all(isinstance(v, (list, tuple)) and len(v) == 2 for v in (kinds, params)):
            raise ValidationError(f"alternating kinds, params must be pairs: {kinds!r}, {params!r}")
        return graphs.alternating_schedule(
            tuple(kinds),
            n=_number(alt["n"], "alternating n"),
            period=_number(alt["period"], "alternating period"),
            horizon=_number(alt.get("horizon", cfg.max_iter), "alternating horizon"),
            params=tuple(params),
            seed=_seed(alt.get("seed", _derive_seed(cfg.seed, _SEED_GRAPHS)), "alternating seed"),
        )
    return graphs.schedule_from_spec(spec)


# Traces keep their columns only, which are all the metrics read.  A
# dual_gd run on a single-epoch schedule also keeps each record's distance
# to x_star, which its contraction verdict reads.
_RUNNERS = {
    "nesterov": lambda agg, s, cfg, x_star: algorithms.run_distributed_nesterov(
        agg, s, max_iter=cfg.max_iter, record_every=cfg.record_every
    ),
    "dual_gd": lambda agg, s, cfg, x_star: algorithms.run_dual_gradient(
        agg,
        s,
        max_iter=cfg.max_iter,
        record_every=cfg.record_every,
        x_star=x_star if len(s.epochs) == 1 else None,
    ),
    "diging": lambda agg, s, cfg, x_star: algorithms.run_diging(
        agg,
        s,
        stepsize=cfg.overrides.get("diging_stepsize"),
        max_iter=cfg.max_iter,
        record_every=cfg.record_every,
    ),
}
ALGORITHMS = tuple(_RUNNERS)


def _accel_bound_verdict(table, dc, radius, schedule):
    def bound(k):
        # epoch e starts after e changes
        return theory.nesterov_tv_bound(dc.l_f, dc.mu_f, radius, schedule.epoch_index(k), k)

    points = zip(table.iter.tolist(), table.dual_residual.tolist())
    return asdict(metrics.bound_check(points, bound))


def _gd_contraction_verdict(trace, dc, radius):
    # Static single-epoch schedules only: the run's x_dist column holds each
    # record's distance to x_star in matrix space.
    rho = (dc.l_f - dc.mu_f) / (dc.l_f + dc.mu_f)
    dists = zip(trace.iter.tolist(), trace.x_dist.tolist())
    report = asdict(metrics.bound_check(dists, lambda k: rho**k * radius + 1e-10))
    del report["checked"]  # the summary keeps the verdict's three keys
    return report


def _epoch_rows(schedule: graphs.GraphSchedule) -> list[dict]:
    """Each epoch's start and spectrum; spectra are computed once per distinct topology."""
    spectra = [schedule.spectra[j] for j in schedule.topology_index]
    return [
        {
            "start": start,
            "lambda_max": info.lambda_max,
            "lambda_min_pos": info.lambda_min_pos,
            "chi": info.chi,
        }
        for (start, _), info in zip(schedule.epochs, spectra)
    ]


def execute(config: ExperimentConfig) -> dict:
    """Run every configured algorithm and write traces plus a summary.

    Bad input raises ValueError before anything runs.  A ValueError raised
    once the runs start is a numerical failure and comes out as
    :class:`RunFailure`.
    """
    agg = _build_objective(config)
    schedule = _build_schedule(config)
    if schedule.n != agg.n:
        raise ValidationError(
            f"objective has {agg.n} agents but schedule has {schedule.n} nodes"
        )
    if config.max_iter > schedule.horizon:
        raise ValidationError("max_iter exceeds the schedule horizon")
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:  # an existing file, or a path below one
        raise ValidationError(f"cannot create output_dir: {exc}") from None
    try:
        return _run(config, agg, schedule)
    except ValueError as exc:
        raise RunFailure(str(exc)) from exc


def _run(
    config: ExperimentConfig, agg: AggregateObjective, schedule: graphs.GraphSchedule
) -> dict:
    theta = schedule.theta
    dc = dual_constants(agg, theta)
    m_changes, alpha = graphs.change_stats(schedule)
    ceiling = theory.alg1_complexity(dc.kappa, 0.0, log_term=1.0).alpha_ceiling
    warnings = []
    if alpha >= ceiling:
        warnings.append(
            f"change fraction alpha={alpha:.6g} is at or above the admissible "
            f"ceiling {ceiling:.6g}; convergence is not guaranteed"
        )

    oracle = centralized_solve(agg)
    x_star = algorithms.solve_dual_min_norm(agg, schedule, oracle[0])
    radius = float(np.linalg.norm(x_star))

    summary: dict = {
        "run_id": config.run_id,
        "seed": config.seed,
        "dual_constants": {"mu_f": dc.mu_f, "L_f": dc.l_f, "kappa": dc.kappa},
        "theta": {"theta_max": theta[0], "theta_min": theta[1]},
        "per_epoch": _epoch_rows(schedule),
        "changes": {"m": m_changes, "alpha": alpha},
        "alpha_ceiling": ceiling,
        "alpha_feasible": alpha < ceiling,
        "phi_star": oracle[1],
        "dual_radius": radius,
        "warnings": warnings,
        "algorithms": {},
        "bounds": {},
        "files": [],
    }

    def run_one(name):
        # A function scope, so each run's trace and table are freed before
        # the next algorithm starts.
        trace = _RUNNERS[name](agg, schedule, config, x_star)
        table = metrics.compute_metrics(trace, agg, oracle)
        basename = f"{config.run_id}_{name}.csv"
        # the path by keyword: bench/tracer.py reads it as args[2] or kwargs["path"]
        metrics.emit(table, path=os.path.join(config.output_dir, basename))
        summary["files"].append(basename)
        summary["algorithms"][name] = {
            "aborted": trace.aborted,
            "final_iter": table.iter[-1].item(),
            "final_dual_residual": table.dual_residual[-1].item(),
            "final_primal_gap": table.primal_gap[-1].item(),
            "final_consensus_dist": table.consensus_dist[-1].item(),
        }
        if name == "nesterov":
            summary["bounds"]["accel_residual_bound"] = _accel_bound_verdict(
                table, dc, radius, schedule
            )
        if name == "dual_gd" and len(schedule.epochs) == 1:
            summary["bounds"]["gd_contraction_bound"] = _gd_contraction_verdict(trace, dc, radius)

    for name in config.algorithms:
        run_one(name)

    spath = os.path.join(config.output_dir, f"{config.run_id}_summary.json")
    _write_json(spath, summary)
    summary["summary_path"] = spath
    return summary


# ---------------------------------------------------------------------------
# bounds subcommand

_UNICODE_KEYS = {
    "κ": "kappa",
    "κ̄": "kappa_bar",
    "kbar": "kappa_bar",
    "μ": "mu",
    "μ̄": "mu_bar",
    "mubar": "mu_bar",
    "ε": "eps",
    "α": "alpha",
    "δ": "delta",
    "χ": "chi",
    "λ2": "lambda2",
    "‖X*‖": "norm_xstar",
    "xstar": "norm_xstar",
    "logterm": "log_term",
}


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for token in pairs:
        if "=" not in token:
            raise ValidationError(f"expected key=value, got {token!r}")
        key, _, val = token.partition("=")
        key = _UNICODE_KEYS.get(key, key)
        if key in out:
            raise ValidationError(f"constant {key} given twice, again in {token!r}")
        try:
            value = float(val)
        except ValueError:
            raise ValidationError(f"non-numeric value in {token!r}") from None
        out[key] = _number(value, key, float)
    return out


def _thm5(kappa, alpha=0.0, **given):
    # alg1_complexity takes no default alpha; the CLI's is a static graph's 0
    res = theory.alg1_complexity(kappa, alpha, **given)
    return (res.n_iters, res.feasible), res.alpha_ceiling


def _cor2(eps, **given):
    # a zero dual gap certifies a zero primal gap without the other constants
    if eps == 0.0:
        return 0.0
    c = _fields(given, "cor2 constants with eps > 0", ("kappa", "L", "mu", "norm_xstar"))
    return theory.primal_from_dual_bound(eps, c["kappa"], c["L"], c["mu"], c["norm_xstar"])


# Each bound: its function, the constants it takes in order, the optional
# constants by the keyword each is passed as, the optional constants it
# reads only with (True) or only without (False) another one, and its
# reports' names.  The function returns one value per report, a (value,
# satisfied) pair or None.
_BOUNDS = {
    "cor1": (theory.gd_iterations, ("L", "mu", "R", "eps"), {}, None, ("cor1.iterations",)),
    "thm3": (
        theory.nesterov_tv_bound, ("L", "mu", "R", "m", "N"), {}, None, ("thm3.residual_bound",)
    ),
    "thm5": (
        _thm5,
        ("kappa",),
        dict(alpha="alpha", L="l_smooth", mu="mu", R="radius", eps="eps", log_term="log_term"),
        (("L", "mu", "R", "eps"), "log_term", False),
        ("thm5.iterations", "thm5.alpha_ceiling"),
    ),
    "cor2": (
        _cor2,
        ("eps",),
        dict(kappa="kappa", L="L", mu="mu", norm_xstar="norm_xstar"),
        None,  # eps = 0 certifies 0 whatever the others are
        ("cor2.primal_gap_bound",),
    ),
    "prop1": (
        theory.diging_rates,
        ("kappa_bar", "n"),
        dict(B="b", delta="delta", mu_bar="mu_bar", alpha="alpha"),
        (("B", "delta", "mu_bar"), "alpha", True),
        ("prop1.lambda0", "prop1.lambda_of_alpha"),
    ),
    "prop2": (
        theory.panda_rates,
        ("kappa",),
        dict(L="l_smooth", mu="mu", delta="delta", B="b", c="c"),
        (("L", "B"), "c", True),
        ("prop2.lambda0", "prop2.alpha_step", "prop2.lambda_of_c"),
    ),
    "prop3": (
        theory.static_nesterov_comparison,
        ("lambda2", "kappa_phi", "chi"),
        {},
        None,
        ("prop3.favors_dual_accelerated", "prop3.lhs", "prop3.rhs"),
    ),
}
_COUNTS = ("m", "N", "n", "B")


def bounds_command(name: str, kv: dict) -> list[theory.BoundReport]:
    """Evaluate one named bound from key=value constants."""
    if name not in _BOUNDS:
        raise ValidationError(f"unknown bound {name!r}; valid: {', '.join(_BOUNDS)}")
    func, required, optional, gated, names = _BOUNDS[name]
    _fields(kv, f"{name} constants", required, optional)
    args = {key: _number(val, key) if key in _COUNTS else val for key, val in kv.items()}
    if gated:
        keys, gate, read_with = gated
        unread = [key for key in kv if key in keys and (gate in kv) != read_with]
        if unread:
            when = "with" if read_with else "without"
            raise ValidationError(f"{name} reads constant(s) {unread} only {when} {gate}")
    values = func(
        *(args[key] for key in required),
        **{optional[key]: args[key] for key in optional if key in args},
    )
    reports = []
    for report, value in zip(names, values if len(names) > 1 else (values,)):
        value, satisfied = value if isinstance(value, tuple) else (value, None)
        if value is not None:
            reports.append(theory.BoundReport(report, kv, value, satisfied))
    return reports


def graphinfo_command(path) -> dict:
    """Spectral summary of a schedule file."""
    schedule = graphs.schedule_from_spec(_read_json(path, "schedule"))
    theta = schedule.theta
    m_changes, alpha = graphs.change_stats(schedule)
    rows = zip(_epoch_rows(schedule), schedule.epochs)
    return {
        "epochs": [{**row, "n": topo.n, "edges": len(topo.edges)} for row, (_, topo) in rows],
        "theta_max": theta[0],
        "theta_min": theta[1],
        "m": m_changes,
        "alpha": alpha,
    }


def sweep(config: ExperimentConfig, seeds: list[int], periods: list[int]) -> list[dict]:
    """Run the alternating schedule for every (seed, period) cell, checking them all first."""
    if not seeds or not periods:
        raise ValidationError("sweep needs at least one seed and one period")
    seeds = [_seed(s, "sweep seed") for s in seeds]
    periods = [_number(p, "sweep period") for p in periods]
    if min(periods) < 1:
        raise ValidationError(f"sweep period must be >= 1, got {min(periods)}")
    for what, values in (("seed", seeds), ("period", periods)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"sweep {what} {repeated[0]} given twice")
    alternating = _alternating_spec(config.schedule)
    table = []
    for seed in seeds:
        for period in periods:
            alt = {**alternating, "period": period}
            cell = replace(
                config,
                seed=seed,
                schedule={**config.schedule, "alternating": alt},
                output_dir=os.path.join(config.output_dir, f"s{seed}_p{period}"),
                run_id=f"{config.run_id}_s{seed}_p{period}",
            )
            summary = execute(cell)
            for name, stats in summary["algorithms"].items():
                table.append(
                    {
                        "seed": seed,
                        "period": period,
                        "algorithm": name,
                        "final_dual_residual": stats["final_dual_residual"],
                        "final_primal_gap": stats["final_primal_gap"],
                        "final_consensus_dist": stats["final_consensus_dist"],
                        "aborted": stats["aborted"],
                    }
                )
    return table


# ---------------------------------------------------------------------------
# entry point


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # a missing file, a directory, no permission
        raise ValidationError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an int beyond Python's digit limit
        raise ValidationError(f"cannot read {what}: {path!r}: {exc}") from None


def _load_config(path: str) -> ExperimentConfig:
    raw = _read_json(path, "config")
    return ExperimentConfig.from_dict(raw, base_dir=os.path.dirname(path) or ".")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_run(args) -> int:
    summary = execute(_load_config(args.config))
    print(f"run {summary['run_id']}: wrote {len(summary['files'])} trace file(s)")
    for w in summary["warnings"]:
        print(f"warning: {w}")
    for name, stats in summary["algorithms"].items():
        print(
            f"  {name}: final dual residual {stats['final_dual_residual']:.6g}, "
            f"primal gap {stats['final_primal_gap']:.6g}"
        )
    print(f"summary: {summary['summary_path']}")
    return 0


def _cmd_bounds(args) -> int:
    kv = _parse_kv(args.constants)
    for report in bounds_command(args.name, kv):
        echoed = " ".join(f"{k}={v:g}" for k, v in report.inputs.items())
        extra = "" if report.satisfied is None else f" feasible={report.satisfied}"
        print(f"{report.name} [{echoed}] = {report.value}{extra}")
    return 0


def _cmd_graphinfo(args) -> int:
    info = graphinfo_command(args.schedule)
    for e in info["epochs"]:
        print(
            f"epoch start={e['start']}: n={e['n']} edges={e['edges']} "
            f"lambda_max={e['lambda_max']:.6g} lambda_min_pos={e['lambda_min_pos']:.6g} "
            f"chi={e['chi']:.6g}"
        )
    print(
        f"theta_max={info['theta_max']:.6g} theta_min={info['theta_min']:.6g} "
        f"m={info['m']} alpha={info['alpha']:.6g}"
    )
    return 0


def _flag_number(token: str):
    # JSON keeps a large seed exact; a non-number fails sweep's checks, which name the option
    try:
        return json.loads(token)
    except ValueError:  # JSONDecodeError, or an int beyond Python's digit limit
        return token


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    table = sweep(config, [*map(_flag_number, args.seeds)], [*map(_flag_number, args.periods)])
    header = f"{'seed':>6} {'period':>7} {'algorithm':>10} {'dual_residual':>14} {'primal_gap':>12} {'consensus':>12}"
    print(header)
    for row in table:
        print(
            f"{row['seed']:>6} {row['period']:>7} {row['algorithm']:>10} "
            f"{row['final_dual_residual']:>14.6g} {row['final_primal_gap']:>12.6g} "
            f"{row['final_consensus_dist']:>12.6g}"
        )
    out = os.path.join(config.output_dir, f"{config.run_id}_sweep.json")
    _write_json(out, table)
    print(f"sweep table: {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvopt",
        description="Decentralized optimization over time-varying graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_b = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p_b.add_argument("name")
    p_b.add_argument("constants", nargs="*")
    p_b.set_defaults(func=_cmd_bounds)

    p_g = sub.add_parser("graph-info", help="spectral summary of a schedule file")
    p_g.add_argument("schedule")
    p_g.set_defaults(func=_cmd_graphinfo)

    p_s = sub.add_parser("sweep", help="seed x switching-period sweep")
    p_s.add_argument("config")
    p_s.add_argument("--seeds", nargs="+", required=True)
    p_s.add_argument("--periods", nargs="+", required=True)
    p_s.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit with 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
