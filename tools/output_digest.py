"""sha256 digests of ``dvopt`` outputs and demo output, to compare two checkouts.

Usage, from anywhere::

    python3 tools/output_digest.py --checkout /path/to/parent > parent.txt
    python3 tools/output_digest.py --checkout . > change.txt
    diff parent.txt change.txt

Each config below is written to a fresh temporary directory, next to the
sparse data files ``DATASET_FILE`` and ``DATASET_UNITS_FILE`` (see
``dataset_text``) and the schedule file ``SCHEDULE_FILE`` (see
``write_inputs``), and run with
``python3 -m dvopt.cli run`` with the checkout's ``src`` first on
``PYTHONPATH``.  Every CSV and summary the run writes gets one line
``<sha256>  <config>/<file>``, and every ``demos/*.py`` of the checkout
one line for its stdout, so equal outputs print equal lines.  Every
summary also gets a line ``<sha256>  <config>/<file>#verdicts`` that
hashes only its verdicts (``alpha_feasible``, each algorithm's
``aborted``, each bound's ``clean`` and ``first_violation_iter``), so a
change that moves summary floats but no verdict keeps that line.  One
``dvopt sweep`` of the switching config over ``SWEEP_ARGS`` (two seeds,
periods 5 and 50) adds a line for each cell's CSVs and summary and one
for the sweep table: 17 files.  One valid ``dvopt bounds`` run per bound
(``BOUNDS_ARGS``, which between them give every optional constant) and
``dvopt graph-info`` on the ridge config's schedule each add a line for
their stdout, with the exit code when it is not 0.

The configs are the benchmark's ``ridge_config`` and ``logistic_config``
(``bench/workloads.py`` next to this script, so both checkouts run the
same ones) at each ``--seeds`` seed, the logistic one on its static
graph with nesterov, dual_gd and diging (the dual-GD contraction verdict
runs only on a single epoch), a ridge config on one Erdos-Renyi graph
with dual_gd recorded every 3rd of 200 iterations, so the verdict also
runs on a quadratic family and at a stride, a ridge config over a star/cycle
schedule switching every 5 iterations with all three algorithms,
that config again with a DIGing step of 50, where DIGing diverges (at
seed 3 it aborts at iteration 14 of 200), so abort rows are compared
too, that config again without the ridge fields ``c`` and ``noise``, so
the objective's defaults are compared (every other config gives both),
that config again over two random geometric epochs, the second with a
radius that has to grow before its graph connects, so the edges picked
from the drawn points are compared (every other random epoch is
Erdos-Renyi), that config again reading its schedule from
``SCHEDULE_FILE`` by a path relative to the config, with epochs at 0,
100 and 180 of 200 iterations and a run cut at 150, so the schedule-file
route and a run that stops before a later epoch are compared, and a
``dataset`` objective over each data file, so the shuffle of samples
among agents is compared.  The second file holds the first's
values 1000 times larger, so some of its Newton line searches backtrack
(77 backtracking steps at seed 3), which no other config's do.  The
script uses the Python standard library and the benchmark's config
functions only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALL_ALGORITHMS = ["nesterov", "dual_gd", "diging"]
SWEEP_ARGS = ["--seeds", "3", "4", "--periods", "5", "50"]
DATASET_FILE = "data.txt"
DATASET_UNITS_FILE = "data_units.txt"
SCHEDULE_FILE = "schedule.json"
# star, then cycle, then path over 200 iterations; a 150-iteration run
# stops before the path epoch starts
FILE_SCHEDULE = {
    "horizon": 200,
    "epochs": [
        {"start": 0, "kind": "star", "n": 20},
        {"start": 100, "kind": "cycle", "n": 20},
        {"start": 180, "kind": "path", "n": 20},
    ],
}
# one valid constant set per bound: prop1 with its step alpha, prop2 with
# its step c, thm5 with (L, mu, R, eps) for its log term, cor2 with eps > 0
BOUNDS_ARGS = {
    "cor1": ["L=2", "mu=1", "R=10", "eps=0.001"],
    "thm3": ["L=4643", "mu=1", "R=1", "m=199", "N=1000"],
    "thm5": ["kappa=100", "alpha=0.01", "L=2", "mu=1", "R=3", "eps=0.001"],
    "cor2": ["eps=0.01", "kappa=4", "L=2", "mu=1", "norm_xstar=3"],
    "prop1": ["kappa_bar=4", "n=9", "B=2", "delta=0.1", "mu_bar=2", "alpha=0.0001"],
    "prop2": ["kappa=4", "L=2", "mu=0.5", "delta=0.1", "B=2", "c=0.01"],
    "prop3": ["lambda2=0.5", "kappa_phi=10", "chi=4"],
}


def _bench_workloads():
    bench = HERE.parent / "bench"
    sys.path.insert(0, str(bench))  # workloads imports its sibling ``reference``
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def switching_ridge_config(seed: int) -> dict:
    """Ridge n=20 over star/cycle graphs alternating every 5 of 200 iterations."""
    return {
        "seed": seed,
        "objective": {"kind": "ridge", "n": 20, "l": 10, "m": 5, "c": 0.1, "noise": 0.1},
        "schedule": {"alternating": {"kinds": ["star", "cycle"], "n": 20, "period": 5, "horizon": 200}},
        "algorithms": ALL_ALGORITHMS,
        "max_iter": 200,
        "record_every": 1,
        "run_id": "switching",
    }


def ridge_defaults_config(seed: int) -> dict:
    """The switching config without ``c`` and ``noise``, so the defaults apply."""
    objective = {"kind": "ridge", "n": 20, "l": 10, "m": 5}
    return {**switching_ridge_config(seed), "objective": objective, "run_id": "ridge_defaults"}


def geometric_config(seed: int) -> dict:
    """The switching config over two random geometric epochs.

    The first takes the default radius; the second's radius, 0.1, leaves
    20 points disconnected, so generation grows it.
    """
    epochs = [
        {"start": 0, "kind": "random_geometric", "n": 20, "seed": seed},
        {"start": 100, "kind": "random_geometric", "n": 20, "params": {"radius": 0.1}, "seed": seed + 1},
    ]
    return {
        **switching_ridge_config(seed),
        "schedule": {"horizon": 200, "epochs": epochs},
        "run_id": "geometric",
    }


def aborting_config(seed: int) -> dict:
    """The switching config with a DIGing step of 50, which makes DIGing abort."""
    return {
        **switching_ridge_config(seed),
        "overrides": {"diging_stepsize": 50},
        "run_id": "switching_abort",
    }


def schedule_file_config(seed: int) -> dict:
    """The switching config over ``FILE_SCHEDULE``, read from ``SCHEDULE_FILE``, for 150 iterations."""
    return {
        **switching_ridge_config(seed),
        "schedule": {"file": SCHEDULE_FILE},
        "max_iter": 150,
        "run_id": "schedule_file",
    }


def static_ridge_config(seed: int) -> dict:
    """The switching config's objective on one Erdos-Renyi graph, dual GD alone.

    Records every 3rd of 200 iterations, so the final row falls off the
    stride, and the contraction verdict runs on a quadratic family.
    """
    epochs = [{"start": 0, "kind": "erdos_renyi", "n": 20, "seed": seed}]
    return {
        **switching_ridge_config(seed),
        "schedule": {"horizon": 200, "epochs": epochs},
        "algorithms": ["dual_gd"],
        "record_every": 3,
        "run_id": "static_ridge",
    }


def dataset_text(samples: int = 63, dim: int = 8, units: bool = False) -> str:
    """A fixed sparse labeled data set, one ``label idx:val ...`` line per sample.

    Values come from a linear congruential generator, so the text is the
    same on every platform.  About half the entries are left out, and the
    label is the sign of a fixed linear score.  Values are integers from
    -1000 to 1000 written in thousandths, or with ``units`` as they are,
    1000 times larger.
    """
    state = 12345
    lines = []
    for _ in range(samples):
        feats = []
        score = 0
        for idx in range(1, dim + 1):
            state = (1103515245 * state + 12345) % 2**31
            if state >> 30:  # the high bits: an LCG's low bits cycle short
                val = (state >> 8) % 2001 - 1000
                feats.append(f"{idx}:{val}" if units else f"{idx}:{val / 1000:.3f}")
                score += (idx % 3 - 1) * val + 7
        lines.append(" ".join(["+1" if score > 0 else "-1", *feats]))
    return "\n".join(lines) + "\n"


def dataset_config(seed: int, path: str = DATASET_FILE, run_id: str = "dataset") -> dict:
    """Logistic loss on the 63 samples of ``path`` shuffled among 10 agents (6 each)."""
    return {
        "seed": seed,
        "objective": {"kind": "dataset", "path": path, "n": 10, "c": 0.1},
        "schedule": {"alternating": {"kinds": ["erdos_renyi", "cycle"], "n": 10, "period": 50, "horizon": 200}},
        "algorithms": ALL_ALGORITHMS,
        "max_iter": 200,
        "record_every": 1,
        "run_id": run_id,
    }


def configs(seeds: list[int]) -> dict[str, dict]:
    """Every config to digest, by name."""
    workloads = _bench_workloads()
    out = {}
    for seed in seeds:
        out[f"ridge_s{seed}"] = workloads.ridge_config(seed)
        out[f"logistic_s{seed}"] = workloads.logistic_config(seed)
    out[f"logistic_static_s{seeds[0]}"] = {
        **workloads.logistic_config(seeds[0]),
        "algorithms": ALL_ALGORITHMS,
        "run_id": "logistic_static",
    }
    out[f"static_ridge_s{seeds[0]}"] = static_ridge_config(seeds[0])
    out[f"switching_s{seeds[0]}"] = switching_ridge_config(seeds[0])
    out[f"switching_abort_s{seeds[0]}"] = aborting_config(seeds[0])
    out[f"ridge_defaults_s{seeds[0]}"] = ridge_defaults_config(seeds[0])
    out[f"geometric_s{seeds[0]}"] = geometric_config(seeds[0])
    out[f"schedule_file_s{seeds[0]}"] = schedule_file_config(seeds[0])
    out[f"dataset_s{seeds[0]}"] = dataset_config(seeds[0])
    out[f"dataset_units_s{seeds[0]}"] = dataset_config(seeds[0], DATASET_UNITS_FILE, "dataset_units")
    return out


def write_inputs(directory: Path) -> None:
    """Write the files the configs read by relative path into ``directory``."""
    (directory / DATASET_FILE).write_text(dataset_text(), encoding="utf-8")
    (directory / DATASET_UNITS_FILE).write_text(dataset_text(units=True), encoding="utf-8")
    (directory / SCHEDULE_FILE).write_text(json.dumps(FILE_SCHEDULE), encoding="utf-8")


def _env(checkout: Path) -> dict:
    src = str(checkout.resolve() / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdicts(summary: dict) -> dict:
    """The verdict fields of a run summary, without any float."""
    return {
        "alpha_feasible": summary["alpha_feasible"],
        "aborted": {name: run["aborted"] for name, run in summary["algorithms"].items()},
        "bounds": {
            name: {key: bound[key] for key in ("clean", "first_violation_iter")}
            for name, bound in summary["bounds"].items()
        },
    }


def _digest_lines(name: str, rel: str, data: bytes) -> list[str]:
    lines = [f"{_sha256(data)}  {name}/{rel}"]
    if rel.endswith("_summary.json"):
        picked = json.dumps(verdicts(json.loads(data)), sort_keys=True).encode()
        lines.append(f"{_sha256(picked)}  {name}/{rel}#verdicts")
    return lines


def digest_run(checkout: Path, name: str, config: dict, *sweep_args: str) -> list[str]:
    """``dvopt run`` of ``config`` in ``checkout``: digest lines per output file.

    With ``sweep_args`` (``--seeds ... --periods ...``) it runs ``dvopt
    sweep`` instead, and files in the cells' directories are named by
    their path under the output directory.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "output_dir": str(out_dir)}), encoding="utf-8")
        write_inputs(Path(tmp))
        command = ["sweep", str(path), *sweep_args] if sweep_args else ["run", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "dvopt.cli", *command],
            env=_env(checkout), capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return [f"exit {proc.returncode}  {name}: {last}"]
        files = sorted(f for f in out_dir.rglob("*") if f.is_file())
        return [
            line
            for f in files
            for line in _digest_lines(name, f.relative_to(out_dir).as_posix(), f.read_bytes())
        ]


def digest_stdout(checkout: Path, label: str, *command: str) -> str:
    """One digest line for the stdout of ``python3 <command>``, and its exit code when not 0."""
    proc = subprocess.run(
        [sys.executable, *command], env=_env(checkout), capture_output=True, check=False,
    )
    status = "" if proc.returncode == 0 else f" (exit {proc.returncode})"
    return f"{_sha256(proc.stdout)}  {label}{status}"


def digest_bounds(checkout: Path) -> list[str]:
    """One digest line per ``dvopt bounds`` run of ``BOUNDS_ARGS``."""
    return [
        digest_stdout(checkout, f"bounds/{name}", "-m", "dvopt.cli", "bounds", name, *args)
        for name, args in BOUNDS_ARGS.items()
    ]


def digest_graph_info(checkout: Path, name: str, schedule: dict) -> str:
    """The digest line of ``dvopt graph-info`` on ``schedule``, written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.json"
        path.write_text(json.dumps(schedule), encoding="utf-8")
        command = ("-m", "dvopt.cli", "graph-info", str(path))
        return digest_stdout(checkout, f"graph-info/{name}", *command)


def digest_demos(checkout: Path) -> list[str]:
    """One digest line per demo script's stdout (and its exit code when not 0)."""
    return [
        digest_stdout(checkout, f"demos/{demo.name}", str(demo))
        for demo in sorted((checkout / "demos").glob("*.py"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="checkout whose src runs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    args = parser.parse_args(argv)
    runs = configs(args.seeds)
    for name, config in runs.items():
        for line in digest_run(args.checkout, name, config):
            print(line, flush=True)
    sweep_config = switching_ridge_config(args.seeds[0])
    for line in digest_run(args.checkout, "switching_sweep", sweep_config, *SWEEP_ARGS):
        print(line, flush=True)
    for line in digest_bounds(args.checkout):
        print(line, flush=True)
    ridge = f"ridge_s{args.seeds[0]}"
    print(digest_graph_info(args.checkout, ridge, runs[ridge]["schedule"]), flush=True)
    for line in digest_demos(args.checkout):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
