"""dvopt benchmark: one workload for ``--seconds``, checked, one JSON line out.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ridge_run --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in
``workloads.py``.  Every repetition runs in a fresh worker process
(``worker.py``) with the BLAS thread count pinned, so ``peak_rss_mb`` is
one run's peak and no state carries over between repetitions.
Repetitions continue while another one would end near ``--seconds`` (at least
two).

``--trace 0`` reports the end-to-end metrics: medians over the
repetitions of ``wall_s`` (the timed phase), ``setup_s`` (pooled over
every set-up of every repetition) and ``peak_rss_mb``.  ``wall_s`` and
``setup_s`` are in reference seconds, clock time adjusted for the CPU
speed measured during it (``speed.py``); the clock medians are printed
beside them and every repetition's clock times are in the record.  ``--trace 1``
alternates traced and untraced repetitions and reports the per-layer
metrics (medians over the traced ones) plus ``tracing.overhead_s``, the
traced minus the untraced median ``wall_s``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the share of cells or runs that
raised or failed the output check (``fail_frac``).  Lines before it give
the environment and each metric by name and unit.  Spans of the last
traced repetition and a record of the run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MIN_REPS = 2
RUN_LIMIT_S = 170.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def run_rep(args, rep: int, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--rep", str(rep),
        "--trace", str(int(traced)), "--out", str(OUT),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dvopt" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no dvopt sources (src/dvopt) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    last = 0.0
    # Start another repetition while it would end at most half a repetition
    # past --seconds, so a run lasts about --seconds however long one takes.
    while len(reps) < MIN_REPS or time.monotonic() - start + last / 2 < args.seconds:
        if reps and time.monotonic() + last > deadline:
            break
        t0 = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_rep(args, len(reps), traced, deadline)
        rep["traced"] = traced
        reps.append(rep)
        last = time.monotonic() - t0
        if "error" in rep:
            print(f"rep {len(reps) - 1}: {rep['error']}", file=sys.stderr)
            break

    good = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in good) + sum(1 for r in reps if "error" in r)
    failed = sum(r["failed"] for r in good) + sum(1 for r in reps if "error" in r)
    plain = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced_reps):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    values: dict[str, float] = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([s for r in plain for s in r["setup_s"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    clock = {
        "wall_s": median([r["wall_clock_s"] for r in plain]),
        "setup_s": median([s for r in plain for s in r["setup_clock_s"]]),
    }
    if args.trace:
        for name in traced_reps[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced_reps])
        values["tracing.overhead_s"] = median([r["wall_s"] for r in traced_reps]) - values["wall_s"]

    notes = sorted({n for r in good for n in r["notes"]})
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(plain)} untraced and "
        f"{len(traced_reps)} traced repetitions, {attempted} attempted, {failed} failed, "
        f"fail_frac {failed / attempted:.4g}"
    )
    for note in notes:
        print(f"  check: {note}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        label = " (from array sizes)" if m["name"] == "algorithms.trace_bytes" else ""
        if m["name"] in clock:
            label = f" (reference seconds; clock {clock[m['name']]:.6g} s)"
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}{label}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"env": env, "args": vars(args), "repetitions": reps, "result": result}
    record_path = OUT / f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
