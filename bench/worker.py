"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on stdout::

    python3 bench/worker.py --workload ridge_run --seed 3 --rep 0 --trace 0 --out .bench_out

It sets the workload up twice, runs the timed phase once -- under the
span tracer when ``--trace 1`` -- checks the outputs, and reports its own
peak resident memory.  Each set-up and the timed phase are timed by clock
and in reference seconds (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2


def import_dvopt():
    """Import dvopt from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dvopt

    if not Path(dvopt.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dvopt imported from {dvopt.__file__}, not from {src}")
    return dvopt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    dvopt = import_dvopt()
    import dvopt.cli  # noqa: F401 - the package does not import its CLI module

    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as setup:
            state = workload.setup(dvopt)
        setups.append(setup)

    out = Path(args.out)
    outdir = out / f"{args.workload}_s{args.seed}_r{args.rep}"
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(dvopt)
    try:
        with SpeedProbe() as timed:
            outputs = workload.timed(dvopt, state, outdir)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check(state, outputs, outdir)
    shutil.rmtree(outdir, ignore_errors=True)

    result = {
        "wall_s": timed.adjusted_s,
        "wall_clock_s": timed.clock_s,
        "setup_s": [p.adjusted_s for p in setups],
        "setup_clock_s": [p.clock_s for p in setups],
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(out / f"spans_{args.workload}_s{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
