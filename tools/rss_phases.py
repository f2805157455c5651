"""Peak resident memory of one benchmark workload, phase by phase.

Usage, from anywhere::

    python3 tools/rss_phases.py --checkout /path/to/checkout --workload ridge_run --seed 7

It runs one repetition of the workload in this process the way
``bench/worker.py`` does: BLAS pinned to one thread, ``dvopt`` imported
from the checkout's ``src`` (with ``worker.import_dvopt``), the
checkout's ``bench/workloads.py``, ``worker.SETUP_REPEATS`` set-ups and
one timed phase, each under the bench's ``SpeedProbe``, the timed one
writing to a temporary directory.  It prints ``ru_maxrss``, the peak so
far in MB as the worker reports ``peak_rss_mb``, after importing numpy,
after importing dvopt, after each set-up and after the timed phase: one
``<phase> <MB> MB`` line each.  So a move in ``peak_rss_mb`` between two
checkouts can be placed in the phase that makes it.  It edits no file
of the checkout (Python caches bytecode in ``__pycache__`` folders, as
the bench's own runs do), and it does not check the workload's outputs.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

# bench/run.py's BLAS settings, which its workers inherit
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = args.checkout.resolve() / "bench"
    if not (bench / "worker.py").is_file():
        print(f"error: {args.checkout} has no bench/worker.py", file=sys.stderr)
        return 2

    def report(phase: str) -> None:
        print(f"{phase} {peak_mb():.2f} MB", flush=True)

    for var in BLAS_ENV:
        os.environ[var] = "1"
    import numpy  # noqa: F401 - measured on its own

    report("numpy")
    sys.path.insert(0, str(bench))
    import worker

    dvopt = worker.import_dvopt()
    import dvopt.cli  # noqa: F401 - as the worker does

    report("dvopt")
    import tracer  # noqa: F401 - the worker imports it untraced too
    from speed import SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    for k in range(worker.SETUP_REPEATS):
        with SpeedProbe():
            state = workload.setup(dvopt)
        report(f"setup_{k + 1}")
    with tempfile.TemporaryDirectory() as out, SpeedProbe():
        workload.timed(dvopt, state, Path(out) / args.workload)
    report("timed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
