"""Paired wall times of one pytest selection in a parent and a change checkout.

Usage, from anywhere::

    python3 tools/test_pairs.py --parent /path/to/parent --change . --rounds 7 \\
        -- tests/test_acceptance.py -k criterion_03

Everything after ``--`` is the pytest selection (none: the whole suite).
Each round runs ``python3 -m pytest -q -p no:cacheprovider <selection>``
once in each checkout, from the checkout's root with the checkout's own
``src`` first on ``PYTHONPATH``, alternating which side runs first, and
times the whole process with a monotonic clock, pytest start-up
included.  If either side's pytest fails (any exit code but 0) it stops
and exits 1.  Otherwise it prints each side's quartiles, the rounds the
change wins and ``bench_pairs``' gain verdict, computed by
``bench_pairs.quartiles`` and ``summarize``.  It uses the Python
standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import summarize


def command(checkout: Path, selection: list[str], environ: dict) -> tuple[list[str], dict]:
    """The pytest command of one side and its environment."""
    env = dict(environ)
    paths = [str(checkout / "src"), *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection], env


def run_pytest(checkout: Path, selection: list[str]) -> tuple[float, int, str]:
    """Seconds, exit code and last output line of one pytest run in ``checkout``."""
    cmd, env = command(checkout, selection, os.environ)
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    seconds = time.monotonic() - start
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return seconds, proc.returncode, lines[-1] if lines else ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv[:cut])
    selection = argv[cut + 1 :]
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    times: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            seconds, code, last = run_pytest(getattr(args, side).resolve(), selection)
            if code != 0:
                print(f"{side} pytest exited {code} in round {i + 1}: {last}", file=sys.stderr)
                return 1
            times[side].append(seconds)
        print(
            f"round {i + 1} ({order[0]} first): parent {times['parent'][-1]:.3f} s, "
            f"change {times['change'][-1]:.3f} s",
            flush=True,
        )
    s = summarize(times["parent"], times["change"], "lower")
    for side in ("parent", "change"):
        q = s[side]
        print(f"{side}: median {q['median']:.3f} s (q1 {q['q1']:.3f}, q3 {q['q3']:.3f})")
    print(f"change wins {s['change_wins']}/{s['pairs']}, parent IQR {s['parent_iqr']:.3f} s, gain {s['gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
