"""Paired parent/change runs of one benchmark workload, summarised as JSON.

Usage, from anywhere::

    python3 tools/bench_pairs.py --parent /path/to/parent --change . \\
        --workload ridge_run --seeds 501 502 503 --seconds 30 --out BENCH_N.json

For each seed it runs ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, alternating which side runs
first, and reads each run's environment line and last (result) line.  It
uses the Python standard library only.

The ``--out`` file holds one entry per (workload, seeds): every pair's
metric values with ``correct``/``failed``, and for each end-to-end metric
of the change's ``BENCHMARK.json`` each side's median and quartiles, the
pairs the change wins (ties count for neither), the parent's
interquartile range and ``gain``: the change won at least nine tenths of
the pairs and the medians differ by more than that range.  Running it
again for another workload or other seeds adds an entry and keeps the rest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(p):
        pos = p * last
        lo = int(pos)
        hi = min(lo + 1, last)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Pair wins, quartiles and the gain verdict of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    return {
        "parent": dict(zip(("q1", "median", "q3"), pq)),
        "change": dict(zip(("q1", "median", "q3"), cq)),
        "change_wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "gain": wins >= WIN_SHARE * len(parent) and sign * (pq[1] - cq[1]) > iqr,
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run: its env line and its result line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1])
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def entry(workload: str, seeds: list[int], seconds: float, pairs: list[dict], spec: dict) -> dict:
    """The file entry of one workload from its pairs and the benchmark spec."""
    good = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    summary = {}
    for metric in spec["end_to_end"] if good else ():
        name = metric["name"]
        summary[name] = summarize(
            [p["parent"]["metrics"][name] for p in good],
            [p["change"]["metrics"][name] for p in good],
            metric["better"],
        )
    return {
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "env": next((p[s]["env"] for p in good for s in ("parent", "change")), None),
        "pairs": pairs,
        "failed": {
            side: sum(p[side].get("failed", 0) + ("error" in p[side]) for p in pairs)
            for side in ("parent", "change")
        },
        "summary": summary,
    }


def merge(path: Path, new: dict) -> dict:
    """The file's entries with ``new`` in place of an entry for the same runs."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"entries": []}
    key = (new["workload"], new["seeds"])
    data["entries"] = [e for e in data["entries"] if (e["workload"], e["seeds"]) != key]
    data["entries"].append(new)
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        shown = {s: pair[s].get("metrics", pair[s].get("error")) for s in ("parent", "change")}
        print(f"seed {seed} ({order[0]} first): {json.dumps(shown)}", flush=True)

    new = entry(args.workload, args.seeds, args.seconds, pairs, spec)
    args.out.write_text(json.dumps(merge(args.out, new), indent=1) + "\n", encoding="utf-8")
    for name, s in new["summary"].items():
        print(
            f"{args.workload} {name}: parent median {s['parent']['median']:.6g} "
            f"(IQR {s['parent_iqr']:.3g}), change median {s['change']['median']:.6g}, "
            f"change wins {s['change_wins']}/{s['pairs']}, gain {s['gain']}"
        )
    print(f"failed: {new['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
