"""Paired parent/change runs of one benchmark workload, summarised as JSON.

Usage, from anywhere::

    python3 tools/bench_pairs.py --parent /path/to/parent --change . \\
        --workload ridge_run --seeds 501 502 503 --seconds 30 --out BENCH_N.json

For each seed it runs ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, alternating which side runs
first, and reads each run's environment line and last (result) line.  It
uses the Python standard library only.

``--control PATH`` adds a third side: a copy of the parent whose source
differs only in text no run executes, one fixed comment block appended to
each ``src/dvopt`` module, at a path as long as the other two::

    git -C /work/parent archive --prefix=contrl/ HEAD | tar -x -C /work
    for f in /work/contrl/src/dvopt/*.py; do
        for i in $(seq 40); do echo "# control padding line $i" >> "$f"; done
    done

Its runs rotate with the other two (seed i starts the order parent,
change, control at side i mod 3), its failures count in the entry, and
each metric's summary records its quartiles.  Moving the source text
alone moves the code's memory layout, and with it timings by a few
percent, so with a control ``gain`` also needs the change's median to
move from the parent's, in the better direction, by more than the
control's median moves in either direction (``control_move``).

The ``--out`` file holds one entry per (workload, seeds): every pair's
metric values with ``correct``/``failed``, and for each end-to-end metric
of the change's ``BENCHMARK.json`` each side's median and quartiles, the
pairs the change wins (ties count for neither), the parent's
interquartile range and ``gain``: the change won at least nine tenths of
the pairs and the medians differ by more than that range.  Two fields
give the no-regression verdict against the metric's relative ``bound``,
whose margin is ``bound`` times the parent median: ``worse``, the change
median is worse than the parent median by more than the margin, and
``unresolved``, the parent's interquartile range is wider than the margin
and not every change run reads better than every parent run.  Each entry
also records the checkouts' resolved paths; the tool prints a warning
when their lengths differ, since the length of a checkout's path alone
moves ``peak_rss_mb`` by a few tenths of a MB.  Running it again for
another workload or other seeds adds an entry and keeps the rest.
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


def summarize(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float | None = None,
    control: list[float] | None = None,
) -> dict:
    """Pair wins, quartiles and ``gain``; given a ``bound``, also ``worse`` and ``unresolved``.

    Given ``control`` runs, the summary also holds their quartiles and
    ``control_move``, the control median's distance from the parent
    median, and ``gain`` needs the change's move to exceed it.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    move = sign * (pq[1] - cq[1])  # the change's median move, positive when better
    summary = {
        "parent": dict(zip(("q1", "median", "q3"), pq)),
        "change": dict(zip(("q1", "median", "q3"), cq)),
        "change_wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "gain": wins >= WIN_SHARE * len(parent) and move > iqr,
    }
    if control is not None:
        kq = quartiles(control)
        control_move = abs(pq[1] - kq[1])
        summary.update(
            control=dict(zip(("q1", "median", "q3"), kq)),
            control_move=control_move,
            gain=summary["gain"] and move > control_move,
        )
    if bound is not None:
        margin = bound * abs(pq[1])
        apart = all(sign * (p - c) > 0 for p in parent for c in change)
        worse = sign * (cq[1] - pq[1]) > margin
        summary.update(bound=bound, worse=worse, unresolved=iqr > margin and not apart)
    return summary


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


def length_warning(checkouts: dict) -> str | None:
    """A warning when the resolved checkout paths differ in length, else None."""
    lengths = [len(path) for path in checkouts.values()]
    if len(set(lengths)) == 1:
        return None
    listed = ", ".join(map(str, lengths[:-1])) + f" and {lengths[-1]}"
    return (
        f"warning: the checkout paths have {listed} characters; "
        "peak_rss_mb moves with a path's length alone, so use paths of equal length"
    )


def entry(
    workload: str, seeds: list[int], seconds: float, pairs: list[dict], spec: dict, checkouts: dict
) -> dict:
    """The file entry of one workload from its pairs, the benchmark spec and the checkout paths.

    The sides are the keys of ``checkouts``: parent and change, and the
    control when there is one.  A pair enters the summary when no side
    of it failed to run.
    """
    sides = tuple(checkouts)
    good = [p for p in pairs if not any("error" in p[side] for side in sides)]
    summary = {}
    for metric in spec["end_to_end"] if good else ():
        name = metric["name"]
        runs = {side: [p[side]["metrics"][name] for p in good] for side in sides}
        summary[name] = summarize(
            runs["parent"], runs["change"], metric["better"], metric["bound"], runs.get("control")
        )
    return {
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "checkouts": checkouts,
        "env": next((p[s]["env"] for p in good for s in sides), None),
        "pairs": pairs,
        "failed": {
            side: sum(p[side].get("failed", 0) + ("error" in p[side]) for p in pairs)
            for side in sides
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
    parser.add_argument("--control", type=Path, help="parent checkout with inert source text added")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = ("parent", "change") + (("control",) if args.control else ())
    checkouts = {side: str(getattr(args, side).resolve()) for side in sides}
    warning = length_warning(checkouts)
    if warning:
        print(warning, file=sys.stderr, flush=True)
    pairs = []
    for i, seed in enumerate(args.seeds):
        start = i % len(sides)
        order = sides[start:] + sides[:start]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        shown = {s: pair[s].get("metrics", pair[s].get("error")) for s in sides}
        print(f"seed {seed} ({order[0]} first): {json.dumps(shown)}", flush=True)

    new = entry(args.workload, args.seeds, args.seconds, pairs, spec, checkouts)
    args.out.write_text(json.dumps(merge(args.out, new), indent=1) + "\n", encoding="utf-8")
    for name, s in new["summary"].items():
        control = f"control median {s['control']['median']:.6g}, " if "control" in s else ""
        print(
            f"{args.workload} {name}: parent median {s['parent']['median']:.6g} "
            f"(IQR {s['parent_iqr']:.3g}), change median {s['change']['median']:.6g}, {control}"
            f"change wins {s['change_wins']}/{s['pairs']}, gain {s['gain']}, "
            f"worse {s['worse']}, unresolved {s['unresolved']}"
        )
    print(f"failed: {new['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
