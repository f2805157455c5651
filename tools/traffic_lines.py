"""The statements of ``dvopt`` that no run executes.

Usage, from anywhere::

    python3 tools/traffic_lines.py --checkout /path/to/checkout

It imports ``dvopt`` from the checkout's ``src`` (with the checkout's
``bench/worker.py::import_dvopt``, which refuses any other copy), traces
it with ``sys.settrace`` limited to the files under that ``src/dvopt``,
and runs, all in this process:

* each ``bench/workloads.py`` workload of the checkout at seed ``SEED``:
  set-up, timed phase and check;
* each ``output_digest.configs`` config (``output_digest.py`` next to
  this script) at ``SEED`` through ``dvopt.cli.main(["run", ...])``, in
  a temporary directory that holds the files the configs read;
* the digest's sweep (``SWEEP_ARGS``), each ``BOUNDS_ARGS`` bound and
  ``graph-info`` on the ridge config's schedule, through ``main``;
* each ``demos/*.py`` of the checkout, through ``runpy``.

Runs print nothing to stdout.  The script then prints
``<module>:<line>: <statement>`` for each statement that nothing
executed, and one line ``<module>: <k> of <m> statements not executed``
per module.  Statements are the ``ast`` statements of a module without
defs, classes, imports, ``global``/``nonlocal`` and docstrings; one
counts as executed when a line of it ran (for an ``if``, ``for``,
``try`` and the like, a line of its header).  It exits 1 if any run
raised, returned a nonzero code or failed its check.

A listed statement is a candidate for deletion, not a verdict: a raise
or an input check that no run reaches still guards the inputs that
runs do not give.  The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import io
import json
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 3  # the digest's first seed, at which its aborting config aborts
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (*SCOPES, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring statements of a module and its defs and classes."""
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]
    return {
        id(scope.body[0])
        for scope in scopes
        if isinstance(scope.body[0], ast.Expr)
        and isinstance(scope.body[0].value, ast.Constant)
        and isinstance(scope.body[0].value.value, str)
    }


def statements(source: str) -> list[tuple[int, range]]:
    """``(line, lines)`` of each counted statement: its first line and the lines that run it.

    A simple statement runs on any of its lines; a compound one on its
    header, the lines before its first inner statement.
    """
    tree = ast.parse(source)
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docs:
            continue
        inner = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        end = max(min(inner), node.lineno + 1) if inner else node.end_lineno + 1
        out.append((node.lineno, range(node.lineno, end)))
    return sorted(out)


def unexecuted(source: str, ran: set[int]) -> tuple[list[tuple[int, str]], int]:
    """The statements of ``source`` none of whose lines is in ``ran``, and the statement count."""
    lines = source.splitlines()
    found = statements(source)
    missed = [(line, lines[line - 1].strip()) for line, span in found if ran.isdisjoint(span)]
    return missed, len(found)


@contextlib.contextmanager
def tracing(root: Path):
    """Collect ``{file: {line, ...}}`` of the lines run in files under ``root`` while inside."""
    prefix = str(root.resolve()) + "/"
    hits: dict[str, set[int]] = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        yield hits
    finally:
        sys.settrace(before)


def report(root: Path, hits: dict[str, set[int]]) -> list[str]:
    """The listing and count lines for every module under ``root``."""
    listing, counts = [], []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        missed, total = unexecuted(path.read_text(encoding="utf-8"), hits.get(str(path.resolve()), set()))
        listing += [f"{module}:{line}: {text}" for line, text in missed]
        counts.append(f"{module}: {len(missed)} of {total} statements not executed")
    return listing + counts


def _traffic(checkout: Path, seed: int, dvopt) -> list[str]:
    """Run every workload, config, sweep, bound, graph-info and demo; the failures."""
    import output_digest
    from workloads import WORKLOADS

    failures = []

    def attempt(label, call):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                problem = call()
        except SystemExit as exc:  # a script may exit
            problem = f"exit {exc.code}" if exc.code else None
        except Exception:  # noqa: BLE001 - a raising run is a failed run; the rest go on
            problem = traceback.format_exc().strip()
        if problem:
            failures.append(f"{label}: {problem}")

    def cli(*argv):
        code = dvopt.cli.main(list(argv))
        return f"exit {code}" if code else None

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, make in WORKLOADS.items():
            def workload(make=make, out=tmp / name):
                w = make(seed)
                state = w.setup(dvopt)
                outcome = w.check(state, w.timed(dvopt, state, out), out)
                return f"{outcome.failed} failed: " + "; ".join(outcome.notes) if outcome.failed else None

            attempt(f"workload {name}", workload)
        output_digest.write_inputs(tmp)
        runs = output_digest.configs([seed])
        for name, config in runs.items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps({**config, "output_dir": str(tmp / name)}), encoding="utf-8")
            attempt(f"config {name}", lambda path=path: cli("run", str(path)))
        sweep = tmp / "sweep.json"
        config = {**output_digest.switching_ridge_config(seed), "output_dir": str(tmp / "sweep")}
        sweep.write_text(json.dumps(config), encoding="utf-8")
        attempt("sweep", lambda: cli("sweep", str(sweep), *output_digest.SWEEP_ARGS))
        for name, args in output_digest.BOUNDS_ARGS.items():
            attempt(f"bounds {name}", lambda name=name, args=args: cli("bounds", name, *args))
        schedule = tmp / "graph_info.json"
        schedule.write_text(json.dumps(runs[f"ridge_s{seed}"]["schedule"]), encoding="utf-8")
        attempt("graph-info", lambda: cli("graph-info", str(schedule)))
    for demo in sorted((checkout / "demos").glob("*.py")):
        def script(demo=demo):
            runpy.run_path(str(demo), run_name="__main__")

        attempt(f"demo {demo.name}", script)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="checkout whose src runs")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    root = checkout / "src" / "dvopt"
    if not (checkout / "bench" / "worker.py").is_file():
        print(f"error: {args.checkout} has no bench/worker.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(checkout / "bench"), str(HERE)]
    import worker

    with tracing(root) as hits:
        dvopt = worker.import_dvopt()  # under the trace, so module-level lines count
        import dvopt.cli  # noqa: F401 - the package does not import its CLI module

        failures = _traffic(checkout, SEED, dvopt)
    for line in report(root, hits):
        print(line)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
