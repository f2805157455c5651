"""Code, docstring, comment and blank lines of ``dvopt``'s modules.

Usage, from anywhere::

    python3 tools/src_lines.py --checkout /path/to/checkout

It prints one line per module of the checkout's ``src/dvopt``,
``<module>: <lines> lines = <c> code + <d> docstring + <m> comment + <b> blank``,
and one such line for the total.  Each line of a module is exactly one of:

* blank: only whitespace, also inside a docstring;
* docstring: any other line of a module, class or function docstring;
* comment: its first non-blank character is ``#``;
* code: every other line.

The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a module and its defs and classes span."""
    lines = set()
    for scope in ast.walk(tree):
        if isinstance(scope, SCOPES) and ast.get_docstring(scope, clean=False) is not None:
            doc = scope.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``KINDS`` order."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if not text:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def report_line(name: str, counts: dict[str, int]) -> str:
    parts = " + ".join(f"{counts[kind]} {kind}" for kind in KINDS)
    return f"{name}: {sum(counts.values())} lines = {parts}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True, help="checkout whose src/dvopt is counted")
    args = parser.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    for path in sorted((args.checkout / "src" / "dvopt").glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        print(report_line(path.name, counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(report_line("total", total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
