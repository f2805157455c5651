"""tools/src_lines.py on a small module: code, docstring, comment and blank lines."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''\
"""A module.

Its docstring has a blank line.
"""
# a comment
import math


def root(x):
    """Square root."""
    # the comment of a def
    return math.sqrt(x)  # a trailing comment makes no comment line


class Box:
    """Holds one value.

    """

    text = """not a docstring

    nor the lines of its string"""

    async def get(self):
        """One line."""
        return self.value
'''


def test_each_line_has_one_kind():
    counts = src_lines.count_lines(SOURCE)
    assert counts == {"code": 8, "docstring": 7, "comment": 2, "blank": 9}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_report_line_sums_the_kinds():
    line = src_lines.report_line("m.py", {"code": 3, "docstring": 2, "comment": 1, "blank": 0})
    assert line == "m.py: 6 lines = 3 code + 2 docstring + 1 comment + 0 blank"
