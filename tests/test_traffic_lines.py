"""tools/traffic_lines.py on a small module: the statements that no call ran."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("traffic_lines", _ROOT / "tools" / "traffic_lines.py")
traffic_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_lines)

SOURCE = '''\
"""A module."""
import math

LIMIT = 2


def root(x):
    """Square root of a non-negative x."""
    if x < 0:
        raise ValueError("negative")
    return math.sqrt(
        x
    )


def unused():
    global LIMIT
    LIMIT = 3
    return LIMIT


class Box:
    """Holds one value."""

    size = 1

    def get(self):
        try:
            return self.value
        except AttributeError:
            return None
'''


def test_lists_each_statement_no_call_ran(tmp_path):
    root = (tmp_path / "pkg").resolve()
    root.mkdir()
    path = root / "probe.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("traffic_probe", path)
    module = importlib.util.module_from_spec(spec)
    with traffic_lines.tracing(root) as hits:
        spec.loader.exec_module(module)  # module-level lines run under the trace
        assert module.root(4.0) == 2.0
        assert module.Box().get() is None
    # docstrings, imports, defs, classes and ``global`` are not statements
    # here; the multi-line return ran on its first line
    assert traffic_lines.report(root, hits) == [
        'probe.py:10: raise ValueError("negative")',
        "probe.py:18: LIMIT = 3",
        "probe.py:19: return LIMIT",
        "probe.py: 3 of 10 statements not executed",
    ]


def test_a_compound_statement_runs_on_its_header():
    source = "if a:\n    b = 1\nelse:\n    b = 2\nfor x in (\n    y\n):\n    pass\nwhile c: d = 1\n"
    assert traffic_lines.statements(source) == [
        (1, range(1, 2)), (2, range(2, 3)), (4, range(4, 5)), (5, range(5, 8)), (8, range(8, 9)),
        (9, range(9, 10)), (9, range(9, 10)),
    ]
