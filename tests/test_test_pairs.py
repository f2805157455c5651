"""Round order and summary of tools/test_pairs.py with a stub runner; launches no pytest."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # the tool imports bench_pairs beside it
    spec = importlib.util.spec_from_file_location("test_pairs_tool", _TOOLS / "test_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub(monkeypatch, module, seconds, failing=None):
    """Replace the runner: each side's times in turn, exit 1 on the ``failing`` (side, call)."""
    calls = []

    def run_pytest(checkout, selection):
        side = checkout.name
        calls.append((side, selection))
        count = sum(1 for s, _ in calls if s == side)
        if (side, count) == failing:
            return 0.5, 1, "1 failed, 3 passed"
        return seconds[side][count - 1], 0, "4 passed"

    monkeypatch.setattr(module, "run_pytest", run_pytest)
    return calls


def test_rounds_alternate_and_the_summary_reads_bench_pairs(tool, monkeypatch, capsys):
    seconds = {"parent": [2.0, 2.2, 2.4, 2.6, 2.8], "change": [1.9, 2.3, 2.0, 2.1, 2.2]}
    calls = stub(monkeypatch, tool, seconds)
    argv = ["--parent", "/w/parent", "--change", "/w/change", "--rounds", "5", "--", "tests", "-k", "crit"]
    assert tool.main(argv) == 0
    sides = [side for side, _ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert all(selection == ["tests", "-k", "crit"] for _, selection in calls)
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "round 2 (change first): parent 2.200 s, change 2.300 s"
    assert out[5] == "parent: median 2.400 s (q1 2.200, q3 2.600)"
    assert out[6] == "change: median 2.100 s (q1 2.000, q3 2.200)"
    # 4 wins of 5 and a median gap of 0.3 s inside the parent's 0.4 s IQR
    assert out[7] == "change wins 4/5, parent IQR 0.400 s, gain False"


def test_a_failing_side_stops_the_rounds_and_exits_1(tool, monkeypatch, capsys):
    seconds = {"parent": [1.0] * 3, "change": [1.0] * 3}
    calls = stub(monkeypatch, tool, seconds, failing=("change", 2))
    assert tool.main(["--parent", "a/parent", "--change", "a/change", "--rounds", "3"]) == 1
    assert [side for side, _ in calls] == ["parent", "change", "change"]
    assert calls[0][1] == []  # no selection: the whole suite
    captured = capsys.readouterr()
    assert captured.err.strip() == "change pytest exited 1 in round 2: 1 failed, 3 passed"
    assert "median" not in captured.out


def test_each_side_runs_its_own_src_without_the_cache(tool):
    cmd, env = tool.command(Path("/w/change"), ["-k", "x"], {"PYTHONPATH": "/other", "HOME": "/h"})
    assert cmd == [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "x"]
    assert env == {"PYTHONPATH": os.pathsep.join(["/w/change/src", "/other"]), "HOME": "/h"}
    _, env = tool.command(Path("/w/parent"), [], {})
    assert env == {"PYTHONPATH": "/w/parent/src"}
