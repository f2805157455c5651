"""tools/rss_phases.py on this checkout: its phase lines, and nothing written to the bench."""

import hashlib
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "rss_phases.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(_TOOL), *args], capture_output=True, text=True, check=False, cwd=_ROOT
    )


def test_phases_print_in_order_and_never_fall():
    bench = _ROOT / "bench"
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bench.glob("*.py")}
    proc = run_tool("--checkout", str(_ROOT), "--workload", "logistic_run", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [r[0] for r in rows] == ["numpy", "dvopt", "setup_1", "setup_2", "timed"]
    assert all(r[2] == "MB" for r in rows)
    peaks = [float(r[1]) for r in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0  # ru_maxrss is a running peak
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bench.glob("*.py")} == before


def test_an_unknown_workload_exits_2_naming_it():
    proc = run_tool("--checkout", str(_ROOT), "--workload", "nope", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: unknown workload 'nope'"


def test_a_checkout_without_the_bench_exits_2(tmp_path):
    proc = run_tool("--checkout", str(tmp_path), "--workload", "ridge_run", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"error: {tmp_path} has no bench/worker.py"
    assert proc.stdout == ""
