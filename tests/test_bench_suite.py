"""The benchmark's own tests pass against this checkout.

``bench/test_bench.py`` checks the tracer's wrapping of the package's
functions and each workload's output check, so a source change that
breaks either fails here too.  They run in a subprocess from the root of
the checkout, as ``python3 -m pytest bench``.
"""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"],
        cwd=_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
