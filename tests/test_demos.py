"""Every demo runs to completion against this checkout's ``src``."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_exits_zero_with_output(tmp_path):
    demos = sorted((_ROOT / "demos").glob("*.py"))
    assert demos
    path = [str(_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stdout.strip(), demo.name
