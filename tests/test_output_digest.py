"""tools/output_digest.py on a tiny config: its digests are the outputs' sha256."""

import hashlib
import importlib.util
import json
from pathlib import Path

from dvopt.cli import ExperimentConfig, execute, main

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", _ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

TINY = {
    "seed": 2,
    "objective": {"kind": "ridge", "n": 3, "l": 4, "m": 2, "c": 0.1, "noise": 0.1},
    "schedule": {"alternating": {"kinds": ["path", "star"], "n": 3, "period": 2, "horizon": 6}},
    "algorithms": ["nesterov", "diging"],
    "max_iter": 6,
    "run_id": "tiny",
}


def test_digest_lines_are_the_sha256_of_an_in_process_run(tmp_path):
    lines = output_digest.digest_run(_ROOT, "tiny", TINY)
    execute(ExperimentConfig.from_dict({**TINY, "output_dir": str(tmp_path)}))
    want = [
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  tiny/{f.name}"
        for f in sorted(tmp_path.iterdir())
    ]
    assert [ln.split("/")[1] for ln in want] == [
        "tiny_diging.csv", "tiny_nesterov.csv", "tiny_summary.json",
    ]
    assert lines == want


def test_sweep_digest_lines_are_the_sha256_of_an_in_process_sweep(tmp_path):
    args = ["--seeds", "2", "5", "--periods", "1", "3"]
    lines = output_digest.digest_run(_ROOT, "tiny_sweep", TINY, *args)
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "output_dir": str(out)}), encoding="utf-8")
    assert main(["sweep", str(path), *args]) == 0
    want = [
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  tiny_sweep/{f.relative_to(out).as_posix()}"
        for f in sorted(f for f in out.rglob("*") if f.is_file())
    ]
    # four cells of two CSVs and a summary each, then the sweep table
    assert len(want) == 13
    assert want[0].endswith("tiny_sweep/s2_p1/tiny_s2_p1_diging.csv")
    assert want[-1].endswith("tiny_sweep/tiny_sweep.json")
    assert lines == want


def test_failed_run_prints_its_exit_code():
    (line,) = output_digest.digest_run(_ROOT, "bad", {**TINY, "max_iter": 0})
    assert line.startswith("exit 1  bad:")


def test_configs_cover_each_seed_and_the_extra_runs():
    names = list(output_digest.configs([3, 7]))
    assert names == [
        "ridge_s3", "logistic_s3", "ridge_s7", "logistic_s7", "logistic_static_s3", "switching_s3",
    ]
    static = output_digest.configs([3])["logistic_static_s3"]
    assert static["algorithms"] == ["nesterov", "dual_gd", "diging"]
    assert len(static["schedule"]["epochs"]) == 1
