"""tools/output_digest.py on a tiny config: its digests are the outputs' sha256."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from dvopt import cli, objectives
from dvopt.cli import ExperimentConfig, execute, main
from dvopt.graphs import Topology

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
TINY_SCHEDULE = {
    "horizon": 6,
    "epochs": [{"start": 0, "kind": "path", "n": 3}, {"start": 3, "kind": "star", "n": 3}],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digest_lines_are_the_sha256_of_an_in_process_run(tmp_path):
    lines = output_digest.digest_run(_ROOT, "tiny", TINY)
    execute(ExperimentConfig.from_dict({**TINY, "output_dir": str(tmp_path)}))
    want = [f"{_sha256(f.read_bytes())}  tiny/{f.name}" for f in sorted(tmp_path.iterdir())]
    assert [ln.split("/")[1] for ln in want] == [
        "tiny_diging.csv", "tiny_nesterov.csv", "tiny_summary.json",
    ]
    summary = json.loads((tmp_path / "tiny_summary.json").read_text())
    accel = summary["bounds"]["accel_residual_bound"]
    picked = {
        "alpha_feasible": summary["alpha_feasible"],
        "aborted": {"diging": False, "nesterov": False},
        "bounds": {
            "accel_residual_bound": {
                "clean": accel["clean"],
                "first_violation_iter": accel["first_violation_iter"],
            }
        },
    }
    assert output_digest.verdicts(summary) == picked
    picked_sha = _sha256(json.dumps(picked, sort_keys=True).encode())
    assert lines == want + [f"{picked_sha}  tiny/tiny_summary.json#verdicts"]


def test_verdict_line_ignores_floats_and_follows_verdicts(tmp_path):
    execute(ExperimentConfig.from_dict({**TINY, "output_dir": str(tmp_path)}))
    summary = json.loads((tmp_path / "tiny_summary.json").read_text())
    accel = summary["bounds"]["accel_residual_bound"]

    def verdict_line(s):
        return output_digest._digest_lines("tiny", "tiny_summary.json", json.dumps(s).encode())[1]

    moved = json.loads(json.dumps(summary))
    moved["dual_radius"] *= 1.0 + 1e-9
    moved["bounds"]["accel_residual_bound"]["max_violation"] -= 1e-12
    moved["algorithms"]["nesterov"]["final_dual_residual"] *= 2.0
    assert verdict_line(moved) == verdict_line(summary)
    for path, value in (
        (("alpha_feasible",), not summary["alpha_feasible"]),
        (("algorithms", "diging", "aborted"), True),
        (("bounds", "accel_residual_bound", "clean"), not accel["clean"]),
        (("bounds", "accel_residual_bound", "first_violation_iter"), 4),
    ):
        flipped = json.loads(json.dumps(summary))
        target = flipped
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert verdict_line(flipped) != verdict_line(summary), path


def test_sweep_digest_lines_are_the_sha256_of_an_in_process_sweep(tmp_path):
    args = ["--seeds", "2", "5", "--periods", "1", "3"]
    lines = output_digest.digest_run(_ROOT, "tiny_sweep", TINY, *args)
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "output_dir": str(out)}), encoding="utf-8")
    assert main(["sweep", str(path), *args]) == 0
    files = sorted(f for f in out.rglob("*") if f.is_file())
    # four cells of two CSVs and a summary each, then the sweep table
    assert len(files) == 13
    assert lines[0].endswith("tiny_sweep/s2_p1/tiny_s2_p1_diging.csv")
    assert lines[-1].endswith("tiny_sweep/tiny_sweep.json")
    assert [ln for ln in lines if not ln.endswith("#verdicts")] == [
        f"{_sha256(f.read_bytes())}  tiny_sweep/{f.relative_to(out).as_posix()}" for f in files
    ]
    # each cell's summary line is followed by its verdict line
    summaries = [i for i, ln in enumerate(lines) if ln.endswith("_summary.json")]
    assert len(summaries) == 4
    assert len(lines) == 13 + 4
    for i in summaries:
        rel = lines[i].split("  ")[1]
        summary = json.loads((out / rel.split("/", 1)[1]).read_text())
        picked = json.dumps(output_digest.verdicts(summary), sort_keys=True).encode()
        assert lines[i + 1] == f"{_sha256(picked)}  {rel}#verdicts"


def test_failed_run_prints_its_exit_code():
    (line,) = output_digest.digest_run(_ROOT, "bad", {**TINY, "max_iter": 0})
    assert line.startswith("exit 1  bad:")


def test_configs_cover_each_seed_and_the_extra_runs():
    names = list(output_digest.configs([3, 7]))
    assert names == [
        "ridge_s3", "logistic_s3", "ridge_s7", "logistic_s7", "logistic_static_s3", "static_ridge_s3",
        "switching_s3", "switching_abort_s3", "ridge_defaults_s3", "geometric_s3", "schedule_file_s3",
        "dataset_s3", "dataset_units_s3",
    ]
    geometric = output_digest.configs([3])["geometric_s3"]
    assert {e["kind"] for e in geometric["schedule"]["epochs"]} == {"random_geometric"}
    # the second epoch's radius leaves its points disconnected, so it grows
    second = geometric["schedule"]["epochs"][1]
    n, radius = second["n"], second["params"]["radius"]
    pts = np.random.default_rng(second["seed"]).random((n, 2))
    close = np.sum((pts[:, None] - pts[None]) ** 2, axis=-1) <= radius**2
    pairs = tuple((i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if close[i, j])
    assert not Topology(n, pairs).is_connected()
    defaults = output_digest.configs([3])["ridge_defaults_s3"]
    assert defaults["objective"] == {"kind": "ridge", "n": 20, "l": 10, "m": 5}
    switching = output_digest.configs([3])["switching_s3"]
    assert {**defaults, "objective": switching["objective"], "run_id": "switching"} == switching
    static = output_digest.configs([3])["logistic_static_s3"]
    assert static["algorithms"] == ["nesterov", "dual_gd", "diging"]
    assert len(static["schedule"]["epochs"]) == 1
    ridge = output_digest.configs([3])["static_ridge_s3"]
    assert ridge["algorithms"] == ["dual_gd"] and len(ridge["schedule"]["epochs"]) == 1
    assert ridge["objective"]["kind"] == "ridge" and ridge["max_iter"] % ridge["record_every"] != 0
    dataset = output_digest.configs([3])["dataset_s3"]["objective"]
    assert (dataset["kind"], dataset["path"]) == ("dataset", output_digest.DATASET_FILE)
    from_file = output_digest.configs([3])["schedule_file_s3"]
    assert from_file["schedule"] == {"file": output_digest.SCHEDULE_FILE}
    # the run stops before the last epoch starts
    starts = [e["start"] for e in output_digest.FILE_SCHEDULE["epochs"]]
    assert starts == [0, 100, 180] and starts[1] < from_file["max_iter"] < starts[2]
    assert output_digest.FILE_SCHEDULE["horizon"] == 200
    units = output_digest.configs([3])["dataset_units_s3"]
    assert units["objective"]["path"] == output_digest.DATASET_UNITS_FILE
    assert units["run_id"] == "dataset_units"
    # the same samples and labels, each value 1000 times larger
    thousandths, whole = (
        [line.split() for line in output_digest.dataset_text(units=u).splitlines()]
        for u in (False, True)
    )
    for a, b in zip(thousandths, whole, strict=True):
        assert a[0] == b[0]
        for x, y in zip(a[1:], b[1:], strict=True):
            (i, u), (j, v) = x.split(":"), y.split(":")
            assert i == j and round(1000 * float(u)) == int(v)


def test_aborting_config_aborts_also_when_cut_at_the_abort(tmp_path):
    # the final state goes through the divergence check like every other
    config = output_digest.aborting_config(3)
    for max_iter in (200, 14):
        out = tmp_path / str(max_iter)
        execute(ExperimentConfig.from_dict({**config, "max_iter": max_iter, "output_dir": str(out)}))
        summary = json.loads((out / "switching_abort_summary.json").read_text())
        diging = summary["algorithms"]["diging"]
        assert (diging["aborted"], diging["final_iter"]) == (True, 14), max_iter
        assert diging["final_consensus_dist"] == float("inf")
        assert not summary["algorithms"]["nesterov"]["aborted"]


def _newton_work(tmp_path, monkeypatch, config):
    """Run a dataset ``config``: whether each Newton gradient evaluation took a
    strict subset of the rows, and the rows of each conjugate argmax that
    backtracked.

    A row makes one gradient evaluation per step and one Hessian per step
    after its first, so it backtracked once it made more than one gradient
    evaluation beyond its Hessians.
    """
    stack_type = objectives._LogisticStack
    grad_parts, hess, argmax = stack_type.grad_parts, stack_type.hess, stack_type.conj_argmax
    subsets, extra, backtracked = [], [], []

    def counted_grad(stack, x, rows=slice(None)):
        if extra:
            subsets.append(np.arange(stack.size)[rows].size < stack.size)
            extra[-1][rows] += 1
        return grad_parts(stack, x, rows)

    def counted_hess(stack, x, rows=slice(None), parts=()):
        if extra:
            extra[-1][rows] -= 1
        return hess(stack, x, rows, parts)

    def counted_argmax(stack, z):
        extra.append(np.zeros(stack.size, dtype=int))
        try:
            return argmax(stack, z)
        finally:
            backtracked.append(int((extra.pop() > 1).sum()))

    monkeypatch.setattr(stack_type, "grad_parts", counted_grad)
    monkeypatch.setattr(stack_type, "hess", counted_hess)
    monkeypatch.setattr(stack_type, "conj_argmax", counted_argmax)
    (tmp_path / output_digest.DATASET_FILE).write_text(output_digest.dataset_text())
    units = output_digest.dataset_text(units=True)
    (tmp_path / output_digest.DATASET_UNITS_FILE).write_text(units)
    raw = {**config, "output_dir": str(tmp_path / "out")}
    execute(ExperimentConfig.from_dict(raw, base_dir=str(tmp_path)))
    return subsets, backtracked


def test_dataset_config_drops_newton_rows(tmp_path, monkeypatch):
    # A damped-Newton solve passes its row evaluations a slice while every
    # row is active and an index array once some row is done, so the digest
    # compares that second path only if some config's rows converge at
    # different steps.  The dataset config's do; the benchmark's logistic
    # config (n=20 on one static graph) never drops a row.  No line search
    # of this config backtracks.
    subsets, backtracked = _newton_work(tmp_path, monkeypatch, output_digest.dataset_config(3))
    assert 0 < sum(subsets) < len(subsets)
    assert backtracked and not any(backtracked)


def test_dataset_units_config_backtracks(tmp_path, monkeypatch):
    # The same data 1000 times larger: some full Newton steps fail the line
    # search and their rows backtrack (77 backtracking steps at seed 3), so
    # the digest compares that path too.  The runs neither abort nor break
    # their bound, so every record is compared.
    config = output_digest.dataset_config(3, output_digest.DATASET_UNITS_FILE, "dataset_units")
    subsets, backtracked = _newton_work(tmp_path, monkeypatch, config)
    assert 0 < sum(subsets) < len(subsets)
    assert 0 < sum(backtracked)
    summary = json.loads((tmp_path / "out" / "dataset_units_summary.json").read_text())
    assert not any(run["aborted"] for run in summary["algorithms"].values())
    assert all(bound["clean"] for bound in summary["bounds"].values())


def test_bounds_digest_lines_are_the_sha256_of_in_process_bounds(capsys):
    assert list(output_digest.BOUNDS_ARGS) == list(cli._BOUNDS)
    lines = output_digest.digest_bounds(_ROOT)
    want = []
    for name, args in output_digest.BOUNDS_ARGS.items():
        assert main(["bounds", name, *args]) == 0
        want.append(f"{_sha256(capsys.readouterr().out.encode())}  bounds/{name}")
    assert lines == want
    # the runs give the steps, thm5's constants for its log term, and a nonzero eps
    given = {
        name: dict(arg.split("=") for arg in args) for name, args in output_digest.BOUNDS_ARGS.items()
    }
    assert "alpha" in given["prop1"] and "c" in given["prop2"]
    assert {"L", "mu", "R", "eps"} <= set(given["thm5"]) and "log_term" not in given["thm5"]
    assert float(given["cor2"]["eps"]) > 0


def test_graph_info_digest_line_is_the_sha256_of_an_in_process_run(tmp_path, capsys):
    line = output_digest.digest_graph_info(_ROOT, "tiny", TINY_SCHEDULE)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(TINY_SCHEDULE), encoding="utf-8")
    assert main(["graph-info", str(path)]) == 0
    assert line == f"{_sha256(capsys.readouterr().out.encode())}  graph-info/tiny"


def test_failed_command_line_carries_its_exit_code():
    line = output_digest.digest_stdout(_ROOT, "bounds/thm9", "-m", "dvopt.cli", "bounds", "thm9")
    assert line == f"{_sha256(b'')}  bounds/thm9 (exit 1)"
