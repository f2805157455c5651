"""Run traces as columns: the abort row, the final record, and no per-row objects."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dvopt import algorithms, metrics
from dvopt.algorithms import run_diging, run_distributed_nesterov, run_dual_gradient
from dvopt.cli import ExperimentConfig, execute
from dvopt.graphs import GraphSchedule, gen_topology
from dvopt.metrics import compute_metrics
from dvopt.objectives import centralized_solve, gen_ridge_instance

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", _ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _run(config, tmp_path):
    summary = execute(ExperimentConfig.from_dict({**config, "output_dir": str(tmp_path)}))
    return summary, {
        name: (tmp_path / f"{config['run_id']}_{name}.csv").read_text().splitlines()
        for name in config["algorithms"]
    }


def test_aborted_diging_keeps_its_last_row(tmp_path):
    # The digest's DIGing run with step 50, which aborts at iteration 14 of 200
    summary, csvs = _run(output_digest.aborting_config(3), tmp_path)
    diging = csvs["diging"]
    assert len(diging) == 1 + 15
    assert diging[-2] == "13,2,nan,nan,809446878827.96228,9.3881849355650662e+20,76"
    # no dual value, an infinite residual (f* is finite) and an infinite gap
    assert diging[-1] == "14,2,nan,inf,inf,inf,0"
    stats = summary["algorithms"]["diging"]
    assert stats["aborted"] and stats["final_iter"] == 14
    assert stats["final_dual_residual"] == stats["final_primal_gap"] == math.inf
    assert [summary["algorithms"][n]["aborted"] for n in ("nesterov", "dual_gd")] == [False, False]


@pytest.mark.parametrize("max_iter, record_every", [(10, 3), (9, 3), (10, 10), (1, 4)])
def test_record_every_keeps_the_final_record(max_iter, record_every):
    agg = gen_ridge_instance(4, 3, 2, seed=1)
    schedule = GraphSchedule(10, ((0, gen_topology("path", 4)), (4, gen_topology("star", 4))))
    want = [*range(0, max_iter, record_every), max_iter]
    _, phi_star = centralized_solve(agg)
    for runner in (run_distributed_nesterov, run_dual_gradient, run_diging):
        trace = runner(agg, schedule, max_iter=max_iter, record_every=record_every)
        table = compute_metrics(trace, agg, (None, phi_star))
        assert trace.iter.tolist() == table.iter.tolist() == want
        assert [r.iter for r in trace.records] == want
        # the final record is in the last epoch that ran and sends nothing
        assert trace.epoch[-1] == schedule.epoch_index(max_iter - 1)
        assert trace.message_count[-1] == 0 and (trace.message_count[:-1] > 0).all()
        assert not np.isnan(trace.primal_value).any() and not trace.aborted


def test_execute_builds_no_record_or_row(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(algorithms.TraceRecord, "__init__", refuse)
    monkeypatch.setattr(metrics.MetricRow, "__init__", refuse)
    config = {
        "seed": 2,
        "objective": {"kind": "ridge", "n": 4, "l": 3, "m": 2, "c": 0.1, "noise": 0.1},
        # one epoch, so dual_gd keeps z for its contraction verdict
        "schedule": {"horizon": 12, "epochs": [{"start": 0, "kind": "cycle", "n": 4}]},
        "algorithms": ["nesterov", "dual_gd", "diging"],
        "max_iter": 12,
        "record_every": 5,
        "run_id": "lean",
    }
    summary, csvs = _run(config, tmp_path)
    assert set(summary["bounds"]) == {"accel_residual_bound", "gd_contraction_bound"}
    for rows in csvs.values():
        assert [line.split(",")[0] for line in rows[1:]] == ["0", "5", "10", "12"]
    saved = json.loads((tmp_path / "lean_summary.json").read_text())
    assert saved["algorithms"]["nesterov"]["final_iter"] == 12


def test_records_are_a_cached_view_of_the_columns():
    agg = gen_ridge_instance(3, 2, 2, seed=4)
    schedule = GraphSchedule(6, ((0, gen_topology("path", 3)),))
    trace = run_dual_gradient(agg, schedule, max_iter=6, record_every=2)
    assert trace.records is trace.records
    zs = trace.kept("z")
    assert len(zs) == 4 and all(np.array_equal(r.z, z) for r, z in zip(trace.records, zs))
    # a replaced column is the new trace's column and view; NaN is no primal value
    lost = dataclasses.replace(trace, primal_value=np.full(len(trace.iter), math.nan))
    assert [r.primal_value for r in lost.records] == [None] * 4
    table = compute_metrics(lost, agg, centralized_solve(agg))
    assert (table.primal_gap == math.inf).all() and (table.dual_residual == math.inf).all()
    # a replace that leaves the columns alone keeps them
    flagged = dataclasses.replace(trace, aborted=True)
    assert flagged.aborted and flagged.dual_value is trace.dual_value
