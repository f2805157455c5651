"""Tests of the benchmark's own code: tracing arithmetic, wrapper removal,
and the output check.  Run with ``python3 -m pytest bench``."""

import csv
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference
from speed import REFERENCE_PROBE_S, SpeedProbe, adjusted_seconds
from tracer import CLASSES, MODULES, Tracer, self_times
from worker import ROOT, import_dvopt
from workloads import Cell, CliRun, SwitchingSweep, period_verdict

dvopt = import_dvopt()
import dvopt.cli  # noqa: E402,F401


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > a.child [2,3];  root > b [5,6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    np.testing.assert_allclose(self_times(starts, ends, parents), [6.0, 2.0, 1.0, 1.0])


def test_tracer_spans_from_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    # outer [0,5], inner [1,2], inner [3,4]
    assert tracer.starts == [0.0, 1.0, 3.0]
    assert tracer.ends == [5.0, 2.0, 4.0]
    assert tracer.parents == [-1, 0, 0]
    np.testing.assert_allclose(self_times(tracer.starts, tracer.ends, tracer.parents), [3.0, 1.0, 1.0])


def test_adjusted_seconds_weights_each_gap_by_the_probes_around_it():
    # probes take 1, 1 and 2 s; work runs in [1, 3] and [4, 6]
    probes = [(0.0, 1.0), (3.0, 1.0), (6.0, 2.0)]
    want = 2.0 * 1.0 + 2.0 * 0.75
    assert adjusted_seconds(probes, 1.0, 6.0) == pytest.approx(want * REFERENCE_PROBE_S)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    def previous(*_):
        raise AssertionError("previous handler must not run")

    original = signal.signal(signal.SIGALRM, previous)
    try:
        with SpeedProbe() as probe:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, original)
    assert len(probe.probes) >= 4
    assert probe.clock_s >= 0.1 and probe.adjusted_s > 0.0


def _bindings():
    owners = [dvopt] + [getattr(dvopt, m) for m in MODULES]
    owners += [getattr(getattr(dvopt, m), c) for m, c, _ in CLASSES]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_wraps_every_binding_and_removes_every_wrapper():
    original = dvopt.linalg.eig_sym
    before = _bindings()
    tracer = Tracer()
    tracer.install(dvopt)
    try:
        assert dvopt.graphs.eig_sym is not original
        assert dvopt.objectives.eig_sym is dvopt.graphs.eig_sym
        topo = dvopt.gen_topology("cycle", 6)
        dvopt.theta_bounds(dvopt.GraphSchedule(4, ((0, topo), (2, topo))))
    finally:
        tracer.remove()
    assert dvopt.graphs.eig_sym is dvopt.linalg.eig_sym is original
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layers = tracer.layer_metrics()
    assert layers["graphs.spectral_info.calls"] == 2
    assert layers["graphs.spectral_info.repeat_frac"] == 0.5
    assert layers["linalg.eig_sym.calls"] == 2
    assert layers["linalg.eig_sym.repeat_frac"] == 0.5
    assert layers["graphs.laplacian.calls"] == 2


def _tiny_ridge(seed):
    n = 6
    return {
        "seed": seed,
        "objective": {"kind": "ridge", "n": n, "l": 5, "m": 3, "c": 0.1, "noise": 0.1},
        "schedule": {
            "horizon": 300,
            "epochs": [
                {"start": 150 * i, "kind": "erdos_renyi", "n": n, "params": {"p": 0.7}, "seed": i}
                for i in range(2)
            ],
        },
        "algorithms": ["nesterov", "dual_gd", "diging"],
        "max_iter": 300,
        "record_every": 1,
        "run_id": "tiny",
    }


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tiny")
    run = CliRun("tiny", _tiny_ridge(3))
    state = run.setup(dvopt)
    summary = run.timed(dvopt, state, outdir)
    return run, state, summary, outdir


def test_cli_check_passes_on_the_program_output(tiny_run):
    run, state, summary, outdir = tiny_run
    outcome = run.check(state, summary, outdir)
    assert (outcome.attempted, outcome.failed) == (1, 0), outcome.notes


@pytest.mark.parametrize(
    "perturb",
    [
        lambda s: s["bounds"]["accel_residual_bound"].update(clean=False, max_violation=1e-3),
        lambda s: s["algorithms"]["dual_gd"].update(aborted=True),
        lambda s: s.update(alpha_feasible=not s["alpha_feasible"]),
        lambda s: s["algorithms"]["nesterov"].update(final_dual_residual=1e-3),
    ],
    ids=["flipped-bound-verdict", "aborted", "alpha-feasible", "unconverged"],
)
def test_cli_check_fails_a_perturbed_summary(tiny_run, perturb):
    run, state, summary, outdir = tiny_run
    bad = json.loads(json.dumps(summary))
    perturb(bad)
    assert run.check(state, bad, outdir).failed == 1


def test_cli_check_notes_a_rounding_level_bound_violation(tiny_run):
    run, state, summary, outdir = tiny_run
    bad = json.loads(json.dumps(summary))
    bad["bounds"]["accel_residual_bound"].update(clean=False, max_violation=1e-14, first_violation_iter=290)
    outcome = run.check(state, bad, outdir)
    assert outcome.failed == 0
    assert any("rounding-level" in note for note in outcome.notes)


def test_cli_check_fails_a_changed_message_count(tiny_run, tmp_path):
    run, state, summary, outdir = tiny_run
    for f in Path(outdir).glob("*.csv"):
        shutil.copy(f, tmp_path / f.name)
    path = tmp_path / "tiny_diging.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[10]["message_count"] = str(int(rows[10]["message_count"]) - 2)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert run.check(state, summary, tmp_path).failed == 1


def test_cli_check_counts_a_raised_error():
    run = CliRun("tiny", _tiny_ridge(3))
    assert run.check(None, RuntimeError("boom"), None).failed == 1


def test_period_verdict_treats_rounding_level_residuals_as_zero():
    cells = [Cell(("star", "cycle"), 5, 0), Cell(("star", "cycle"), 200, 1)]
    firsts = [0.05, 0.05]
    assert period_verdict(cells, [3.0, 1e-14], firsts)
    assert not period_verdict(cells, [2e-15, -1e-14], firsts)


def test_switching_check_fails_a_changed_residual_or_verdict():
    shape = ((("star", "cycle"), 5), (("star", "cycle"), 200), (("complete", "path"), 50))
    sweep = SwitchingSweep(0, shape)
    state = sweep.setup(dvopt)
    refs = [reference.nesterov_residuals(agg, s, 1000) for agg, s in state]
    assert refs[0][1] > 1.0  # seed 0's period-5 cell diverges
    assert sweep.check(state, refs, None).failed == 0
    converged_fast = [refs[0][:1] + (0.0,)] + refs[1:]
    outcome = sweep.check(state, converged_fast, None)
    assert outcome.failed > 0
    assert any("period verdict" in note for note in outcome.notes)
    slow_path = refs[:2] + [(refs[2][0], 0.5 * refs[2][0])]
    assert sweep.check(state, slow_path, None).failed == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ridge_run", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
