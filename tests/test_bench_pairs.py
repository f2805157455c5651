"""Summary arithmetic of tools/bench_pairs.py on fixed numbers; runs no benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    ]
}


CHECKOUTS = {"parent": "/work/parent", "change": "/work/change"}


def _side(wall, rss, failed=0):
    return {"env": {"cpu": "x"}, "correct": failed == 0, "attempted": 1, "failed": failed,
            "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_counts_wins_and_compares_medians_with_the_parent_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p - 5.0 for p in parent]
    change[3] = 13.0  # one tie: counts for neither side
    s = bench_pairs.summarize(parent, change, "lower", 0.2)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["parent_iqr"] == 2.0
    assert s["change"]["median"] == 7.0
    assert s["gain"]

    close = bench_pairs.summarize(parent, [p - 1.0 for p in parent], "lower", 0.2)
    assert close["change_wins"] == 10 and not close["gain"]  # 1.0 is inside the IQR of 2.0
    higher = bench_pairs.summarize(parent, [p + 5.0 for p in parent], "higher", 0.2)
    assert higher["change_wins"] == 10 and higher["gain"]
    assert bench_pairs.summarize(parent, [p + 5.0 for p in parent], "lower", 0.2)["change_wins"] == 0


def test_worse_compares_medians_with_the_relative_bound():
    # parent median 12, IQR 2; a 0.2 bound allows the change median up to 14.4
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    inside = bench_pairs.summarize(parent, [p + 2.0 for p in parent], "lower", 0.2)
    assert inside["bound"] == 0.2 and not inside["worse"] and not inside["unresolved"]
    assert bench_pairs.summarize(parent, [p + 2.5 for p in parent], "lower", 0.2)["worse"]
    # for a metric where higher is better, a lower change median is the worse one
    assert bench_pairs.summarize(parent, [p - 2.5 for p in parent], "higher", 0.2)["worse"]
    assert not bench_pairs.summarize(parent, [p + 2.5 for p in parent], "higher", 0.2)["worse"]


def test_unresolved_needs_a_parent_iqr_wider_than_the_margin_unless_every_change_run_is_better():
    # parent median 12, IQR 2; a 0.1 bound gives a margin of 1.2, narrower than the IQR
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    same = bench_pairs.summarize(parent, list(parent), "lower", 0.1)
    assert same["unresolved"] and not same["worse"]
    # every change run (at most 9.5) reads better than every parent run (at least 10)
    better = bench_pairs.summarize(parent, [9.0 + (p - 12.0) / 4 for p in parent], "lower", 0.1)
    assert not better["unresolved"] and not better["worse"]
    higher = bench_pairs.summarize(parent, [15.0 + (p - 12.0) / 4 for p in parent], "higher", 0.1)
    assert not higher["unresolved"]
    # all worse is no separation that resolves a spread this wide
    worse = bench_pairs.summarize(parent, [17.0 + (p - 12.0) / 4 for p in parent], "lower", 0.1)
    assert worse["worse"] and worse["unresolved"]
    # a margin of 2.4 covers the IQR of 2, so the same runs are resolved
    assert not bench_pairs.summarize(parent, list(parent), "lower", 0.2)["unresolved"]
    # without a bound (the tier-1 wall time has none) there is no such verdict
    assert {"bound", "worse", "unresolved"}.isdisjoint(bench_pairs.summarize(parent, parent, "lower"))


def test_entry_leaves_failed_pairs_out_of_the_summary_and_merge_replaces_same_runs(tmp_path):
    pairs = [
        {"seed": 1, "first": "parent", "parent": _side(1.0, 80.0), "change": _side(0.9, 50.0)},
        {"seed": 2, "first": "change", "parent": _side(1.2, 81.0), "change": {"error": "exit 1"}},
        {"seed": 3, "first": "parent", "parent": _side(1.1, 82.0, failed=2), "change": _side(1.0, 51.0)},
    ]
    e = bench_pairs.entry("ridge_run", [1, 2, 3], 30.0, pairs, SPEC, CHECKOUTS)
    assert e["failed"] == {"parent": 2, "change": 1}
    assert e["summary"]["peak_rss_mb"]["pairs"] == 2
    assert e["summary"]["peak_rss_mb"]["parent"]["median"] == pytest.approx(81.0)
    assert e["summary"]["wall_s"]["change_wins"] == 2
    assert e["env"] == {"cpu": "x"}
    assert e["checkouts"] == CHECKOUTS

    out = tmp_path / "bench.json"
    out.write_text('{"entries": [{"workload": "ridge_run", "seeds": [1, 2, 3]},'
                   ' {"workload": "logistic_run", "seeds": [1]}]}')
    merged = bench_pairs.merge(out, e)
    assert [x["workload"] for x in merged["entries"]] == ["logistic_run", "ridge_run"]
    assert merged["entries"][-1] is e


def test_length_warning_names_both_lengths_only_when_they_differ():
    assert bench_pairs.length_warning(CHECKOUTS) is None
    warning = bench_pairs.length_warning({"parent": "/work/head", "change": "/work/proto"})
    assert warning.startswith("warning: the checkout paths have 10 and 11 characters;")


def test_main_records_resolved_paths_and_warns_on_unequal_lengths(tmp_path, monkeypatch, capsys):
    # a stub run per side, so no benchmark runs
    for name in ("head", "proto"):
        (tmp_path / name).mkdir()
    (tmp_path / "proto" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}'
    )
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, *_: _side(1.0, 2.0))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    argv = ["--parent", "head", "--change", "proto/", "--workload", "w", "--seeds", "1",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    (recorded,) = json.loads(out.read_text())["entries"]
    base = tmp_path.resolve()
    assert recorded["checkouts"] == {"parent": str(base / "head"), "change": str(base / "proto")}
    n = len(str(base))
    captured = capsys.readouterr()
    assert f"warning: the checkout paths have {n + 5} and {n + 6} characters;" in captured.err
    assert "gain False, worse False, unresolved False" in captured.out


def test_with_a_control_gain_also_needs_a_move_beyond_the_controls():
    # parent median 12, IQR 2; the change reads 5 lower on every pair
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p - 5.0 for p in parent]
    beyond = bench_pairs.summarize(parent, change, "lower", 0.2, [p - 4.0 for p in parent])
    assert beyond["control"] == {"q1": 7.0, "median": 8.0, "q3": 9.0}
    assert beyond["control_move"] == 4.0 and beyond["gain"]
    # the control moved as far as the change: its move is layout, not code
    assert not bench_pairs.summarize(parent, change, "lower", 0.2, [p - 5.0 for p in parent])["gain"]
    # a control move in the worse direction bounds the noise just the same
    assert not bench_pairs.summarize(parent, change, "lower", 0.2, [p + 6.0 for p in parent])["gain"]
    higher = bench_pairs.summarize(
        parent, [p + 5.0 for p in parent], "higher", 0.2, [p - 4.0 for p in parent]
    )
    assert higher["control_move"] == 4.0 and higher["gain"]
    # the control cannot make a gain of one that fails the pair rule, nor touch the bound verdicts
    close = bench_pairs.summarize(parent, [p - 1.0 for p in parent], "lower", 0.2, list(parent))
    assert close["control_move"] == 0.0 and not close["gain"]
    plain = bench_pairs.summarize(parent, change, "lower", 0.2)
    assert "control" not in plain and "control_move" not in plain
    assert {k: beyond[k] for k in plain} == {**plain, "gain": True}


def test_entry_with_a_control_counts_its_failures_and_records_its_quartiles():
    checkouts = {**CHECKOUTS, "control": "/work/contrl"}
    pairs = [
        {"seed": 1, "first": "parent", "parent": _side(1.0, 80.0), "change": _side(0.9, 50.0),
         "control": _side(1.0, 79.0)},
        {"seed": 2, "first": "change", "parent": _side(1.2, 81.0), "change": _side(0.8, 51.0),
         "control": {"error": "exit 1"}},
        {"seed": 3, "first": "control", "parent": _side(1.1, 82.0), "change": _side(1.0, 52.0),
         "control": _side(1.2, 81.0, failed=1)},
    ]
    e = bench_pairs.entry("switching_sweep", [1, 2, 3], 30.0, pairs, SPEC, checkouts)
    assert e["failed"] == {"parent": 0, "change": 0, "control": 2}
    wall = e["summary"]["wall_s"]
    assert wall["pairs"] == 2  # seed 2's control did not run
    assert wall["control"]["median"] == pytest.approx(1.1)
    assert wall["control_move"] == pytest.approx(0.05)
    assert e["checkouts"] == checkouts


def test_length_warning_covers_the_control_path():
    assert bench_pairs.length_warning({**CHECKOUTS, "control": "/work/contrl"}) is None
    warning = bench_pairs.length_warning({**CHECKOUTS, "control": "/work/control"})
    assert warning.startswith("warning: the checkout paths have 12, 12 and 13 characters;")


def test_main_rotates_the_control_with_the_other_two(tmp_path, monkeypatch, capsys):
    for name in ("parent", "change", "contrl"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2}]}'
    )
    runs = []

    def stub(checkout, *_):
        runs.append(checkout.name)
        return _side({"parent": 1.0, "change": 0.5, "contrl": 0.99}[checkout.name], 2.0)

    monkeypatch.setattr(bench_pairs, "run_bench", stub)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    argv = ["--parent", "parent", "--change", "change", "--control", "contrl", "--workload", "w",
            "--seeds", "1", "2", "3", "4", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert runs == ["parent", "change", "contrl", "change", "contrl", "parent",
                    "contrl", "parent", "change", "parent", "change", "contrl"]
    (recorded,) = json.loads(out.read_text())["entries"]
    assert [p["first"] for p in recorded["pairs"]] == ["parent", "change", "control", "parent"]
    assert recorded["checkouts"]["control"] == str(tmp_path.resolve() / "contrl")
    assert recorded["summary"]["wall_s"]["control"]["median"] == 0.99
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "control median 0.99, change wins 4/4, gain True," in captured.out
