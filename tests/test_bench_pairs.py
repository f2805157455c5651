"""Summary arithmetic of tools/bench_pairs.py on fixed numbers; runs no benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]}


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
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["parent_iqr"] == 2.0
    assert s["change"]["median"] == 7.0
    assert s["gain"]

    close = bench_pairs.summarize(parent, [p - 1.0 for p in parent], "lower")
    assert close["change_wins"] == 10 and not close["gain"]  # 1.0 is inside the IQR of 2.0
    higher = bench_pairs.summarize(parent, [p + 5.0 for p in parent], "higher")
    assert higher["change_wins"] == 10 and higher["gain"]
    assert bench_pairs.summarize(parent, [p + 5.0 for p in parent], "lower")["change_wins"] == 0


def test_entry_leaves_failed_pairs_out_of_the_summary_and_merge_replaces_same_runs(tmp_path):
    pairs = [
        {"seed": 1, "first": "parent", "parent": _side(1.0, 80.0), "change": _side(0.9, 50.0)},
        {"seed": 2, "first": "change", "parent": _side(1.2, 81.0), "change": {"error": "exit 1"}},
        {"seed": 3, "first": "parent", "parent": _side(1.1, 82.0, failed=2), "change": _side(1.0, 51.0)},
    ]
    e = bench_pairs.entry("ridge_run", [1, 2, 3], 30.0, pairs, SPEC)
    assert e["failed"] == {"parent": 2, "change": 1}
    assert e["summary"]["peak_rss_mb"]["pairs"] == 2
    assert e["summary"]["peak_rss_mb"]["parent"]["median"] == pytest.approx(81.0)
    assert e["summary"]["wall_s"]["change_wins"] == 2
    assert e["env"] == {"cpu": "x"}

    out = tmp_path / "bench.json"
    out.write_text('{"entries": [{"workload": "ridge_run", "seeds": [1, 2, 3]},'
                   ' {"workload": "logistic_run", "seeds": [1]}]}')
    merged = bench_pairs.merge(out, e)
    assert [x["workload"] for x in merged["entries"]] == ["logistic_run", "ridge_run"]
    assert merged["entries"][-1] is e
