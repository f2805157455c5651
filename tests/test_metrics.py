"""Metric rows, potential diagnostics, bound checks, serialization."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvopt.algorithms import run_distributed_nesterov, run_xspace_reference
from dvopt.graphs import GraphSchedule, Topology, gen_topology
from dvopt.metrics import (
    CSV_HEADER,
    MetricRow,
    agentwise_primal_gap,
    bound_check,
    compute_metrics,
    emit,
    parse_csv,
    potential_trace,
)
from dvopt.objectives import AggregateObjective, QuadraticObjective, centralized_solve


def hand_instance():
    return AggregateObjective(
        (
            QuadraticObjective.from_offset(np.array([-1.0])),
            QuadraticObjective.from_offset(np.array([1.0])),
        )
    )


def common_minimizer_instance(n, d, seed, c_max=16.0):
    """Complete graph + weight-n star sharing an exact dual minimizer."""
    rng = np.random.default_rng(seed)
    top_a = gen_topology("complete", n)
    star = gen_topology("star", n)
    top_b = Topology(n, star.edges, (float(n),) * len(star.edges))
    raw = rng.standard_normal((d, n))
    raw[:, 0] = 0.0
    raw -= raw[:, 1:].mean(axis=1, keepdims=True)
    raw[:, 0] = 0.0
    y_star = rng.standard_normal(d)
    g_star = -math.sqrt(n) * raw
    cs = rng.uniform(1.0, c_max, size=n)
    cs[0], cs[-1] = 1.0, c_max
    locs = tuple(
        QuadraticObjective.from_offset(y_star - g_star[:, i] / cs[i], scale=float(cs[i]))
        for i in range(n)
    )
    return AggregateObjective(locs), top_a, top_b


class TestComputeMetrics:
    def test_hand_instance_after_one_step(self):
        agg = hand_instance()
        sched = GraphSchedule(5, ((0, gen_topology("path", 2)),))
        trace = run_distributed_nesterov(agg, sched, max_iter=1)
        rows = compute_metrics(trace, agg, centralized_solve(agg))
        start, end = rows[0], rows[-1]
        assert start.dual_value == 0.0 and start.dual_residual == pytest.approx(1.0)
        assert end.dual_value == pytest.approx(-1.0, abs=1e-12)
        assert end.dual_residual == pytest.approx(0.0, abs=1e-12)
        assert end.consensus_dist <= 1e-12
        assert end.primal_gap == pytest.approx(0.0, abs=1e-12)

    def test_consensus_optimum_rows(self):
        shared = QuadraticObjective.from_offset(np.array([0.4, -0.2]))
        agg = AggregateObjective((shared,) * 3)
        sched = GraphSchedule(4, ((0, gen_topology("path", 3)),))
        trace = run_distributed_nesterov(agg, sched, max_iter=4)
        rows = compute_metrics(trace, agg, centralized_solve(agg))
        for r in rows:
            assert r.consensus_dist <= 1e-12
            assert abs(r.primal_gap) <= 1e-12

    def test_dual_residual_nonnegative(self):
        rng = np.random.default_rng(3)
        locs = tuple(
            QuadraticObjective.from_offset(rng.standard_normal(2)) for _ in range(4)
        )
        agg = AggregateObjective(locs)
        sched = GraphSchedule(60, ((0, gen_topology("cycle", 4)),))
        trace = run_distributed_nesterov(agg, sched, max_iter=60)
        rows = compute_metrics(trace, agg, centralized_solve(agg))
        assert all(r.dual_residual >= -1e-8 for r in rows)

    def test_agentwise_gap(self):
        agg = hand_instance()
        y_tilde = np.array([[-1.0, 1.0]])  # local minimizers, not consensus
        _, phi_star = centralized_solve(agg)
        assert agentwise_primal_gap(y_tilde, agg, phi_star) == pytest.approx(-1.0)
        # value 0 at local minimizers vs phi_star = 1

    def test_consensus_reached_within_certified_length(self):
        from dvopt.graphs import theta_bounds
        from dvopt.objectives import dual_constants
        from dvopt.theory import alg1_complexity

        rng = np.random.default_rng(9)
        locs = tuple(
            QuadraticObjective.from_offset(rng.standard_normal(3)) for _ in range(5)
        )
        agg = AggregateObjective(locs)
        sched_probe = GraphSchedule(1, ((0, gen_topology("cycle", 5)),))
        dc = dual_constants(agg, theta_bounds(sched_probe))
        n_iters = alg1_complexity(
            dc.kappa, 0.0, l_smooth=dc.l_f, mu=dc.mu_f, radius=10.0, eps=1e-15
        ).n_iters
        sched = GraphSchedule(n_iters, ((0, gen_topology("cycle", 5)),))
        trace = run_distributed_nesterov(agg, sched, max_iter=n_iters, record_every=n_iters)
        rows = compute_metrics(trace, agg, centralized_solve(agg))
        assert rows[-1].consensus_dist <= 1e-6


class TestPotential:
    def test_static_run_monotone(self):
        # conditioning keeps the potential above its floating-point floor
        agg, top_a, _ = common_minimizer_instance(4, 2, seed=1, c_max=49.0)
        sched = GraphSchedule(60, ((0, top_a),))
        xref = run_xspace_reference(agg, sched, max_iter=60)
        _, phi_star = centralized_solve(agg)
        rows = potential_trace(xref, xref.l_f, xref.mu_f, -phi_star)
        assert rows[0].psi <= 0.5 * (xref.l_f + xref.mu_f) * xref.radius**2 + 1e-9
        for r in rows[:-1]:
            assert not r.at_change
            assert r.delta_psi_scaled <= 1e-9 * r.psi_scaled
            assert r.psi_scaled >= 0.0

    def test_changes_bounded_by_function_jump(self):
        agg, top_a, top_b = common_minimizer_instance(5, 2, seed=2)
        sched = GraphSchedule(90, ((0, top_a), (30, top_b), (60, top_a)))
        xref = run_xspace_reference(agg, sched, max_iter=90)
        _, phi_star = centralized_solve(agg)
        rows = potential_trace(xref, xref.l_f, xref.mu_f, -phi_star)
        change_rows = [r for r in rows if r.at_change]
        assert [r.iter for r in change_rows] == [29, 59]
        for r in rows[:-1]:
            if r.at_change:
                assert r.delta_psi <= (1.0 + _gamma(xref)) ** r.iter * r.change_bound_scaled + 1e-9
            else:
                assert r.delta_psi_scaled <= 1e-9 * r.psi_scaled

    def test_requires_accelerated_trace(self):
        agg, top_a, _ = common_minimizer_instance(4, 2, seed=3)
        sched = GraphSchedule(10, ((0, top_a),))
        xref = run_xspace_reference(agg, sched, max_iter=10, method="gd")
        with pytest.raises(ValueError):
            potential_trace(xref, 2.0, 1.0, 0.0)

    def test_kappa_one_rejected(self):
        agg, top_a, _ = common_minimizer_instance(4, 2, seed=4)
        sched = GraphSchedule(10, ((0, top_a),))
        xref = run_xspace_reference(agg, sched, max_iter=10)
        with pytest.raises(ValueError):
            potential_trace(xref, 1.0, 1.0, 0.0)


def _gamma(xref):
    return 1.0 / (math.sqrt(xref.l_f / xref.mu_f) - 1.0)


class TestBoundCheck:
    def test_clean(self):
        rep = bound_check([(k, 0.5**k) for k in range(5)], lambda k: 0.6**k * 2.0)
        assert rep.clean and rep.first_violation_iter is None

    def test_constructed_violation_of_one(self):
        rep = bound_check([(0, 3.0)], lambda k: 2.0)
        assert not rep.clean
        assert rep.max_violation == pytest.approx(1.0)
        assert rep.first_violation_iter == 0

    def test_empty_trace_clean(self):
        rep = bound_check([], lambda k: 1.0)
        assert rep.clean and rep.checked == 0

    def test_nan_rows_skipped(self):
        rep = bound_check([(0, math.nan)], lambda k: 0.0)
        assert rep.clean and rep.checked == 0


class TestEmit:
    def test_zero_row_exact_bytes(self, tmp_path):
        p = tmp_path / "z.csv"
        emit([MetricRow(0, 0, 0.0, 0.0, 0.0, 0.0, 0)], "csv", p)
        assert p.read_text() == CSV_HEADER + "\n0,0,0,0,0,0,0\n"

    def test_special_values_exact_bytes(self, tmp_path):
        rows = [
            MetricRow(1, 2, math.nan, math.inf, -math.inf, -0.0, 3),
            MetricRow(4, 5, 5e-324, 1.7976931348623157e308, np.float64(0.1), 2.5, 6),
            # integers in float fields print exactly, not as '%.17g' would
            MetricRow(7, 8, 10**20, -3, np.int64(2**62), 0.5, 9),
        ]
        p = tmp_path / "s.csv"
        emit(rows, "csv", p)
        assert p.read_bytes() == (
            CSV_HEADER + "\n"
            "1,2,nan,inf,-inf,-0,3\n"
            "4,5,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,2.5,6\n"
            "7,8,100000000000000000000,-3,4611686018427387904,0.5,9\n"
        ).encode()

    def test_roundtrip_exact(self, tmp_path):
        rows = [
            MetricRow(0, 0, -1.0 / 3.0, 2.0 / 7.0, 1e-17, 0.1 + 0.2, 12),
            MetricRow(5, 1, math.pi, -math.e, 1234.5678, 9.9e-300, 0),
        ]
        p = tmp_path / "r.csv"
        emit(rows, "csv", p)
        assert parse_csv(p) == rows

    @given(
        rows=st.lists(
            st.builds(
                MetricRow,
                *[st.integers(-(2**63), 2**63)] * 2,
                *[st.floats(allow_nan=True, allow_infinity=True)] * 4,
                st.integers(-(2**63), 2**63),
            ),
            max_size=5,
        )
    )
    def test_roundtrip_property(self, rows):
        def same(a, b):
            if isinstance(a, float):
                return (math.isnan(a) and math.isnan(b)) or (
                    a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
                )
            return a == b

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            emit(rows, "csv", path)
            back = parse_csv(path)
        assert len(back) == len(rows)
        for row, parsed in zip(rows, back):
            for name in CSV_HEADER.split(","):
                assert same(getattr(row, name), getattr(parsed, name)), name

    def test_identical_emits_identical_bytes(self, tmp_path):
        rows = [MetricRow(k, 0, math.sqrt(k + 1), 1.0 / (k + 1), 0.0, 0.0, 4) for k in range(10)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows, "csv", p1)
        emit(rows, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirror(self, tmp_path):
        import json

        rows = [MetricRow(0, 0, 1.5, 0.5, 0.0, 0.25, 2)]
        p = tmp_path / "m.json"
        emit(rows, "json", p)
        data = json.loads(p.read_text())
        assert data[0]["dual_value"] == 1.5
        assert set(data[0]) == set(CSV_HEADER.split(","))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "xml", tmp_path / "x.xml")

    def test_io_error_surfaces_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit([], "csv", "no/such/dir/file.csv")
