"""Metric rows, potential diagnostics, bound checks, serialization."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dvopt.algorithms import run_distributed_nesterov, run_xspace_reference
from dvopt.graphs import GraphSchedule, gen_topology
from dvopt.metrics import (
    _CSV_ROW,
    CSV_HEADER,
    MetricRow,
    MetricTable,
    agentwise_primal_gap,
    bound_check,
    compute_metrics,
    emit,
    parse_csv,
    potential_trace,
)
from dvopt.objectives import AggregateObjective, QuadraticObjective, centralized_solve
from instances import common_minimizer_instance


def hand_instance():
    return AggregateObjective(
        (
            QuadraticObjective.from_offset(np.array([-1.0])),
            QuadraticObjective.from_offset(np.array([1.0])),
        )
    )


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
        table = compute_metrics(trace, agg, centralized_solve(agg))
        assert len(table.iter) == 5
        assert np.all(table.consensus_dist <= 1e-12)
        assert np.all(np.abs(table.primal_gap) <= 1e-12)

    def test_dual_residual_nonnegative(self):
        rng = np.random.default_rng(3)
        locs = tuple(
            QuadraticObjective.from_offset(rng.standard_normal(2)) for _ in range(4)
        )
        agg = AggregateObjective(locs)
        sched = GraphSchedule(60, ((0, gen_topology("cycle", 4)),))
        trace = run_distributed_nesterov(agg, sched, max_iter=60)
        table = compute_metrics(trace, agg, centralized_solve(agg))
        assert np.all(table.dual_residual >= -1e-8)

    def test_agentwise_gap(self):
        agg = hand_instance()
        y_tilde = np.array([[-1.0, 1.0]])  # local minimizers, not consensus
        _, phi_star = centralized_solve(agg)
        assert agentwise_primal_gap(y_tilde, agg, phi_star) == pytest.approx(-1.0)
        # value 0 at local minimizers vs phi_star = 1

    def test_consensus_reached_within_certified_length(self):
        from dvopt.objectives import dual_constants
        from dvopt.theory import alg1_complexity

        rng = np.random.default_rng(9)
        locs = tuple(
            QuadraticObjective.from_offset(rng.standard_normal(3)) for _ in range(5)
        )
        agg = AggregateObjective(locs)
        sched_probe = GraphSchedule(1, ((0, gen_topology("cycle", 5)),))
        dc = dual_constants(agg, sched_probe.theta)
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
        agg, top_a, _, _ = common_minimizer_instance(4, 2, seed=1, c_max=49.0)
        sched = GraphSchedule(60, ((0, top_a),))
        xref = run_xspace_reference(agg, sched, max_iter=60)
        _, phi_star = centralized_solve(agg)
        rows = potential_trace(xref, -phi_star)
        assert rows[0].psi <= 0.5 * (xref.l_f + xref.mu_f) * xref.radius**2 + 1e-9
        for r in rows[:-1]:
            assert not r.at_change
            assert r.delta_psi_scaled <= 1e-9 * r.psi_scaled
            assert r.psi_scaled >= 0.0

    def test_changes_bounded_by_function_jump(self):
        agg, top_a, top_b, _ = common_minimizer_instance(5, 2, seed=2, c_max=16.0)
        sched = GraphSchedule(90, ((0, top_a), (30, top_b), (60, top_a)))
        xref = run_xspace_reference(agg, sched, max_iter=90)
        _, phi_star = centralized_solve(agg)
        rows = potential_trace(xref, -phi_star)
        change_rows = [r for r in rows if r.at_change]
        assert [r.iter for r in change_rows] == [29, 59]
        for r in rows[:-1]:
            if r.at_change:
                assert r.delta_psi <= (1.0 + _gamma(xref)) ** r.iter * r.change_bound_scaled + 1e-9
            else:
                assert r.delta_psi_scaled <= 1e-9 * r.psi_scaled

    def test_kappa_one_rejected(self):
        sched = GraphSchedule(10, ((0, gen_topology("path", 2)),))
        xref = run_xspace_reference(hand_instance(), sched, max_iter=10)
        assert xref.kappa == 1.0
        with pytest.raises(ValueError, match="potential undefined for kappa <= 1"):
            potential_trace(xref, 0.0)

    @pytest.mark.parametrize("n", (4, 5))
    def test_kappa_within_rounding_of_one_rejected(self, n):
        # the run took plain steps: sqrt(kappa) - 1 is 0 at n = 5, about 2e-16 at n = 4
        agg = AggregateObjective(tuple(QuadraticObjective.from_offset([float(i)]) for i in range(n)))
        sched = GraphSchedule(10, ((0, gen_topology("complete", n)),))
        xref = run_xspace_reference(agg, sched, max_iter=10)
        assert 1.0 < xref.kappa < 1.0 + 1e-12
        with pytest.raises(ValueError, match="potential undefined for kappa <= 1"):
            potential_trace(xref, -centralized_solve(agg)[1])

    def test_long_run_weights_overflow_to_inf(self):
        # kappa = 2.5, so (1 + gamma)^k leaves the float range at k = 710
        rng = np.random.default_rng(0)
        agg = AggregateObjective(tuple(
            QuadraticObjective.from_offset(rng.standard_normal(2), scale=s) for s in (1.0, 1.5, 2.0, 2.5)
        ))
        sched = GraphSchedule(2000, ((0, gen_topology("complete", 4)),))
        xref = run_xspace_reference(agg, sched)
        assert xref.kappa == pytest.approx(2.5)
        rows = potential_trace(xref, -centralized_solve(agg)[1])
        assert len(rows) == 2001
        assert all(math.isfinite(r.psi_scaled) for r in rows)
        assert all(math.isfinite(r.delta_psi_scaled) for r in rows[:-1])
        assert all(math.isfinite(r.psi) for r in rows[:710])
        assert all(math.isinf(r.psi) for r in rows[710:])


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


# Floats at the edges of '%.17g': NaN, both infinities, both zeros, the
# smallest subnormal, a subnormal with a full mantissa and the largest floats.
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
_INT = st.integers(-(2**63), 2**63 - 1)
_ROW = st.tuples(_INT, _INT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _INT)


def _table(rows) -> MetricTable:
    """A MetricTable of row tuples: int64 and float64 columns, as compute_metrics makes them."""
    columns = zip(*rows) if rows else [()] * 7
    return MetricTable(
        *(np.array(c, dtype=float if j in (2, 3, 4, 5) else np.int64) for j, c in enumerate(columns))
    )


def _per_row_csv(rows) -> bytes:
    """The CSV bytes of rows formatted one at a time with _CSV_ROW."""
    lines = [CSV_HEADER, *(_CSV_ROW % tuple(row) for row in rows)]
    return ("\n".join(lines) + "\n").encode()


class TestEmit:
    def test_zero_row_exact_bytes(self, tmp_path):
        p = tmp_path / "z.csv"
        emit(_table([(0, 0, 0.0, 0.0, 0.0, 0.0, 0)]), p)
        assert p.read_text() == CSV_HEADER + "\n0,0,0,0,0,0,0\n"

    def test_special_values_exact_bytes(self, tmp_path):
        rows = [
            (1, 2, math.nan, math.inf, -math.inf, -0.0, 3),
            (4, 5, 5e-324, 1.7976931348623157e308, np.float64(0.1), 2.5, 6),
        ]
        p = tmp_path / "s.csv"
        emit(_table(rows), p)
        assert p.read_bytes() == (
            CSV_HEADER + "\n"
            "1,2,nan,inf,-inf,-0,3\n"
            "4,5,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,2.5,6\n"
        ).encode()

    def test_roundtrip_exact(self, tmp_path):
        rows = [
            (0, 0, -1.0 / 3.0, 2.0 / 7.0, 1e-17, 0.1 + 0.2, 12),
            (5, 1, math.pi, -math.e, 1234.5678, 9.9e-300, 0),
        ]
        p = tmp_path / "r.csv"
        emit(_table(rows), p)
        assert parse_csv(p) == [MetricRow(*r) for r in rows]

    @given(
        rows=st.lists(
            st.tuples(_INT, _INT, *[st.floats(allow_nan=True, allow_infinity=True)] * 4, _INT),
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
            emit(_table(rows), path)
            back = parse_csv(path)
        assert len(back) == len(rows)
        for row, parsed in zip(rows, back):
            for value, name in zip(row, CSV_HEADER.split(",")):
                assert same(value, getattr(parsed, name)), name

    def test_identical_emits_identical_bytes(self, tmp_path):
        table = _table([(k, 0, math.sqrt(k + 1), 1.0 / (k + 1), 0.0, 0.0, 4) for k in range(10)])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(table, p1)
        emit(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(rows=st.lists(_ROW, max_size=40))
    @example(rows=[(k, k % 3, v, -v, v, v, 2) for k, v in enumerate(_SPECIAL)])
    def test_bulk_format_writes_the_per_row_bytes(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "b.csv"
            emit(_table(rows), path)
            assert path.read_bytes() == _per_row_csv(rows)

    def test_table_rows_are_python_numbers(self):
        table = MetricTable(*(np.array([1, 2]),) * 2, *(np.array([0.5, -0.0]),) * 4, np.array([3, 0]))
        rows = [MetricRow(1, 1, 0.5, 0.5, 0.5, 0.5, 3), MetricRow(2, 2, -0.0, -0.0, -0.0, -0.0, 0)]
        assert table[0] == rows[0] and table[1] == rows[1] and table[-1] == rows[-1]
        assert all(type(v) in (int, float) for i in (0, 1) for v in vars(table[i]).values())

    def test_io_error_surfaces_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit(_table([]), "no/such/dir/file.csv")


class TestInputChecks:
    @pytest.mark.parametrize(
        "text",
        ["", "iter,dual_value\n0,1.0\n"],
        ids=["empty", "foreign header"],
    )
    def test_bad_csv_raises_its_message(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_csv(p)
        assert str(info.value) == "unrecognized CSV header"

    def test_short_row_names_its_file_and_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text(f"{CSV_HEADER}\n0,0,1,1,0,0,4\n\n1,0,0.5\n")
        with pytest.raises(ValueError) as info:
            parse_csv(p)
        assert str(info.value) == f"{p}, line 4: expected 7 fields, got 3"

    def test_bad_number_names_its_file_and_line(self, tmp_path):
        p = tmp_path / "number.csv"
        p.write_text(f"{CSV_HEADER}\n0,0,x,1,0,0,4\n")
        with pytest.raises(ValueError) as info:
            parse_csv(p)
        assert str(info.value) == f"{p}, line 2: could not convert string to float: 'x'"
