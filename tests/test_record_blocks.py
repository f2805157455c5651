"""Block evaluation of run records against record-by-record references.

The runners copy recorded states into blocks and evaluate a whole block
in one pass: dual values, consensus distances and the primal values that
``compute_metrics`` turns into primal gaps.  The references here evaluate
one record at a time with the per-record arithmetic the blocks replaced,
the primal values and gaps from each reference record's ``y``, and every
float must match bit for bit.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dvopt.algorithms import (
    _BLOCK,
    _momentum,
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
)
from dvopt.graphs import alternating_schedule, laplacian, mixing_matrix
from dvopt.metrics import MetricRow, compute_metrics
from dvopt.objectives import (
    AggregateObjective,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
)

# ---------------------------------------------------------------------------
# Per-record arithmetic: one record at a time, as before record blocks.


def _stack_value(stack, rows):
    if hasattr(stack, "quad"):
        hy = (stack.quad @ rows[..., None])[..., 0]
        return float(0.5 * np.sum(rows * hy) - np.sum(stack.lin * rows) + stack.const)
    margins = stack.labels * (stack.samples @ rows[..., None])[..., 0]
    loss = np.sum(stack.weight * np.logaddexp(0.0, -margins))
    return float(loss + 0.5 * np.sum(stack.ridge * np.sum(rows * rows, axis=1)))


def _stack_consensus_value(stack, point):
    if hasattr(stack, "quad"):
        return float(
            0.5 * point @ (stack.quad_sum @ point) - stack.lin_sum @ point + stack.const
        )
    margins = stack.labels * (stack.samples @ point)
    loss = np.sum(stack.weight * np.logaddexp(0.0, -margins))
    return float(loss + 0.5 * np.sum(stack.ridge * (point @ point)))


def ref_value_cols(agg, y):
    return float(sum(_stack_value(s, y.T[s.agents]) for s in agg._stacks))


def ref_value_consensus(agg, point):
    return float(sum(_stack_consensus_value(s, point) for s in agg._stacks))


def ref_dual_value(agg, z, y):
    return float(np.sum(z * y)) - ref_value_cols(agg, y)


def ref_consensus_dist(y):
    a = y - y.mean(axis=1, keepdims=True)
    return math.sqrt((a * a).sum())


def ref_dual_records(agg, schedule, max_iter, record_every, accelerated):
    """(iter, epoch, dual value, consensus distance, messages, z, z_tilde, y) per record."""
    dc = dual_constants(agg, schedule.theta)
    step = 1.0 / dc.l_f if accelerated else 2.0 / (dc.l_f + dc.mu_f)
    beta = _momentum(dc.kappa) if accelerated else 0.0
    z = np.zeros((agg.dim, agg.n))
    zt = z.copy()

    def record(k, e, count, y):
        fields = (ref_dual_value(agg, z, y), ref_consensus_dist(y))
        return (k, e, *fields, count, z.copy(), zt.copy(), y.copy())

    out = []
    for k in range(max_iter):
        e = schedule.epoch_index(k)
        topo = schedule.epochs[e][1]
        y = agg.conj_argmax_cols(z)
        if k % record_every == 0:
            out.append(record(k, e, 2 * len(topo.edges), y))
        zt_next = z - step * (y @ laplacian(topo))
        z = (1.0 + beta) * zt_next - beta * zt
        zt = zt_next
    out.append(record(max_iter, e, 0, agg.conj_argmax_cols(z)))
    return out


def ref_diging_records(agg, schedule, max_iter, record_every, stepsize):
    """Per-record DIGing fields; the divergence check reads the final state too."""
    x = np.zeros((agg.dim, agg.n))
    g = agg.grad_cols(x)
    u = g.copy()

    def abort(k, e):
        return (k, e, math.nan, math.inf, 0, None, None, None)

    def diverged():
        return not math.sqrt((x * x).sum()) <= 1e12

    out = []
    for k in range(max_iter):
        e = schedule.epoch_index(k)
        topo = schedule.epochs[e][1]
        if diverged():
            return [*out, abort(k, e)]
        if k % record_every == 0:
            out.append((k, e, math.nan, ref_consensus_dist(x), 4 * len(topo.edges), None, None, x.copy()))
        vt = mixing_matrix(topo).T
        x_next = x @ vt - stepsize * u
        g_next = agg.grad_cols(x_next)
        u = u @ vt + g_next - g
        x, g = x_next, g_next
    if diverged():
        return [*out, abort(max_iter, e)]
    out.append((max_iter, e, math.nan, ref_consensus_dist(x), 0, None, None, x.copy()))
    return out


def ref_metrics(trace, agg, phi_star, ys=None):
    """compute_metrics as a loop over single records.

    ``ys`` holds each record's primal candidates, by default the records'
    own ``y_tilde``; a lean trace keeps none, so its caller passes the
    reference records' ``y``.
    """
    f_star = -float(phi_star)
    ys = [rec.y_tilde for rec in trace.records] if ys is None else ys
    assert len(ys) == len(trace.records)
    rows = []
    for rec, y_tilde in zip(trace.records, ys):
        if y_tilde is None or not np.all(np.isfinite(y_tilde)):
            residual, gap = (math.inf if math.isfinite(f_star) else math.nan), math.inf
        else:
            residual = rec.dual_value - f_star
            gap = ref_value_consensus(agg, y_tilde.mean(axis=1)) - float(phi_star)
        rows.append(
            MetricRow(
                rec.iter, rec.epoch, rec.dual_value, residual, rec.consensus_dist, gap,
                rec.message_count,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Bitwise comparison


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    )


def same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_records_match(trace, reference, agg, lean=False):
    """Every record field against the reference, primal values included.

    The reference's abort record has an infinite consensus distance and,
    like a lean trace's records, no ``y_tilde``.
    """
    assert len(trace.records) == len(reference)
    for rec, (k, e, dual, dist, count, z, zt, y) in zip(trace.records, reference):
        assert (rec.iter, rec.epoch, rec.message_count) == (k, e, count)
        assert same_float(rec.dual_value, dual), k
        assert same_float(rec.consensus_dist, dist), k
        abort = dist == math.inf
        if abort:
            assert rec.primal_value is None, k
        else:
            assert same_float(rec.primal_value, ref_value_consensus(agg, y.mean(axis=1))), k
        assert same_array(rec.y_tilde, None if lean else y), k
        assert same_array(rec.z, z) and same_array(rec.z_tilde, zt), k


def assert_rows_match(rows, reference):
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for name in MetricRow.__dataclass_fields__:
            a, b = getattr(row, name), getattr(ref, name)
            assert same_float(a, b) if isinstance(b, float) else a == b, (row.iter, name)


# ---------------------------------------------------------------------------
# Instances


@st.composite
def aggregates(draw):
    """Quadratic, logistic or mixed aggregates of 2-17 agents in 1-9 dimensions.

    Sums of 8 or more terms are where numpy's pairwise summation and BLAS
    kernels differ from a plain loop, so sizes reach past that.
    """
    n = draw(st.sampled_from((2, 3, 9, 17)))
    d = draw(st.sampled_from((1, 2, 5, 9)))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(("quadratic", "logistic", "mixed")))
    ridge = gen_ridge_instance(n, 4, d, seed=seed)
    logistic = gen_logistic_instance(n, 4, d, c=0.5, seed=seed)
    if family == "quadratic":
        return ridge
    if family == "logistic":
        return logistic
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda p: 0 < sum(p) < n))
    return AggregateObjective(
        tuple(q if pick else lg for pick, q, lg in zip(picks, ridge.locals, logistic.locals))
    )


def schedule_for(agg, period, horizon):
    return alternating_schedule(("path", "star"), agg.n, period, horizon)


# A run of up to 40 iterations recorded every 1-3 of them makes 2 to 41
# records: every fill of the last block, after up to two full ones.
runs = st.tuples(st.integers(1, 40), st.integers(1, 3), st.integers(1, 7))


class TestDriverRecords:
    @settings(max_examples=40)
    @given(aggregates(), runs, st.booleans(), st.booleans())
    def test_dual_records_equal_per_record_reference(self, agg, run, accelerated, keep):
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        runner = run_distributed_nesterov if accelerated else run_dual_gradient
        trace = runner(agg, schedule, max_iter=max_iter, record_every=record_every, keep_state=keep)
        reference = ref_dual_records(agg, schedule, max_iter, record_every, accelerated)
        if not keep:
            reference = [(*r[:5], None, None, r[7]) for r in reference]
        assert_records_match(trace, reference, agg, lean=not keep)

    @settings(max_examples=40)
    @given(aggregates(), runs, st.sampled_from((1.0, 30.0, 1e3, 1e5)), st.booleans())
    def test_diging_records_equal_per_record_reference(self, agg, run, boost, keep):
        # large steps diverge and abort, at an iteration that moves with the step
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        stepsize = boost * default_diging_stepsize(agg)
        trace = run_diging(
            agg, schedule, stepsize, max_iter=max_iter, record_every=record_every, keep_state=keep
        )
        reference = ref_diging_records(agg, schedule, max_iter, record_every, stepsize)
        assert_records_match(trace, reference, agg, lean=not keep)
        # a run aborts exactly when its last record is the abort record
        assert trace.aborted == (reference[-1][3] == math.inf)

    def test_abort_inside_a_block(self):
        agg = gen_ridge_instance(3, 4, 2, seed=5)
        schedule = schedule_for(agg, 3, 40)
        stepsize = 30 * default_diging_stepsize(agg)
        trace = run_diging(agg, schedule, stepsize, max_iter=40)
        # the records before the abort fill one block and part of the next
        assert trace.aborted and _BLOCK < len(trace.records) - 1 < 2 * _BLOCK
        assert_records_match(trace, ref_diging_records(agg, schedule, 40, 1, stepsize), agg)
        # cut at the abort iteration, the run aborts there: the final state is checked too
        k = trace.records[-1].iter
        cut = run_diging(agg, schedule, stepsize, max_iter=k)
        assert cut.aborted and cut.records[-1].iter == k and cut.records[-1].primal_value is None
        assert_records_match(cut, ref_diging_records(agg, schedule, k, 1, stepsize), agg)


class TestMetricBlocks:
    @settings(max_examples=30)
    @given(
        aggregates(),
        runs,
        st.sampled_from(("nesterov", "nesterov_lean", "dual_gd", "diging", "diging_abort")),
    )
    def test_rows_equal_per_record_loop(self, agg, run, method):
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        if method.startswith("nesterov"):
            trace = run_distributed_nesterov(
                agg, schedule, max_iter=max_iter, record_every=record_every,
                keep_state=method == "nesterov",
            )
        elif method == "dual_gd":
            trace = run_dual_gradient(agg, schedule, max_iter=max_iter, record_every=record_every)
        else:
            boost = 1e5 if method == "diging_abort" else 1.0
            trace = run_diging(
                agg, schedule, boost * default_diging_stepsize(agg), max_iter=max_iter,
                record_every=record_every,
            )
        ys = None
        if method == "nesterov_lean":
            reference = ref_dual_records(agg, schedule, max_iter, record_every, accelerated=True)
            ys = [r[7] for r in reference]
        _, phi_star = centralized_solve(agg)
        rows = compute_metrics(trace, agg, (None, phi_star))
        assert_rows_match(rows, ref_metrics(trace, agg, phi_star, ys))

    def test_missing_and_non_finite_candidates_inside_a_block(self):
        # records without a primal value stand for lost candidates
        agg = gen_ridge_instance(9, 4, 5, seed=3)
        trace = run_distributed_nesterov(agg, schedule_for(agg, 2, 20), max_iter=20)
        records = list(trace.records)
        nan_y = np.full((agg.dim, agg.n), np.nan)
        for k, y in ((1, None), (3, nan_y), (4, None), (_BLOCK + 2, nan_y)):
            records[k] = dataclasses.replace(records[k], primal_value=None, y_tilde=y)
        trace = dataclasses.replace(trace, records=records)
        _, phi_star = centralized_solve(agg)
        rows = compute_metrics(trace, agg, (None, phi_star))
        assert_rows_match(rows, ref_metrics(trace, agg, phi_star))
        assert [r.iter for r in rows if r.primal_gap == math.inf] == [1, 3, 4, _BLOCK + 2]
        assert all(r.dual_residual == math.inf for r in rows if r.primal_gap == math.inf)


class TestBatchKernels:
    @given(aggregates(), st.integers(1, 17), st.integers(0, 2**16))
    def test_batches_equal_single_entries(self, agg, size, seed):
        rng = np.random.default_rng(seed)
        zs = rng.standard_normal((size, agg.dim, agg.n))
        # a batch holds C copies of argmax outputs; a single record takes the
        # output itself, whose memory order depends on the family
        ys = np.array([agg.conj_argmax_cols(z) for z in zs])
        duals = agg.dual_value_batch(zs, ys)
        points = rng.standard_normal((size, agg.dim))
        values = agg.value_consensus_batch(points)
        for r in range(size):
            assert same_float(duals[r], ref_dual_value(agg, zs[r], ys[r]))
            assert same_float(agg.dual_value(zs[r], ys[r]), ref_dual_value(agg, zs[r], ys[r]))
            y = agg.conj_argmax_cols(zs[r])
            assert same_float(agg.dual_value(zs[r]), ref_dual_value(agg, zs[r], y))
            assert same_float(agg.value_cols(y), ref_value_cols(agg, y))
            assert same_float(values[r], ref_value_consensus(agg, points[r]))
            assert same_float(agg.value_consensus(points[r]), ref_value_consensus(agg, points[r]))
