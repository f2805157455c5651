"""Block evaluation of run records against record-by-record references.

The runners copy recorded states into blocks and evaluate a whole block
in one pass: dual values, consensus distances and the primal values that
``compute_metrics`` turns into primal gaps.  The references here evaluate
one record at a time with the per-record arithmetic the blocks replaced,
the primal values and gaps from each reference record's ``y``, and every
float must match bit for bit.  Runs keep no state arrays, so a reference
record's state is checked against the final state of the run cut at its
iteration.  The matrix-space reference run is checked
the same way against its own per-iterate loop, which valued each f_k(y_k)
through ``dual_value``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvopt.algorithms import (
    _BLOCK,
    _momentum,
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
    run_xspace_reference,
)
from dvopt.graphs import GraphSchedule, Topology, alternating_schedule, gen_topology, laplacian, mixing_matrix
from dvopt.linalg import pinv_sqrt_psd, sqrt_psd
from dvopt.metrics import MetricRow, compute_metrics, potential_trace
from dvopt.objectives import (
    AggregateObjective,
    QuadraticObjective,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
)

# ---------------------------------------------------------------------------
# Per-record arithmetic: one record at a time, as before record blocks.


def _labelled(agg):
    """Every local's (l,) labels and (l, m) samples stacked, as the generators give equal counts."""
    return np.stack([o.labels for o in agg.locals]), np.stack([o.samples for o in agg.locals])


def _stack_value(agg, rows):
    stack = agg._stack
    if agg.all_quadratic():
        hy = (stack.quad @ rows[..., None])[..., 0]
        return float(0.5 * np.sum(rows * hy) - np.sum(stack.lin * rows) + stack.const)
    labels, samples = _labelled(agg)
    margins = labels * (samples @ rows[..., None])[..., 0]
    loss = np.sum(stack.weight * np.logaddexp(0.0, -margins))
    return float(loss + 0.5 * np.sum(stack.ridge * np.sum(rows * rows, axis=1)))


def _stack_consensus_value(agg, point):
    stack = agg._stack
    if agg.all_quadratic():
        return float(
            0.5 * point @ (stack.quad_sum @ point) - stack.lin_sum @ point + stack.const
        )
    labels, samples = _labelled(agg)
    margins = labels * (samples @ point)
    loss = np.sum(stack.weight * np.logaddexp(0.0, -margins))
    return float(loss + 0.5 * np.sum(stack.ridge * (point @ point)))


def ref_value_cols(agg, y):
    return _stack_value(agg, np.ascontiguousarray(y.T))


def ref_value_consensus(agg, point):
    return _stack_consensus_value(agg, point)


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


def ref_xspace(agg, schedule, max_iter, method):
    """The matrix-space loop valued one iterate at a time, as before the shared driver.

    Returns the iterates, each one's epoch (the final iterate's is the epoch
    of iteration ``max_iter``, clipped to the horizon), f_k(y_k) of each
    through ``dual_value`` and the root of each epoch.
    """
    dc = dual_constants(agg, schedule.theta)
    l_f, mu_f = dc.l_f, dc.mu_f
    beta, tau = _momentum(dc.kappa), 1.0 / (math.sqrt(dc.kappa) + 1.0)
    sqrt_ws = [sqrt_psd(laplacian(t)) for _, t in schedule.epochs]
    epoch_of = [schedule.epoch_index(k) for k in range(max_iter + 1)]
    x = y = np.zeros((agg.dim, agg.n))
    xs, ys, zs = [x], [y], [x]
    for k in range(max_iter):
        sw = sqrt_ws[epoch_of[k]]
        g = -(agg.conj_argmax_cols(-(x @ sw)) @ sw)
        if method == "gd":
            x = x - (2.0 / (l_f + mu_f)) * g
            y = z = x
        else:
            y_next = x - g / l_f
            x = (1.0 + beta) * y_next - beta * y
            y = y_next
            z = x / tau - ((1.0 - tau) / tau) * y
        xs.append(x)
        ys.append(y)
        zs.append(z)
    values = [agg.dual_value(-(y @ sqrt_ws[e])) for y, e in zip(ys, epoch_of)]
    return xs, ys, zs, epoch_of, values, sqrt_ws


def ref_metrics(trace, agg, phi_star, ys):
    """compute_metrics as a loop over single records.

    ``ys`` holds each record's primal candidates, the reference records'
    ``y``: the trace keeps none.
    """
    f_star = -float(phi_star)
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


def assert_records_match(trace, reference, agg):
    """Every record field against the reference, primal values included.

    The reference's abort record has an infinite consensus distance and no
    ``y``; no record keeps an array.
    """
    assert len(trace.records) == len(reference)
    for rec, (k, e, dual, dist, count, _, _, y) in zip(trace.records, reference):
        assert (rec.iter, rec.epoch, rec.message_count) == (k, e, count)
        assert same_float(rec.dual_value, dual), k
        assert same_float(rec.consensus_dist, dist), k
        abort = dist == math.inf
        if abort:
            assert rec.primal_value is None, k
        else:
            assert same_float(rec.primal_value, ref_value_consensus(agg, y.mean(axis=1))), k
        assert (rec.z, rec.z_tilde, rec.y_tilde) == (None, None, None), k


def assert_states_match(cut, reference):
    """Each reference record's state against ``cut(k).final_state``.

    ``cut(k)`` is the run cut at the record's iteration k.  A dual record's
    state is z, z_tilde and y (a GD final state keeps z alone), a DIGing
    record's its x, in the ``y`` slot.  Iteration 0 is the zero start, and
    the abort record has no state.
    """
    for k, *_, z, zt, y in reference:
        if k == 0 or y is None:
            continue
        state = cut(k).final_state
        if z is None:
            assert same_array(state.x, y), k
            continue
        assert same_array(state.z, z), k
        if hasattr(state, "y_tilde"):
            assert same_array(state.z_tilde, zt) and same_array(state.y_tilde, y), k


def assert_rows_match(rows, reference):
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for f in dataclasses.fields(row):
            a, b = getattr(row, f.name), getattr(ref, f.name)
            assert same_float(a, b) if isinstance(b, float) else a == b, (row.iter, f.name)


def assert_xspace_matches(agg, schedule, max_iter, method):
    """A reference run's trace, residuals and potential rows against the per-iterate loop."""
    f_star = -centralized_solve(agg)[1]
    xref = run_xspace_reference(agg, schedule, max_iter=max_iter, method=method)
    xs, ys, zs, epoch_of, values, sqrt_ws = ref_xspace(agg, schedule, max_iter, method)
    assert xref.epoch_of == epoch_of
    assert xref.residuals(f_star).tobytes() == np.array([v - f_star for v in values]).tobytes()
    for got, want in ((xref.xs, xs), (xref.ys, ys), (xref.zs, zs), (xref.sqrt_ws, sqrt_ws)):
        assert len(got) == len(want) and all(map(same_array, got, want))
    if method == "gd":  # one array per iterate, as x = y = z
        assert all(x is y is z for x, y, z in zip(xref.xs, xref.ys, xref.zs))
    elif xref.kappa > 1.0:
        by_iterate = dataclasses.replace(
            xref, xs=xs, ys=ys, zs=zs, epoch_of=epoch_of, values=np.array(values), sqrt_ws=sqrt_ws
        )
        rows = potential_trace(xref, xref.l_f, xref.mu_f, f_star)
        assert any(r.at_change for r in rows) == (len(set(epoch_of)) > 1)
        assert_rows_match(rows, potential_trace(by_iterate, xref.l_f, xref.mu_f, f_star))


# ---------------------------------------------------------------------------
# Instances


@st.composite
def aggregates(draw):
    """Quadratic or logistic aggregates of 2-17 agents in 1-9 dimensions.

    Sums of 8 or more terms are where numpy's pairwise summation and BLAS
    kernels differ from a plain loop, so sizes reach past that.
    """
    n = draw(st.sampled_from((2, 3, 9, 17)))
    d = draw(st.sampled_from((1, 2, 5, 9)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.sampled_from(("quadratic", "logistic"))) == "quadratic":
        return gen_ridge_instance(n, 4, d, seed=seed)
    return gen_logistic_instance(n, 4, d, c=0.5, seed=seed)


def schedule_for(agg, period, horizon):
    return alternating_schedule(("path", "star"), agg.n, period, horizon)


def common_minimizer_instance(n, d, seed, c_max):
    """Criteria 3 and 5's instances: a complete graph and a weight-n star share X*."""
    rng = np.random.default_rng(seed)
    star = gen_topology("star", n)
    tops = (gen_topology("complete", n), Topology(n, star.edges, (float(n),) * len(star.edges)))
    raw = rng.standard_normal((d, n))
    raw[:, 0] = 0.0
    raw -= raw[:, 1:].mean(axis=1, keepdims=True)
    raw[:, 0] = 0.0
    y_star, g_star = rng.standard_normal(d), -math.sqrt(n) * raw
    cs = rng.uniform(1.0, c_max, size=n)
    cs[0], cs[-1] = 1.0, c_max
    offsets = (y_star - g_star[:, i] / cs[i] for i in range(n))
    locs = tuple(QuadraticObjective.from_offset(o, scale=float(c)) for o, c in zip(offsets, cs))
    return AggregateObjective(locs), tops


def criterion_3(seed):
    """Criterion 3's instance of a seed: up to three change points over 500 iterations."""
    agg, tops = common_minimizer_instance(4 + seed % 3, 2 + seed % 3, seed, 400.0)
    rng = np.random.default_rng(seed + 1000)
    starts = [0] + sorted(rng.choice(np.arange(10, 450), size=seed % 4, replace=False).tolist())
    return agg, GraphSchedule(500, tuple((s, tops[i % 2]) for i, s in enumerate(starts)))


def xspace_cases():
    """(aggregate, schedule, max_iter, method) by name."""
    quad, tops = common_minimizer_instance(5, 3, 7, 30.0)
    c5, c5_tops = common_minimizer_instance(4, 2, 4, 16.0)
    logistic = gen_logistic_instance(5, 4, 3, c=0.1, seed=2)
    ridge = gen_ridge_instance(6, 3, 4, seed=3)
    # epochs start at 40 and 70: a run cut there ends where an epoch starts
    three = GraphSchedule(100, ((0, tops[0]), (40, tops[1]), (70, tops[0])))
    cases = {
        "criterion 3, seed 3": (*criterion_3(3), 500, "nesterov"),
        "criterion 3, seed 6": (*criterion_3(6), 500, "nesterov"),
        "criterion 5, seed 4": (
            c5, GraphSchedule(80, ((0, c5_tops[0]), (25, c5_tops[1]), (50, c5_tops[0]))), 80, "nesterov"
        ),
        "gd on ridge": (
            ridge, GraphSchedule(200, ((0, gen_topology("erdos_renyi", 6, {"p": 0.7}, seed=3)),)), 200, "gd"
        ),
        "logistic, cut at 40": (logistic, three, 40, "nesterov"),
        "logistic, gd": (logistic, three, 100, "gd"),
    }
    for k in (39, 40, 41, 70, 100):
        for method in ("nesterov", "gd"):
            cases[f"cut at {k}, {method}"] = (quad, three, k, method)
    return cases


XSPACE_CASES = xspace_cases()


# A run of up to 40 iterations recorded every 1-3 of them makes 2 to 41
# records: every fill of the last block, after up to two full ones.
runs = st.tuples(st.integers(1, 40), st.integers(1, 3), st.integers(1, 7))


class TestDriverRecords:
    @settings(max_examples=40)
    @given(aggregates(), runs, st.booleans())
    def test_dual_records_equal_per_record_reference(self, agg, run, accelerated):
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        runner = run_distributed_nesterov if accelerated else run_dual_gradient
        # a dual GD run on one epoch also gives each record's distance to an X*
        static = not accelerated and len(schedule.epochs) == 1
        x_star = np.linspace(-1.0, 1.0, agg.dim * agg.n).reshape(agg.dim, agg.n)
        given_x_star = {"x_star": x_star} if static else {}
        trace = runner(agg, schedule, max_iter=max_iter, record_every=record_every, **given_x_star)
        reference = ref_dual_records(agg, schedule, max_iter, record_every, accelerated)
        assert_records_match(trace, reference, agg)
        assert_states_match(lambda k: runner(agg, schedule, max_iter=k), reference)
        dists = [math.nan] * len(reference)
        if static:
            pinv_sqrt = pinv_sqrt_psd(laplacian(schedule.epochs[0][1]))
            dists = [float(np.linalg.norm(-(r[5] @ pinv_sqrt) - x_star)) for r in reference]
        assert all(map(same_float, trace.x_dist.tolist(), dists))

    @settings(max_examples=40)
    @given(aggregates(), runs, st.sampled_from((1.0, 30.0, 1e3, 1e5)))
    def test_diging_records_equal_per_record_reference(self, agg, run, boost):
        # large steps diverge and abort, at an iteration that moves with the step
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        stepsize = boost * default_diging_stepsize(agg)
        trace = run_diging(agg, schedule, stepsize, max_iter=max_iter, record_every=record_every)
        reference = ref_diging_records(agg, schedule, max_iter, record_every, stepsize)
        assert_records_match(trace, reference, agg)
        assert_states_match(lambda k: run_diging(agg, schedule, stepsize, max_iter=k), reference)
        assert np.isnan(trace.x_dist).all()
        # a run aborts exactly when its last record is the abort record
        assert trace.aborted == (reference[-1][3] == math.inf)

    def test_abort_inside_a_block(self):
        agg = gen_ridge_instance(3, 4, 2, seed=5)
        schedule = schedule_for(agg, 3, 40)
        stepsize = 30 * default_diging_stepsize(agg)
        trace = run_diging(agg, schedule, stepsize, max_iter=40)
        # the records before the abort fill one block and part of the next
        assert trace.aborted and _BLOCK < len(trace.records) - 1 < 2 * _BLOCK
        reference = ref_diging_records(agg, schedule, 40, 1, stepsize)
        assert_records_match(trace, reference, agg)
        assert_states_match(lambda k: run_diging(agg, schedule, stepsize, max_iter=k), reference)
        # cut at the abort iteration, the run aborts there: the final state is checked too
        k = trace.records[-1].iter
        cut = run_diging(agg, schedule, stepsize, max_iter=k)
        assert cut.aborted and cut.records[-1].iter == k and cut.records[-1].primal_value is None
        assert_records_match(cut, ref_diging_records(agg, schedule, k, 1, stepsize), agg)


class TestXSpaceRecords:
    @pytest.mark.parametrize("case", list(XSPACE_CASES))
    def test_reference_run_equals_per_iterate_loop(self, case):
        assert_xspace_matches(*XSPACE_CASES[case])

    @settings(max_examples=25)
    @given(aggregates(), st.integers(1, 40), st.integers(1, 7), st.sampled_from(("nesterov", "gd")))
    def test_any_aggregate_and_block_fill(self, agg, max_iter, period, method):
        assert_xspace_matches(agg, schedule_for(agg, period, 40), max_iter, method)


class TestMetricBlocks:
    @settings(max_examples=30)
    @given(
        aggregates(),
        runs,
        st.sampled_from(("nesterov", "dual_gd", "diging", "diging_abort")),
    )
    def test_rows_equal_per_record_loop(self, agg, run, method):
        max_iter, record_every, period = run
        schedule = schedule_for(agg, period, max_iter)
        if method.startswith("diging"):
            stepsize = (1e5 if method == "diging_abort" else 1.0) * default_diging_stepsize(agg)
            trace = run_diging(agg, schedule, stepsize, max_iter=max_iter, record_every=record_every)
            reference = ref_diging_records(agg, schedule, max_iter, record_every, stepsize)
        else:
            runner = run_distributed_nesterov if method == "nesterov" else run_dual_gradient
            trace = runner(agg, schedule, max_iter=max_iter, record_every=record_every)
            reference = ref_dual_records(agg, schedule, max_iter, record_every, method == "nesterov")
        _, phi_star = centralized_solve(agg)
        rows = compute_metrics(trace, agg, (None, phi_star))
        assert_rows_match(rows, ref_metrics(trace, agg, phi_star, [r[7] for r in reference]))

    def test_missing_and_non_finite_candidates_inside_a_block(self):
        # records without a primal value stand for lost candidates
        agg = gen_ridge_instance(9, 4, 5, seed=3)
        schedule = schedule_for(agg, 2, 20)
        trace = run_distributed_nesterov(agg, schedule, max_iter=20)
        ys = [r[7] for r in ref_dual_records(agg, schedule, 20, 1, accelerated=True)]
        primal = trace.primal_value.copy()
        nan_y = np.full((agg.dim, agg.n), np.nan)
        for k, y in ((1, None), (3, nan_y), (4, None), (_BLOCK + 2, nan_y)):
            primal[k], ys[k] = math.nan, y
        trace = dataclasses.replace(trace, primal_value=primal)
        _, phi_star = centralized_solve(agg)
        rows = compute_metrics(trace, agg, (None, phi_star))
        assert_rows_match(rows, ref_metrics(trace, agg, phi_star, ys))
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
            y = agg.conj_argmax_cols(zs[r])
            assert same_float(agg.dual_value(zs[r]), ref_dual_value(agg, zs[r], y))
            assert same_float(agg.value_cols(y), ref_value_cols(agg, y))
            assert same_float(values[r], ref_value_consensus(agg, points[r]))
            assert same_float(agg.value_consensus(points[r]), ref_value_consensus(agg, points[r]))
