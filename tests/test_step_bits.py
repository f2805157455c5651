"""The per-step kernels keep the bits of the expressions they replaced.

A dual or DIGing step makes its 2-D products with ``np.dot``, adds the
linear terms in the argmax over an F-ordered copy of them, and the
divergence check sums squares with ``r.dot(r)``.  Each calls the same
BLAS routine on the same data as the ``@``, C-ordered and ``np.dot(r, r)``
forms, so states and trace columns must match those forms bit for bit:
first kernel by kernel on drawn shapes and scales, then over whole runs
against hand loops that write the old expressions out.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvopt.algorithms import (
    _DIGingMethod,
    _DualMethod,
    _finite,
    _momentum,
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
)
from dvopt.graphs import GraphSchedule, alternating_schedule, gen_topology, laplacian, mixing_matrix
from dvopt.objectives import AggregateObjective, _build_quadratics, dual_constants, gen_ridge_instance
from test_record_blocks import ref_consensus_dist, ref_dual_value, ref_value_consensus


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64)
    )


def old_argmax(agg, z):
    """The argmax of each column of a (d, n) z, its linear terms added in C order."""
    stack = agg._stack
    return (stack.inv @ (z.T + stack.lin)[..., None])[..., 0].T


# ---------------------------------------------------------------------------
# Kernel by kernel


@st.composite
def step_cases(draw):
    """(aggregate, C-ordered (d, n) states z and u, symmetric (n, n) matrix), at one scale."""
    n, d = draw(st.integers(2, 150)), draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.standard_normal((n, d, d))
    quad = scale * (root @ root.transpose(0, 2, 1) + d * np.eye(d))
    lin = scale * rng.standard_normal((n, d))
    agg = AggregateObjective(tuple(_build_quadratics(quad, lin, np.zeros(n))))
    z, u = scale * rng.standard_normal((2, d, n))
    sym = scale * rng.standard_normal((n, n))
    return agg, z, u, sym + sym.T


@settings(max_examples=60)
@given(step_cases())
def test_dot_argmax_and_ddot_keep_the_bits_of_their_old_forms(case):
    agg, z, u, sym = case
    # a C-ordered state (z, DIGing's x and u) or an F-ordered one (the dual's y)
    # times a C-ordered symmetric matrix (a Laplacian) or its F view (DIGing's V')
    for a in (z, np.asfortranarray(z)):
        for b in (sym, sym.T):
            assert same_bits(np.dot(a, b), a @ b)
    y = agg._stack.conj_argmax(z.T)
    assert same_bits(y, old_argmax(agg, z).T)
    for r in (z.ravel(), y.ravel(), np.dot(y.T, sym).ravel()):
        assert r.dot(r).view(np.int64) == np.dot(r, r).view(np.int64)
        assert _finite(r) == (math.sqrt(np.dot(r, r)) <= 1e12)

    # one step of each method from drawn states, against the old expressions
    schedule = GraphSchedule(1, ((0, gen_topology("path", agg.n)),))
    dual = _DualMethod(agg, schedule, accelerated=True)
    dual.z, dual.zt = z, u
    dual.step(sym, False)
    zt_next = z - dual.step_size * (old_argmax(agg, z) @ sym)
    assert same_bits(dual.zt, zt_next)
    assert same_bits(dual.z, (1.0 + dual.beta) * zt_next - dual.beta * u)

    diging = _DIGingMethod(agg, 0.5)
    g = diging.g = agg.grad_cols(u)
    diging.x, diging.u = z, u
    diging.step(sym.T, False)
    x_next = z @ sym.T - 0.5 * u
    assert same_bits(diging.x, x_next)
    assert same_bits(diging.u, u @ sym.T + agg.grad_cols(x_next) - g)


# ---------------------------------------------------------------------------
# Whole runs against hand loops


def hand_dual(agg, schedule, max_iter, accelerated):
    """Final (z, z_tilde, y) and every iteration's (z, y) of a dual run, written with ``@``."""
    dc = dual_constants(agg, schedule.theta)
    step = 1.0 / dc.l_f if accelerated else 2.0 / (dc.l_f + dc.mu_f)
    beta = _momentum(dc.kappa) if accelerated else 0.0
    z = zt = np.zeros((agg.dim, agg.n))
    states = []
    for k in range(max_iter):
        w = laplacian(schedule.epochs[schedule.epoch_index(k)][1])
        y = old_argmax(agg, z)
        states.append((z, y))
        zt_next = z - step * (y @ w)
        z = (1.0 + beta) * zt_next - beta * zt
        zt = zt_next
    y = old_argmax(agg, z)
    states.append((z, y))
    return (z, zt, y), states


def hand_diging(agg, schedule, max_iter, stepsize):
    """Final (x, u) and every iteration's x of a DIGing run, written with ``@``."""
    x = np.zeros((agg.dim, agg.n))
    g = agg.grad_cols(x)
    u = g.copy()
    xs = []
    for k in range(max_iter):
        vt = mixing_matrix(schedule.epochs[schedule.epoch_index(k)][1]).T
        xs.append(x)
        x_next = x @ vt - stepsize * u
        g_next = agg.grad_cols(x_next)
        u = u @ vt + g_next - g
        x, g = x_next, g_next
    xs.append(x)
    return (x, u), xs


def assert_int_columns(trace, schedule, max_iter, per_edge):
    iters = list(range(max_iter + 1))
    epochs = [schedule.epoch_index(min(k, max_iter - 1)) for k in iters]
    counts = [per_edge * len(schedule.epochs[e][1].edges) for e in epochs[:-1]] + [0]
    assert trace.iter.tolist() == iters
    assert trace.epoch.tolist() == epochs
    assert trace.message_count.tolist() == counts


RUN_CASES = {
    # the switching_sweep cell shape: ridge n=20, l=10, d=5, star/cycle every 5 iterations
    "n=20, d=5": (gen_ridge_instance(20, 10, 5, c=0.1, noise=0.1, seed=4),
                  alternating_schedule(("star", "cycle"), 20, 5, 1000, seed=504), 1000),
    "n=100, d=20": (gen_ridge_instance(100, 20, 20, c=0.1, noise=0.1, seed=5),
                    alternating_schedule(("star", "cycle"), 100, 5, 300, seed=505), 300),
    # one dimension: a (1, n) state is C- and F-ordered at once, and (V x')' @ is not x @ V'
    "n=20, d=1": (gen_ridge_instance(20, 10, 1, c=0.1, noise=0.1, seed=6),
                  alternating_schedule(("star", "cycle"), 20, 5, 300, seed=506), 300),
}

each_run = pytest.mark.parametrize("run_case", list(RUN_CASES.values()), ids=list(RUN_CASES))


@each_run
def test_dual_runs_match_a_hand_loop_bit_for_bit(run_case):
    agg, schedule, max_iter = run_case
    for accelerated in (True, False):
        runner = run_distributed_nesterov if accelerated else run_dual_gradient
        trace = runner(agg, schedule, max_iter=max_iter)
        final, states = hand_dual(agg, schedule, max_iter, accelerated)
        assert not trace.aborted
        fs = trace.final_state
        assert all(map(same_bits, (fs.z, fs.z_tilde, fs.y_tilde), final))
        assert_int_columns(trace, schedule, max_iter, 2)
        assert same_bits(trace.dual_value, [ref_dual_value(agg, z, y) for z, y in states])
        assert same_bits(trace.consensus_dist, [ref_consensus_dist(y) for _, y in states])
        # the run averages each y's C copy
        means = [np.ascontiguousarray(y).mean(axis=1) for _, y in states]
        assert same_bits(trace.primal_value, [ref_value_consensus(agg, m) for m in means])
        assert np.isnan(trace.x_dist).all()


@each_run
def test_diging_run_matches_a_hand_loop_bit_for_bit(run_case):
    agg, schedule, max_iter = run_case
    stepsize = default_diging_stepsize(agg)
    trace = run_diging(agg, schedule, max_iter=max_iter)
    (x, u), xs = hand_diging(agg, schedule, max_iter, stepsize)
    assert not trace.aborted
    assert same_bits(trace.final_state.x, x) and same_bits(trace.final_state.u, u)
    assert_int_columns(trace, schedule, max_iter, 4)
    assert np.isnan(trace.dual_value).all() and np.isnan(trace.x_dist).all()
    assert same_bits(trace.consensus_dist, [ref_consensus_dist(x) for x in xs])
    assert same_bits(trace.primal_value, [ref_value_consensus(agg, x.mean(axis=1)) for x in xs])
