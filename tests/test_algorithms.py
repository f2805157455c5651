"""Runner dynamics: hand recursions, conservation laws, equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dvopt.algorithms
from dvopt.algorithms import (
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
    run_xspace_reference,
    solve_dual_min_norm,
)
from dvopt.graphs import GraphSchedule, Topology, alternating_schedule, gen_topology, laplacian
from dvopt.linalg import fro_norm, pinv_sqrt_psd, project_consensus_orth, sqrt_psd
from dvopt.metrics import compute_metrics
from dvopt.objectives import (
    AggregateObjective,
    QuadraticObjective,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
)
from dvopt.graphs import theta_bounds


def two_agent_instance():
    return AggregateObjective(
        (
            QuadraticObjective.from_offset(np.array([-1.0])),
            QuadraticObjective.from_offset(np.array([1.0])),
        )
    )


def random_instance(rng, n, d, scale_spread=4.0):
    locs = tuple(
        QuadraticObjective.from_offset(
            rng.standard_normal(d), scale=float(rng.uniform(1.0, scale_spread))
        )
        for _ in range(n)
    )
    return AggregateObjective(locs)


class TestHandRecursions:
    def test_nesterov_two_path_one_step(self):
        agg = two_agent_instance()
        sched = GraphSchedule(5, ((0, gen_topology("path", 2)),))
        tr = run_distributed_nesterov(agg, sched, max_iter=1)
        assert tr.momentum_degenerate  # kappa = 1 on the 2-path
        assert np.allclose(tr.final_state.z, [[1.0, -1.0]], atol=1e-12)
        assert np.allclose(tr.final_state.y_tilde, 0.0, atol=1e-12)

    def test_dual_gd_two_path_one_step(self):
        agg = two_agent_instance()
        sched = GraphSchedule(5, ((0, gen_topology("path", 2)),))
        tr = run_dual_gradient(agg, sched, max_iter=1)
        assert np.allclose(tr.final_state.z, [[1.0, -1.0]], atol=1e-12)

    def test_diging_recursion(self):
        agg = two_agent_instance()
        sched = GraphSchedule(5, ((0, gen_topology("complete", 2)),))
        tr = run_diging(agg, sched, stepsize=0.1, max_iter=1)
        assert np.allclose(tr.final_state.x, [[-0.1, 0.1]], atol=1e-12)
        assert np.allclose(tr.final_state.u, [[-0.1, 0.1]], atol=1e-12)

    def test_identical_objectives_stay_at_zero(self):
        shared = QuadraticObjective.from_offset(np.array([0.7, -0.2]))
        agg = AggregateObjective((shared,) * 4)
        sched = GraphSchedule(20, ((0, gen_topology("cycle", 4)),))
        tr = run_distributed_nesterov(agg, sched, max_iter=20)
        assert fro_norm(tr.final_state.z) == 0.0

    def test_all_offsets_equal_freezes_gd(self):
        shared = QuadraticObjective.from_offset(np.array([0.5]))
        agg = AggregateObjective((shared,) * 3)
        sched = GraphSchedule(10, ((0, gen_topology("path", 3)),))
        tr = run_dual_gradient(agg, sched, max_iter=10)
        assert fro_norm(tr.final_state.z) == 0.0


class TestDeterminism:
    def test_identical_traces(self):
        rng = np.random.default_rng(2)
        agg = random_instance(rng, 5, 3)
        sched = GraphSchedule(
            40, ((0, gen_topology("erdos_renyi", 5, {"p": 0.7}, 1)), (20, gen_topology("star", 5)))
        )
        t1 = run_distributed_nesterov(agg, sched, max_iter=40)
        t2 = run_distributed_nesterov(agg, sched, max_iter=40)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a.dual_value == b.dual_value
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.y_tilde, b.y_tilde)


class TestConservation:
    def test_column_sum_drift_nesterov(self):
        rng = np.random.default_rng(5)
        agg = random_instance(rng, 6, 3)
        sched = GraphSchedule(
            1000,
            (
                (0, gen_topology("erdos_renyi", 6, {"p": 0.8}, 3)),
                (400, gen_topology("cycle", 6)),
            ),
        )
        tr = run_distributed_nesterov(agg, sched, max_iter=1000, record_every=100)
        for rec in tr.records:
            drift = np.max(np.abs(rec.z.sum(axis=1)))
            assert drift <= 1e-9 * (1.0 + fro_norm(rec.z))

    def test_column_sum_drift_gd(self):
        rng = np.random.default_rng(6)
        agg = random_instance(rng, 4, 2)
        sched = GraphSchedule(500, ((0, gen_topology("path", 4)),))
        tr = run_dual_gradient(agg, sched, max_iter=500, record_every=50)
        for rec in tr.records:
            assert np.max(np.abs(rec.z.sum(axis=1))) <= 1e-9 * (1.0 + fro_norm(rec.z))

    def test_diging_tracking_identity(self):
        rng = np.random.default_rng(7)
        agg = random_instance(rng, 5, 2)
        sched = GraphSchedule(
            120, ((0, gen_topology("complete", 5)), (60, gen_topology("star", 5)))
        )
        alpha = default_diging_stepsize(agg)
        x = np.zeros((2, 5))
        g = agg.grad_cols(x)
        u = g.copy()
        from dvopt.graphs import mixing_matrix

        vs = [mixing_matrix(t) for t in sched.topologies()]
        for k in range(120):
            gap = np.max(np.abs(u.mean(axis=1) - agg.grad_cols(x).mean(axis=1)))
            assert gap <= 1e-9
            v = vs[sched.epoch_index(k)]
            x_next = x @ v.T - alpha * u
            g_next = agg.grad_cols(x_next)
            u = u @ v.T + g_next - g
            x, g = x_next, g_next


class TestMessageLogs:
    @pytest.mark.parametrize("runner", [run_distributed_nesterov, run_dual_gradient, run_diging])
    def test_pairs_subset_of_epoch_edges(self, runner):
        rng = np.random.default_rng(8)
        agg = random_instance(rng, 6, 2)
        sched = GraphSchedule(
            30,
            (
                (0, gen_topology("erdos_renyi", 6, {"p": 0.6}, 2)),
                (15, gen_topology("path", 6)),
            ),
        )
        tr = runner(agg, sched, max_iter=30)
        assert len(tr.message_log) == 30
        for k, pairs in enumerate(tr.message_log.per_iteration):
            allowed = set()
            for i, j in sched.topology_at(k).edges:
                allowed.add((i, j))
                allowed.add((j, i))
            for snd, rcv in map(tuple, pairs):
                assert (snd, rcv) in allowed

    def test_message_counts_recorded(self):
        agg = two_agent_instance()
        sched = GraphSchedule(4, ((0, gen_topology("path", 2)),))
        tr = run_distributed_nesterov(agg, sched, max_iter=4)
        assert [r.message_count for r in tr.records] == [2, 2, 2, 2, 0]
        trd = run_diging(agg, sched, max_iter=4)
        assert trd.records[0].message_count == 4  # two rounds per iteration


class TestXSpaceEquivalence:
    def test_z_matches_x_image_on_static_graphs(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(1, 4))
            agg = random_instance(rng, n, d)
            topo = gen_topology("erdos_renyi", n, {"p": 0.9}, seed=trial)
            sched = GraphSchedule(25, ((0, topo),))
            sw = sqrt_psd(laplacian(topo))
            tr = run_distributed_nesterov(agg, sched, max_iter=25)
            xref = run_xspace_reference(agg, sched, max_iter=25)
            for rec in tr.records:
                if rec.z is None:
                    continue
                assert fro_norm(rec.z - (-(xref.xs[rec.iter] @ sw))) <= 1e-8

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(10)
        agg = random_instance(rng, 5, 3)
        topo = gen_topology("cycle", 5)
        sched = GraphSchedule(10, ((0, topo),))
        xref = run_xspace_reference(agg, sched, max_iter=10)
        for _ in range(20):
            x = rng.standard_normal((3, 5))
            g = xref.grad(0, x)
            assert np.max(np.abs(g.sum(axis=1))) <= 1e-10

    def test_trajectory_stays_in_subspace(self):
        rng = np.random.default_rng(11)
        agg = random_instance(rng, 4, 2)
        sched = GraphSchedule(
            60, ((0, gen_topology("complete", 4)), (30, gen_topology("star", 4)))
        )
        xref = run_xspace_reference(agg, sched, max_iter=60)
        x0 = xref.xs[0]
        for x in xref.xs:
            shifted = x - x0
            assert fro_norm(project_consensus_orth(shifted) - shifted) <= 1e-9

    def test_gd_contraction_pointwise(self):
        rng = np.random.default_rng(12)
        agg = random_instance(rng, 5, 3)
        topo = gen_topology("erdos_renyi", 5, {"p": 0.8}, seed=3)
        sched = GraphSchedule(200, ((0, topo),))
        xref = run_xspace_reference(agg, sched, max_iter=200, method="gd")
        rho = (xref.l_f - xref.mu_f) / (xref.l_f + xref.mu_f)
        prev = math.inf
        for k, x in enumerate(xref.xs):
            dist = fro_norm(x - xref.x_star)
            assert dist <= rho**k * xref.radius + 1e-10
            assert dist <= prev + 1e-12
            prev = dist

    def test_min_norm_solution_is_stationary(self):
        rng = np.random.default_rng(13)
        agg = random_instance(rng, 4, 2)
        topo = gen_topology("path", 4)
        sched = GraphSchedule(5, ((0, topo),))
        x_star = solve_dual_min_norm(agg, sched)
        sw = sqrt_psd(laplacian(topo))
        g = -(agg.conj_argmax_cols(-(x_star @ sw)) @ sw)
        assert fro_norm(g) <= 1e-10
        assert fro_norm(project_consensus_orth(x_star) - x_star) <= 1e-12


class TestDegenerateAndAbort:
    def test_kappa_one_falls_back_to_gradient(self):
        agg = two_agent_instance()
        sched = GraphSchedule(10, ((0, gen_topology("path", 2)),))
        tr = run_distributed_nesterov(agg, sched, max_iter=10)
        assert tr.momentum_degenerate
        dc = dual_constants(agg, theta_bounds(sched))
        assert dc.kappa == pytest.approx(1.0)

    def test_divergence_abort_flag(self):
        agg = two_agent_instance()
        sched = GraphSchedule(200, ((0, gen_topology("path", 2)),))
        # a destructive step size guarantees blow-up
        tr = run_diging(agg, sched, stepsize=1e6, max_iter=200)
        assert tr.aborted
        assert tr.records[-1].consensus_dist == math.inf

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.one_of(
                st.floats(-1e3, 1e3),
                st.sampled_from([math.nan, math.inf, -math.inf, 1e155, -1e200, 7e11, 1e12]),
            ),
        )
    )
    def test_one_pass_divergence_check_matches_isfinite_and_norm(self, a):
        limit = dvopt.algorithms._DIVERGENCE_LIMIT
        with np.errstate(over="ignore"):
            two_pass = bool(np.all(np.isfinite(a))) and float(np.sqrt(np.sum(a**2))) <= limit
            assert dvopt.algorithms._finite(a) is two_pass

    def test_max_iter_capped_by_horizon(self):
        agg = two_agent_instance()
        sched = GraphSchedule(5, ((0, gen_topology("path", 2)),))
        with pytest.raises(ValueError):
            run_distributed_nesterov(agg, sched, max_iter=6)

    def test_agent_count_mismatch(self):
        agg = two_agent_instance()
        sched = GraphSchedule(5, ((0, gen_topology("path", 3)),))
        with pytest.raises(ValueError):
            run_dual_gradient(agg, sched)


class TestWeightedGraphs:
    def test_weighted_laplacian_run(self):
        # weight-n star shares the sqrt(n) eigenspace with the complete graph
        n = 4
        star = gen_topology("star", n)
        weighted = Topology(n, star.edges, (float(n),) * len(star.edges))
        rng = np.random.default_rng(14)
        agg = random_instance(rng, n, 2)
        sched = GraphSchedule(
            50, ((0, gen_topology("complete", n)), (25, weighted))
        )
        tr = run_distributed_nesterov(agg, sched, max_iter=50)
        assert not tr.aborted
        assert len(tr.records) == 51


# Four nodes: the pool repeats equal topologies as separate objects, and its
# last entry is disconnected.
_POOL = (
    gen_topology("path", 4),
    gen_topology("cycle", 4),
    Topology(4, ((1, 2), (2, 3), (3, 4))),  # equal to the path, another object
    gen_topology("star", 4),
    Topology(4, ((1, 2), (3, 4))),
)


@st.composite
def pooled_schedules(draw):
    horizon = draw(st.integers(1, 40))
    later = draw(st.lists(st.integers(1, max(1, horizon - 1)), max_size=6, unique=True))
    starts = [0] + sorted(s for s in later if s < horizon)
    picks = draw(st.lists(st.sampled_from(_POOL), min_size=len(starts), max_size=len(starts)))
    return horizon, tuple(zip(starts, picks))


class TestScheduleIndex:
    @given(pooled_schedules())
    def test_index_matches_searchsorted_and_equality(self, drawn):
        horizon, epochs = drawn
        disconnected = [j for j, (_, t) in enumerate(epochs) if not t.is_connected()]
        if disconnected:
            with pytest.raises(ValueError, match=rf"^epoch {disconnected[0]} topology"):
                GraphSchedule(horizon, epochs)
            return
        sched = GraphSchedule(horizon, epochs)
        index = sched.topology_index
        for a, (_, ta) in enumerate(epochs):
            assert sched.distinct_topologies[index[a]] == ta
            for b, (_, tb) in enumerate(epochs):
                assert (index[a] == index[b]) == (ta == tb)
        starts = np.array([s for s, _ in epochs])
        agg = AggregateObjective(
            tuple(QuadraticObjective.from_offset(np.array([float(i)])) for i in range(4))
        )
        tr = run_dual_gradient(agg, sched, keep_state=False)
        for k in range(horizon):
            want = int(np.searchsorted(starts, k, side="right") - 1)
            assert tr.records[k].epoch == want
            assert tr.message_log.per_iteration[k] is tr.message_log.per_iteration[starts[want]]

    def test_repeated_topologies_are_checked_and_built_once(self, monkeypatch):
        connectivity_checks = []
        is_connected = Topology.is_connected
        monkeypatch.setattr(
            Topology, "is_connected", lambda t: connectivity_checks.append(t) or is_connected(t)
        )
        sched = alternating_schedule(("star", "cycle"), 20, 5, 1000)
        assert len(sched.epochs) == 200
        assert len(connectivity_checks) == 2

        built = []
        monkeypatch.setattr(
            dvopt.algorithms, "laplacian", lambda t: built.append(t) or laplacian(t)
        )
        agg = gen_ridge_instance(20, 10, 5, c=0.1, noise=0.1, seed=1)
        run_distributed_nesterov(agg, sched, max_iter=10)
        assert len(built) == 2


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype) == (b.shape, b.dtype) and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestLeanRecords:
    """``keep_state=False`` drops every record array and changes no number."""

    AGG = gen_ridge_instance(6, 5, 3, c=0.1, noise=0.1, seed=4)
    SCHED = GraphSchedule(
        60,
        (
            (0, gen_topology("star", 6)),
            (15, gen_topology("cycle", 6)),
            (30, gen_topology("complete", 6)),
            (45, gen_topology("star", 6)),
        ),
    )

    def run(self, method, record_every, keep):
        agg, sched = self.AGG, self.SCHED
        if method.startswith("diging"):
            step = (1e5 if method == "diging_abort" else 1.0) * default_diging_stepsize(agg)
            return run_diging(agg, sched, step, record_every=record_every, keep_state=keep)
        runner = run_dual_gradient if method == "dual_gd" else run_distributed_nesterov
        return runner(agg, sched, record_every=record_every, keep_state=keep)

    def test_lean_records_give_the_same_metrics(self, monkeypatch):
        oracle = centralized_solve(self.AGG)
        for method in ("nesterov", "nesterov_abort", "dual_gd", "diging", "diging_abort"):
            for record_every in (1, 3):
                with monkeypatch.context() as patch:
                    if method == "nesterov_abort":
                        # a dual run does not diverge; a low limit stops it part way
                        patch.setattr(dvopt.algorithms, "_DIVERGENCE_LIMIT", 0.05)
                    full = self.run(method, record_every, True)
                    lean = self.run(method, record_every, False)
                case = (method, record_every)
                assert full.aborted == lean.aborted == method.endswith("abort"), case
                # repr tells floats apart bit for bit, and NaN equals NaN
                assert repr(compute_metrics(lean, self.AGG, oracle)) == repr(
                    compute_metrics(full, self.AGG, oracle)
                ), case
                assert all(r.z is None and r.z_tilde is None and r.y_tilde is None for r in lean.records)
                assert not lean.aborted or lean.records[-1].iter < 60, case
                # the abort record keeps no array, in full runs too
                assert all((r.y_tilde is None) == (r.primal_value is None) for r in full.records), case
                if method == "nesterov_abort":
                    for trace in (full, lean):
                        y = trace.final_state.y_tilde
                        assert y.shape == trace.final_state.z.shape and np.isnan(y).all(), case
                dual = not method.startswith("diging")
                assert all((r.z is not None) == dual for r in full.records[:-1]), case
                for name in vars(full.final_state):
                    a, b = getattr(full.final_state, name), getattr(lean.final_state, name)
                    assert same_bits(a, b), (case, name)


@st.composite
def connected_topologies(draw):
    """A connected graph on 3-7 nodes, unit or random positive edge weights."""
    kind = draw(st.sampled_from(("path", "cycle", "star", "complete", "erdos_renyi")))
    n = draw(st.integers(3, 7))
    topo = gen_topology(kind, n, seed=draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        m = len(topo.edges)
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
        topo = Topology(n, topo.edges, tuple(weights))
    return topo


def accelerated_dual_solve(agg, schedule, tol=1e-12, max_iter=200_000):
    """The accelerated gradient loop the closed form replaced, as a reference."""
    first = schedule.topology_index[0]
    sw = sqrt_psd(laplacian(schedule.distinct_topologies[first]))
    info = schedule.spectra[first]
    dc = dual_constants(agg, (info.sigma_max, info.sigma_min_pos))
    l_f, beta = dc.l_f, dvopt.algorithms._momentum(dc.kappa)
    grad = dvopt.algorithms._xspace_grad
    x = np.zeros((agg.dim, agg.n))
    y_prev = x.copy()
    target = tol * (1.0 + fro_norm(grad(agg, sw, x)))
    for _ in range(max_iter):
        g = grad(agg, sw, x)
        if fro_norm(g) <= target:
            return project_consensus_orth(x)
        y = x - g / l_f
        x = (1.0 + beta) * y - beta * y_prev
        y_prev = y
    raise RuntimeError(f"dual solve did not reach gradient norm {target:.3e}")


class TestClosedFormDualSolution:
    @given(connected_topologies())
    def test_pinv_sqrt_inverts_the_root_off_the_kernel(self, topo):
        w = laplacian(topo)
        n = topo.n
        got = pinv_sqrt_psd(w) @ sqrt_psd(w)
        assert np.max(np.abs(got - (np.eye(n) - np.ones((n, n)) / n))) <= 1e-10

    @settings(max_examples=20)
    @given(
        connected_topologies(),
        st.sampled_from(("ridge", "logistic")),
        st.integers(1, 3),
        st.integers(0, 1000),
    )
    def test_min_norm_solution_meets_the_optimality_condition(self, topo, kind, d, seed):
        n = topo.n
        if kind == "ridge":
            agg = gen_ridge_instance(n, d, 3, c=0.1, noise=0.1, seed=seed)
        else:
            agg = gen_logistic_instance(n, d, 4, c=0.1, seed=seed)
        sched = GraphSchedule(5, ((0, topo),))
        x_star = solve_dual_min_norm(agg, sched)
        y_star, _ = centralized_solve(agg)
        # a caller's minimizer from the same solve gives the same bits
        assert same_bits(solve_dual_min_norm(agg, sched, y_star), x_star)
        g = agg.grad_cols(np.repeat(y_star[:, None], n, axis=1))
        scale = fro_norm(x_star)
        assert np.max(np.abs(x_star.sum(axis=1))) <= 1e-12 * (1.0 + scale)
        # G's row sums are the summed gradient at y*, below the centralized
        # solve's tolerance; X* sqrt(W) = -G holds on the rest of G.
        assert fro_norm(g.sum(axis=1)) <= 1e-10
        image = -(x_star @ sqrt_psd(laplacian(topo)))
        assert fro_norm(image - project_consensus_orth(g)) <= 1e-10 * fro_norm(g)
        rel = 1e-9 if kind == "ridge" else 1e-7
        assert fro_norm(x_star - accelerated_dual_solve(agg, sched)) <= rel * scale
