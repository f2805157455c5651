"""Topology generation, Laplacians, spectra, schedules, mixing matrices."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dvopt.graphs
from dvopt.graphs import (
    GenerationError,
    GraphSchedule,
    Topology,
    ValidationError,
    _epoch_of_iteration,
    _n_components,
    _number,
    alternating_schedule,
    change_stats,
    gen_topology,
    laplacian,
    mixing_delta,
    mixing_matrix,
    schedule_from_spec,
    spectral_info,
    theta_bounds,
)
from dvopt.algorithms import run_distributed_nesterov
from dvopt.linalg import eig_sym
from dvopt.objectives import gen_ridge_instance


# Connected four-node topologies; the path appears twice as separate equal
# objects, so drawn schedules repeat topologies both ways.
_POOL = (
    gen_topology("path", 4),
    Topology(4, ((1, 2), (2, 3), (3, 4))),
    gen_topology("cycle", 4),
    gen_topology("star", 4),
    Topology(4, ((1, 2), (1, 3), (1, 4)), (1.0, 2.0, 0.5)),
    gen_topology("complete", 4),
)


@st.composite
def pooled_schedules(draw):
    horizon = draw(st.integers(1, 30))
    later = draw(st.lists(st.integers(1, max(1, horizon - 1)), max_size=6, unique=True))
    starts = [0] + sorted(s for s in later if s < horizon)
    picks = draw(st.lists(st.sampled_from(_POOL), min_size=len(starts), max_size=len(starts)))
    return GraphSchedule(horizon, tuple(zip(starts, picks)))


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(3, ((1, 4),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Topology(2, ((1, 2),), (0.0,))

    def test_canonical_edge_order(self):
        t = Topology(3, ((3, 1), (2, 1)))
        assert t.edges == ((1, 3), (1, 2))


def _loop_edges(n, edges):
    """Canonical edges by a pair-by-pair walk: the reference for the array checks."""
    canon = []
    seen = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError(f"self-loop on node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) outside 1..{n}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate edge {pair}")
        seen.add(pair)
        canon.append(pair)
    return tuple(canon)


def _loop_laplacian(t):
    w = np.zeros((t.n, t.n))
    weights = t.weights if t.weights is not None else (1.0,) * len(t.edges)
    for (i, j), wij in zip(t.edges, weights):
        w[i - 1, j - 1] = -wij
        w[j - 1, i - 1] = -wij
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


def _loop_directed_pairs(t):
    if not t.edges:
        return np.zeros((0, 2), dtype=int)
    e = np.asarray(t.edges, dtype=int)
    return np.vstack([e, e[:, ::-1]])


# an endpoint as a Python int, a numpy int or an integral float
_AS_NUMBER = st.sampled_from([int, np.int64, np.int32, float])


@st.composite
def edge_inputs(draw):
    """(n, edges, as_array): pairs with reversals, repeats, self-loops and nodes outside 1..n."""
    n = draw(st.integers(1, 6))
    node = st.integers(-1, n + 2) if draw(st.booleans()) else st.integers(1, n)
    pairs = draw(st.lists(st.tuples(node, node), max_size=12))
    if pairs and draw(st.booleans()):  # repeat a drawn pair, maybe reversed
        i, j = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([(i, j), (j, i)])))
    if draw(st.booleans()):  # keep only what a valid input holds
        pairs = [(i, j) for i, j in pairs if i != j and 1 <= min(i, j) and max(i, j) <= n]
        pairs = list({(min(p), max(p)): p for p in pairs}.values())
    as_array = draw(st.booleans())
    if not as_array:
        pairs = [(draw(_AS_NUMBER)(i), draw(_AS_NUMBER)(j)) for i, j in pairs]
        if draw(st.integers(0, 9)) == 0:  # an endpoint beyond int64
            pairs.append((1, 2**70))
    return n, tuple(pairs) if not as_array else np.array(pairs, dtype=int).reshape(-1, 2), as_array


@st.composite
def topologies(draw):
    """Topologies on up to 9 nodes, weighted or not, edgeless ones included, edges in any order."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
    weights = None
    if draw(st.booleans()):
        weights = tuple(draw(st.lists(st.floats(0.01, 100.0), min_size=len(edges), max_size=len(edges))))
    return Topology(n, tuple(edges), weights)


class TestEdgeArrays:
    """Array checks, scatters and the cached connectivity against pair-by-pair loops."""

    @given(edge_inputs())
    def test_edges_and_messages_match_the_pair_loop(self, drawn):
        n, edges, _ = drawn
        try:
            want = _loop_edges(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Topology(n, edges)
            assert str(info.value) == str(exc)
            return
        t = Topology(n, edges)
        assert t.edges == want
        assert all(type(v) is int for pair in t.edges for v in pair)
        assert np.array_equal(t._ends.T + 1, np.array(want, dtype=int).reshape(-1, 2))

    def test_the_drawn_inputs_cover_every_fault_and_both_forms(self):
        # derandomized draws: check the strategy reaches each case it is meant to
        outcomes = set()

        @given(edge_inputs())
        def collect(drawn):
            n, edges, as_array = drawn
            try:
                _loop_edges(n, edges)
                outcomes.add(("valid", as_array))
            except ValueError as exc:
                outcomes.add((str(exc).split(" ")[0], as_array))

        collect()
        for form in (False, True):
            assert {("valid", form), ("self-loop", form), ("edge", form), ("duplicate", form)} <= outcomes

    def test_array_and_pair_inputs_give_equal_topologies(self):
        a = Topology(4, ((2, 1), (4, 3)), (1.0, 2.0))
        b = Topology(4, np.array([[1, 2], [3, 4]]), np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b) and a.weights == (1.0, 2.0)
        assert repr(a) == repr(b)

    def test_endpoints_are_read_only(self):
        with pytest.raises(ValueError):
            gen_topology("path", 3)._ends[0, 0] = 5

    @given(topologies())
    def test_laplacian_has_the_bytes_of_the_pair_loop(self, t):
        got, want = laplacian(t), _loop_laplacian(t)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    @given(topologies())
    def test_directed_pairs_have_the_bytes_of_the_pair_loop(self, t):
        got, want = t.directed_pairs(), _loop_directed_pairs(t)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_fixed_kinds_have_the_listed_edges(self, n):
        listed = {
            "path": [(i, i + 1) for i in range(1, n)],
            "cycle": [(i, i + 1) for i in range(1, n)] + [(1, n)],
            "star": [(1, j) for j in range(2, n + 1)],
            "complete": [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        }
        for kind, edges in listed.items():
            if kind != "cycle" or n >= 3:
                assert gen_topology(kind, n).edges == tuple(edges)

    def test_two_generated_epochs_are_walked_once_each(self, monkeypatch):
        walks = []
        n_components = dvopt.graphs._n_components
        monkeypatch.setattr(
            dvopt.graphs, "_n_components", lambda t: walks.append(t) or n_components(t)
        )
        epoch = {"kind": "erdos_renyi", "n": 12, "params": {"p": 0.6}}
        spec = {"horizon": 10, "epochs": [{**epoch, "start": 0, "seed": 1}, {**epoch, "start": 5, "seed": 2}]}
        sched = schedule_from_spec(spec)
        assert len(sched.distinct_topologies) == 2
        assert walks == list(sched.distinct_topologies)  # each drawn once, connected at once


def _er_reference(n, p, seed):
    """Erdos-Renyi edges picked pair by pair from the generator's draws, and the retries taken."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for retries in range(100):
        draws = rng.random(len(pairs))
        edges = tuple(pair for pair, u in zip(pairs, draws) if u < p)
        if Topology(n, edges).is_connected():
            return edges, retries
    raise AssertionError("no connected draw")


def _rgg_reference(n, radius, seed):
    """Random geometric edges picked pair by pair from the drawn points, and the growths taken."""
    pts = np.random.default_rng(seed).random((n, 2))
    for growths in range(100):
        edges = tuple(
            (i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, n)
            if np.sum((pts[i] - pts[j]) ** 2) <= radius * radius
        )
        if Topology(n, edges).is_connected():
            return edges, growths
        radius *= 1.1
    raise AssertionError("no connected radius")


def _default_p(n):
    return min(1.0, 2.0 * math.log(n) / n)


def _default_radius(n):
    return math.sqrt(2.0 * math.log(n) / (math.pi * n))


# (n, p or radius, seed); None takes the default
ER_CASES = [(2, 0.5, 0), (7, 0.3, 1), (12, 0.25, 5), (20, None, 3), (30, 0.1, 2), (100, 0.1, 9)]
RGG_CASES = [(2, 0.5, 0), (9, 0.3, 1), (15, None, 4), (25, 0.1, 6), (50, 0.2, 3), (80, 0.05, 11)]


class TestGeneration:
    def test_path(self):
        assert gen_topology("path", 3).edges == ((1, 2), (2, 3))

    def test_complete_edge_count(self):
        assert len(gen_topology("complete", 3).edges) == 3

    def test_star_centered_on_one(self):
        t = gen_topology("star", 4)
        assert all(e[0] == 1 for e in t.edges)

    def test_erdos_renyi_deterministic(self):
        a = gen_topology("erdos_renyi", 10, {"p": 0.5}, seed=7)
        b = gen_topology("erdos_renyi", 10, {"p": 0.5}, seed=7)
        assert a.edges == b.edges
        assert a.is_connected()

    def test_erdos_renyi_bad_p(self):
        with pytest.raises(ValueError):
            gen_topology("erdos_renyi", 5, {"p": 0.0})

    def test_erdos_renyi_gen_failure(self):
        with pytest.raises(GenerationError):
            gen_topology("erdos_renyi", 30, {"p": 1e-6}, seed=0)

    def test_random_geometric_connected(self):
        t = gen_topology("random_geometric", 15, seed=4)
        assert t.is_connected()

    def test_random_geometric_grows_a_radius_too_small_to_connect(self):
        # radius 0.15 links 6 pairs of these 12 points, not all of them
        pts = np.random.default_rng(4).random((12, 2))
        start = {
            (i + 1, j + 1)
            for i in range(12)
            for j in range(i + 1, 12)
            if np.sum((pts[i] - pts[j]) ** 2) <= 0.15**2
        }
        assert start and not Topology(12, tuple(sorted(start))).is_connected()
        t = gen_topology("random_geometric", 12, {"radius": 0.15}, seed=4)
        assert t.is_connected()
        assert t.edges == gen_topology("random_geometric", 12, {"radius": 0.15}, seed=4).edges
        assert start < set(t.edges)

    @pytest.mark.parametrize("n, p, seed", ER_CASES)
    def test_erdos_renyi_edges_are_the_pairs_drawn_below_p(self, n, p, seed):
        params = None if p is None else {"p": p}
        edges, _ = _er_reference(n, _default_p(n) if p is None else p, seed)
        assert gen_topology("erdos_renyi", n, params, seed=seed).edges == edges

    @pytest.mark.parametrize("n, radius, seed", RGG_CASES)
    def test_random_geometric_edges_are_the_pairs_within_the_radius(self, n, radius, seed):
        params = None if radius is None else {"radius": radius}
        edges, _ = _rgg_reference(n, _default_radius(n) if radius is None else radius, seed)
        assert gen_topology("random_geometric", n, params, seed=seed).edges == edges

    def test_pinned_cases_retry_and_grow(self):
        # the cases above include draws that retry and radii that grow
        retries = [_er_reference(n, p or _default_p(n), seed)[1] for n, p, seed in ER_CASES]
        growths = [_rgg_reference(n, r or _default_radius(n), seed)[1] for n, r, seed in RGG_CASES]
        assert max(retries) > 1 and 0 in retries
        assert max(growths) > 1 and 0 in growths

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_topology("torus", 4)


class TestLaplacian:
    def test_two_path(self):
        w = laplacian(gen_topology("path", 2))
        assert np.array_equal(w, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_star_four(self):
        w = laplacian(gen_topology("star", 4))
        assert np.array_equal(np.diag(w), [3.0, 1.0, 1.0, 1.0])
        assert w[0, 1] == w[0, 2] == w[0, 3] == -1.0

    def test_triangle(self):
        w = laplacian(gen_topology("cycle", 3))
        assert np.array_equal(w, np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]]))

    def test_annihilates_ones(self):
        for kind, n in (("path", 6), ("cycle", 5), ("star", 7), ("complete", 4)):
            w = laplacian(gen_topology(kind, n))
            assert np.array_equal(w @ np.ones(n), np.zeros(n))

    def test_weighted(self):
        t = Topology(2, ((1, 2),), (2.5,))
        assert np.array_equal(laplacian(t), np.array([[2.5, -2.5], [-2.5, 2.5]]))


class TestSpectralInfo:
    def test_complete_four(self):
        # L = 4I - J has spectrum {0, 4, 4, 4}
        info = spectral_info(gen_topology("complete", 4))
        assert abs(info.lambda_max - 4.0) < 1e-9
        assert abs(info.lambda_min_pos - 4.0) < 1e-9
        assert abs(info.chi - 1.0) < 1e-9

    def test_star_four(self):
        info = spectral_info(gen_topology("star", 4))
        assert abs(info.lambda_max - 4.0) < 1e-9
        assert abs(info.lambda_min_pos - 1.0) < 1e-9
        assert abs(info.chi - 4.0) < 1e-9

    def test_path_three(self):
        info = spectral_info(gen_topology("path", 3))
        assert abs(info.chi - 3.0) < 1e-9

    def test_sigma_are_squares(self):
        info = spectral_info(gen_topology("path", 5))
        assert info.sigma_max == info.lambda_max**2
        assert info.sigma_min_pos == info.lambda_min_pos**2

    def test_disconnected_rejected(self):
        t = Topology(4, ((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            spectral_info(t)

    def test_laplacian_psd_and_kernel_dim_matches_bfs(self):
        # kernel dimension equals the component count found by search
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            keep = rng.random(len(pairs)) < 0.4
            t = Topology(n, tuple(e for e, k in zip(pairs, keep) if k))
            w = laplacian(t)
            lam = eig_sym(w).eigenvalues
            assert lam[0] >= -1e-10
            threshold = 1e-9 * max(lam[-1], 1.0)
            kernel_dim = int(np.sum(lam <= threshold))
            nbrs = [[] for _ in range(n + 1)]
            for i, j in t.edges:
                nbrs[i].append(j)
                nbrs[j].append(i)
            seen = [False] * (n + 1)
            comps = 0
            for s in range(1, n + 1):
                if seen[s]:
                    continue
                comps += 1
                stack = [s]
                seen[s] = True
                while stack:
                    v = stack.pop()
                    for u in nbrs[v]:
                        if not seen[u]:
                            seen[u] = True
                            stack.append(u)
            assert kernel_dim == comps

    @given(data=st.data())
    def test_kernel_dimension_is_component_count(self, data):
        # random weighted edge sets, disconnected ones and edgeless ones included
        n = data.draw(st.integers(1, 12))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        weights = data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=len(edges), max_size=len(edges))
        )
        t = Topology(n, tuple(edges), tuple(weights) if data.draw(st.booleans()) else None)
        lam = eig_sym(laplacian(t)).eigenvalues
        assert int(np.sum(lam <= 1e-9 * lam[-1])) == _n_components(t)

    def test_complete_chi_is_one_for_all_n(self):
        for n in (2, 3, 5, 9, 16):
            assert abs(spectral_info(gen_topology("complete", n)).chi - 1.0) < 1e-9


class TestSchedule:
    def test_theta_single_complete_epoch(self):
        s = GraphSchedule(10, ((0, gen_topology("complete", 4)),))
        tmax, tmin = theta_bounds(s)
        assert abs(tmax - 16.0) < 1e-8 and abs(tmin - 16.0) < 1e-8

    def test_theta_complete_then_star(self):
        s = GraphSchedule(
            20, ((0, gen_topology("complete", 4)), (10, gen_topology("star", 4)))
        )
        tmax, tmin = theta_bounds(s)
        assert abs(tmax - 16.0) < 1e-8 and abs(tmin - 1.0) < 1e-8

    def test_theta_identical_epochs(self):
        t = gen_topology("path", 4)
        single = GraphSchedule(10, ((0, t),))
        double = GraphSchedule(10, ((0, t), (5, t)))
        assert theta_bounds(single) == theta_bounds(double)

    @given(pooled_schedules())
    def test_theta_equals_per_epoch_bounds(self, s):
        assert s.spectra == tuple(spectral_info(t) for t in s.distinct_topologies)
        assert s.theta == theta_bounds(s)

    def test_construction_decomposes_nothing(self, monkeypatch):
        calls = []
        eig = dvopt.graphs.eig_sym
        monkeypatch.setattr(dvopt.graphs, "eig_sym", lambda a: calls.append(a) or eig(a))
        s = alternating_schedule(("star", "cycle"), 20, 5, 1000)
        assert len(calls) == 0
        assert s.theta == s.theta and len(s.spectra) == 2
        assert len(calls) == 2

    def test_change_stats(self):
        t = gen_topology("path", 3)
        assert change_stats(GraphSchedule(100, ((0, t),))) == (0, 0.0)
        assert change_stats(GraphSchedule(100, ((0, t), (10, t), (20, t)))) == (2, 0.02)
        assert change_stats(GraphSchedule(100, ((0, t), (50, t)))) == (1, 0.01)

    def test_validation(self):
        t = gen_topology("path", 3)
        with pytest.raises(ValueError):
            GraphSchedule(10, ((1, t),))  # first start must be 0
        with pytest.raises(ValueError):
            GraphSchedule(10, ((0, t), (0, t)))  # strictly increasing
        with pytest.raises(ValueError):
            GraphSchedule(10, ((0, t), (10, t)))  # start beyond horizon
        disconnected = Topology(3, ((1, 2),))
        with pytest.raises(ValueError, match="epoch 1"):
            GraphSchedule(10, ((0, t), (5, disconnected)))

    @pytest.mark.parametrize(
        "horizon, start, message",
        [
            (10.7, 4, "horizon must be an integer, got 10.7"),
            (10, 4.5, "epoch 1: start must be an integer, got 4.5"),
            (10, True, "epoch 1: start must be an integer, got True"),
            ("10", 4, "horizon must be an integer, got '10'"),
        ],
    )
    def test_non_integral_horizon_or_start_is_named(self, horizon, start, message):
        t = gen_topology("path", 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GraphSchedule(horizon, ((0, t), (start, t)))

    @pytest.mark.parametrize(
        "horizon, start",
        [(10, 4), (np.int64(10), np.int32(4)), (10.0, 4.0), (np.float64(10.0), np.uint8(4))],
    )
    def test_integral_horizon_and_starts_become_ints(self, horizon, start):
        t = gen_topology("path", 3)
        s = GraphSchedule(horizon, ((0, t), (start, t)))
        assert type(s.horizon) is int and s.horizon == 10
        assert [type(k) for k, _ in s.epochs] == [int, int]
        assert s == GraphSchedule(10, ((0, t), (4, t)))

    def test_epoch_lookup(self):
        s = GraphSchedule(
            30, ((0, gen_topology("path", 3)), (10, gen_topology("star", 3)))
        )
        assert s.epoch_index(0) == 0
        assert s.epoch_index(9) == 0
        assert s.epoch_index(10) == 1
        assert s.epoch_index(29) == 1
        assert s.change_iterations == (10,)

    @given(pooled_schedules())
    def test_epoch_index_counts_the_changes_up_to_k(self, s):
        for k in range(s.horizon + 2):
            assert s.epoch_index(k) == sum(start <= k for start in s.change_iterations)

    @given(pooled_schedules(), st.integers(0, 40))
    def test_epoch_of_iteration_matches_epoch_index(self, s, stop):
        want = [s.epoch_index(k) for k in range(min(stop, s.horizon))]
        assert _epoch_of_iteration(s, stop) == want

    def test_epoch_of_iteration_builds_only_what_it_returns(self):
        t = gen_topology("path", 3)
        s = GraphSchedule(10**7, ((0, t), (5 * 10**6, gen_topology("star", 3))))
        tracemalloc.start()
        try:
            epochs = _epoch_of_iteration(s, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert epochs == [0] * 10
        assert peak < 2**20

    def test_starts_beyond_int64(self):
        s = schedule_from_spec(
            {
                "horizon": 10**30,
                "epochs": [
                    {"start": 0, "kind": "path", "n": 3},
                    {"start": 10**20, "kind": "star", "n": 3},
                ],
            }
        )
        assert s.change_iterations == (10**20,)
        assert [s.epoch_index(k) for k in (0, 10**20 - 1, 10**20, 10**30)] == [0, 0, 1, 1]
        trace = run_distributed_nesterov(gen_ridge_instance(3, 4, 2, seed=1), s, max_iter=10)
        assert [r.iter for r in trace.records] == list(range(11))
        assert not trace.aborted


class TestMixing:
    def test_complete_two(self):
        v = mixing_matrix(gen_topology("complete", 2))
        assert np.allclose(v, np.full((2, 2), 0.5))

    def test_doubly_stochastic_and_sparsity(self):
        for kind, n in (("path", 5), ("star", 6), ("cycle", 7), ("complete", 4)):
            t = gen_topology(kind, n)
            v = mixing_matrix(t)
            assert np.max(np.abs(v @ np.ones(n) - 1.0)) <= 1e-12
            assert np.max(np.abs(np.ones(n) @ v - 1.0)) <= 1e-12
            assert np.min(v) >= 0.0
            edge_set = set(t.edges)
            for i in range(n):
                for j in range(i + 1, n):
                    if (i + 1, j + 1) not in edge_set:
                        assert v[i, j] == 0.0

    def test_path_three_values(self):
        v = mixing_matrix(gen_topology("path", 3))
        expected = np.array(
            [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
        )
        assert np.allclose(v, expected, atol=1e-14)

    def test_delta_complete(self):
        s = GraphSchedule(5, ((0, gen_topology("complete", 5)),))
        assert mixing_delta(s, 1) <= 1e-12

    def test_delta_path_three(self):
        # V restricted to the mean-zero subspace has spectrum {0, 2/3}
        s = GraphSchedule(5, ((0, gen_topology("path", 3)),))
        assert abs(mixing_delta(s, 1) - 2.0 / 3.0) < 1e-10

    def test_delta_identical_epochs(self):
        t = gen_topology("cycle", 5)
        single = GraphSchedule(8, ((0, t),))
        multi = GraphSchedule(8, ((0, t), (4, t)))
        assert abs(mixing_delta(single, 1) - mixing_delta(multi, 1)) < 1e-14

    def test_delta_window_two(self):
        s = GraphSchedule(
            12, ((0, gen_topology("path", 4)), (6, gen_topology("star", 4)))
        )
        d1 = mixing_delta(s, 1)
        d2 = mixing_delta(s, 2)
        assert 0.0 <= d2 <= d1 < 1.0

    @given(pooled_schedules(), st.integers(1, 4))
    def test_delta_equals_per_epoch_reference(self, s, b):
        assume(s.horizon >= b)
        # one mixing matrix per epoch and one product per window, no sharing
        vs = [mixing_matrix(t) for _, t in s.epochs]
        avg = np.full((s.n, s.n), 1.0 / s.n)
        want = 0.0
        for k in range(b - 1, s.horizon):
            prod = vs[s.epoch_index(k)]
            for i in range(1, b):
                prod = prod @ vs[s.epoch_index(k - i)]
            diff = prod - avg
            want = max(want, math.sqrt(max(eig_sym(diff.T @ diff).eigenvalues[-1], 0.0)))
        assert mixing_delta(s, b) == want


# Values no numeric, kind or epoch field accepts.
_JUNK = st.one_of(
    st.none(),
    st.text("xyz", max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_BAD_PARAM = {
    "p": st.one_of(_JUNK, st.sampled_from([0.0, -0.5, 1.5])),
    "radius": st.one_of(
        st.none(), st.text("xyz", max_size=3), st.sampled_from([math.nan, -math.inf, 0.0, -1.0])
    ),
}
_CORRUPTIONS = (
    "spec", "horizon", "epochs", "entry", "start", "n", "seed", "kind",
    "params", "param value", "missing", "unknown", "starts", "node count",
)


def _valid_spec():
    return {
        "horizon": 20,
        "epochs": [
            {"start": 0, "kind": "erdos_renyi", "n": 5, "params": {"p": 0.9}, "seed": 1},
            {"start": 10, "kind": "random_geometric", "n": 5, "params": {"radius": 0.9}},
        ],
    }


@st.composite
def malformed_specs(draw):
    """A valid spec with one part replaced by something it does not accept."""
    spec = _valid_spec()
    epochs = spec["epochs"]
    i = draw(st.integers(0, 1))
    e = epochs[i]
    where = draw(st.sampled_from(_CORRUPTIONS))
    if where == "spec":
        return draw(_JUNK)
    if where in ("horizon", "epochs"):
        spec[where] = draw(_JUNK)
    elif where == "entry":
        epochs[i] = draw(_JUNK)
    elif where in ("start", "n", "seed", "kind"):
        e[where] = draw(_JUNK)
    elif where == "params":
        e["params"] = draw(st.one_of(st.text("xyz", max_size=3), st.lists(st.none()), st.integers()))
    elif where == "param value":
        key = next(iter(e["params"]))
        e["params"][key] = draw(_BAD_PARAM[key])
    elif where == "missing":
        del e[draw(st.sampled_from(["start", "kind", "n"]))]
    elif where == "unknown":
        draw(st.sampled_from([spec, e]))["extra"] = 1
    elif where == "starts":
        epochs[1]["start"] = draw(st.sampled_from([0, 20, -3]))
    else:
        e["n"] = 4
    return spec


class TestScheduleSpec:
    @given(malformed_specs())
    def test_malformed_spec_raises_value_error(self, spec):
        assert schedule_from_spec(_valid_spec()).horizon == 20
        with pytest.raises(ValueError):
            schedule_from_spec(spec)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_spec({"horizon": 5, "epochs": [], "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_spec({"horizon": 5, "epochs": [{"start": 0, "kind": "path"}]})

    def test_alternating(self):
        s = alternating_schedule(("star", "cycle"), 6, period=5, horizon=20, seed=2)
        assert [start for start, _ in s.epochs] == [0, 5, 10, 15]
        assert s.epochs[0][1].edges == s.epochs[2][1].edges
        assert s.epochs[1][1].edges == s.epochs[3][1].edges
        assert s.epochs[0][1].edges != s.epochs[1][1].edges


# Finite ints and floats, and the values no number field accepts.
_FINITE = st.one_of(st.integers(-(10**300), 10**300), st.floats(allow_nan=False, allow_infinity=False))
_NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestNumber:
    @given(_FINITE)
    def test_float_fields_take_finite_ints_and_floats(self, value):
        got = _number(value, "x", float)
        assert type(got) is float and got == float(value)

    @given(_FINITE)
    def test_int_fields_take_ints_and_integral_floats(self, value):
        if isinstance(value, int) or value.is_integer():
            got = _number(value, "x")
            assert type(got) is int and got == value
        else:
            with pytest.raises(ValidationError, match="x must be an integer"):
                _number(value, "x")

    @given(_NOT_NUMBERS, st.sampled_from([int, float]))
    def test_everything_else_is_rejected(self, value, kind):
        with pytest.raises(ValidationError, match="^x must be"):
            _number(value, "x", kind)

    @pytest.mark.parametrize("big", [10**400, -(10**400)])
    def test_ints_beyond_the_float_range(self, big):
        assert _number(big, "x") == big
        with pytest.raises(ValidationError, match="x must be a finite number"):
            _number(big, "x", float)


_PATH3 = gen_topology("path", 3)

# Each input check with the exact message it raises.
_BAD_INPUTS = [
    (lambda: Topology(0, ()), "node count must be >= 1"),
    (lambda: Topology(3, ((1, 2), (2, 1))), "duplicate edge (1, 2)"),
    (lambda: Topology(3, ((1, 2),), (1.0, 2.0)), "one weight per edge required"),
    (lambda: Topology(2, ((1, 2),), (math.nan,)), "edge weights must be positive"),
    (lambda: Topology(2, ((1, 2),), (math.inf,)), "edge weights must be finite"),
    (lambda: GraphSchedule(0, ((0, _PATH3),)), "horizon must be >= 1"),
    (lambda: GraphSchedule(5, ()), "schedule needs at least one epoch"),
    (lambda: GraphSchedule(5, ((0, _PATH3),)).epoch_index(-1), "iteration index must be >= 0"),
    (lambda: spectral_info(Topology(2, ())), "graph has no edges"),
    (lambda: mixing_delta(GraphSchedule(5, ((0, _PATH3),)), 0), "window length must be >= 1"),
    (lambda: mixing_delta(GraphSchedule(3, ((0, _PATH3),)), 4), "horizon shorter than the window"),
    (lambda: gen_topology("path", 1), "need at least 2 nodes"),
    (lambda: gen_topology("cycle", 2), "cycle needs at least 3 nodes"),
    (lambda: alternating_schedule(("star", "cycle"), 4, 0, 10), "period must be >= 1"),
    (lambda: Topology(3, ((2, 2),)), "self-loop on node 2"),
    (lambda: Topology(3, ((1, 4),)), "edge (1,4) outside 1..3"),
    (lambda: Topology(3, ((2, 1), (1, 2), (3, 3))), "duplicate edge (1, 2)"),
    (lambda: alternating_schedule(("star",), 4, 2, 10), "kinds and params must be pairs"),
    (lambda: alternating_schedule(("star", "cycle"), 4, 2, 10, params=({},)), "kinds and params must be pairs"),
    (lambda: alternating_schedule(("star", "cycle"), 4, 1.5, 10), "period must be an integer, got 1.5"),
    (lambda: mixing_delta(GraphSchedule(5, ((0, _PATH3),)), 1.5), "window length must be an integer, got 1.5"),
    (lambda: Topology(3, ((1, 2.5), (2, 3))), "edge endpoint must be an integer, got 2.5"),
    (lambda: Topology(3, ((1, 3.9),)), "edge endpoint must be an integer, got 3.9"),
    (lambda: Topology(3, (("1", "2"),)), "edge endpoint must be an integer, got '1'"),
    (lambda: Topology(3, ((True, 2),)), "edge endpoint must be an integer, got True"),
    (lambda: Topology(3.5, ()), "node count must be an integer, got 3.5"),
    (lambda: Topology(True, ()), "node count must be an integer, got True"),
    (lambda: Topology("3", ()), "node count must be an integer, got '3'"),
    (lambda: alternating_schedule(("star", "cycle"), 4, 2, 10.5), "horizon must be an integer, got 10.5"),
    (lambda: alternating_schedule(("star", "cycle"), 4, 2, True), "horizon must be an integer, got True"),
    (lambda: gen_topology("path", "4"), "node count must be an integer, got '4'"),
    (lambda: gen_topology("path", None), "node count must be an integer, got None"),
    (lambda: gen_topology("path", True), "node count must be an integer, got True"),
    (lambda: alternating_schedule(("star", "cycle"), "4", 2, 10), "node count must be an integer, got '4'"),
    (lambda: Topology(3, (1, 2)), "each edge must be a pair of endpoints, got 1"),
    (lambda: Topology(3, ((1, 2, 3),)), "each edge must be a pair of endpoints, got (1, 2, 3)"),
    (lambda: Topology(3, ((1,),)), "each edge must be a pair of endpoints, got (1,)"),
    (lambda: Topology(3, ((1, 2), (2, 3, 1))), "each edge must be a pair of endpoints, got (2, 3, 1)"),
    (lambda: Topology(3, np.array([[1, 2, 3]])), "each edge must be a pair of endpoints, got [1, 2, 3]"),
    (lambda: Topology(3, 5), "edges must be a sequence of pairs, got 5"),
    (lambda: Topology(3, None), "edges must be a sequence of pairs, got None"),
    (lambda: Topology(3, np.array(5)), "edges must be a sequence of pairs, got 5"),
]


def _ids(messages):
    """The messages as test ids; a repeated one gets its count, so earlier ids stay as they are."""
    ids = []
    for i, m in enumerate(messages):
        k = messages[:i].count(m)
        ids.append(f"{m} #{k + 1}" if k else m)
    return ids


class TestInputChecks:
    @pytest.mark.parametrize("call, message", _BAD_INPUTS, ids=_ids([m for _, m in _BAD_INPUTS]))
    def test_bad_input_raises_its_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_integral_floats_are_counts_and_endpoints(self):
        want = Topology(3, ((1, 3), (2, 3)))
        for n, edges in ((3.0, ((1.0, 3.0), (2, 3))), (np.int64(3), np.array([[3, 1], [2, 3]])),
                         (3, np.array([[1.0, 3.0], [3.0, 2.0]]))):
            got = Topology(n, edges)
            assert got == want and type(got.n) is int and got.edges == want.edges
            assert all(type(v) is int for e in got.edges for v in e)
        assert alternating_schedule(("star", "cycle"), 4, 2, 10.0).horizon == 10

    @pytest.mark.parametrize("edges", [np.array([[1.0, 2.5]]), np.array([[True, False]])], ids=["float", "bool"])
    def test_edge_arrays_of_other_dtypes_are_checked_by_endpoint(self, edges):
        with pytest.raises(ValueError, match="^edge endpoint must be an integer, got "):
            Topology(3, edges)

    def test_edgeless_directed_pairs_are_an_empty_pair_array(self):
        pairs = Topology(3, ()).directed_pairs()
        assert pairs.shape == (0, 2) and pairs.dtype == np.asarray([1]).dtype
