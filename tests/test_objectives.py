"""Local objectives, conjugate maps, generators, parser, reference solves.

Oracles used here are independent of the implementation under test:
a brute-force grid search for the 1-d logistic conjugate, central finite
differences for gradients, and the ridge normal equations solved
directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dvopt import objectives
from dvopt.cli import ExperimentConfig, execute
from dvopt.graphs import gen_topology, laplacian, theta_bounds, GraphSchedule
from dvopt.linalg import eig_sym, fro_norm, project_consensus_orth, sqrt_psd
from dvopt.objectives import (
    AggregateObjective,
    ParseError,
    QuadraticObjective,
    LogisticObjective,
    SolverError,
    balance_strong_convexity,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
    load_sparse_labeled,
)


def rand_quadratic(rng, d, scale_lo=0.5, scale_hi=3.0):
    b = rng.standard_normal((d, d))
    h = b @ b.T + scale_lo * np.eye(d)
    h *= rng.uniform(1.0, scale_hi)
    return QuadraticObjective(h, rng.standard_normal(d))


class TestConjArgmax:
    def test_quadratic_stationarity(self):
        q = QuadraticObjective.from_offset(np.array([1.0, 0.0]))
        assert np.allclose(q.conj_argmax(np.array([0.0, 2.0])), [1.0, 2.0], atol=1e-14)

    def test_inverse_gradient_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rand_quadratic(rng, 3)
            y0 = rng.standard_normal(3)
            assert np.allclose(q.conj_argmax(q.grad(y0)), y0, atol=1e-9)
        lo = gen_logistic_instance(2, 5, 3, c=0.4, seed=2).locals[0]
        y0 = np.array([0.2, -0.5, 0.1])
        assert np.allclose(lo.conj_argmax(lo.grad(y0)), y0, atol=1e-8)

    def test_logistic_1d_against_grid_search(self):
        sample = np.array([[1.3]])
        label = np.array([1.0])
        ridge, scale = 0.7, 2.0
        obj = LogisticObjective(sample, label, ridge=ridge, scale=scale)
        z = np.array([0.35])

        ys = np.linspace(-10.0, 10.0, 2_000_001)
        vals = z[0] * ys - (np.logaddexp(0.0, -label[0] * sample[0, 0] * ys) / scale
                            + 0.5 * ridge * ys**2)
        y_grid = ys[np.argmax(vals)]
        y_newton = obj.conj_argmax(z)[0]
        assert abs(y_newton - y_grid) < 1e-5
        assert abs(obj.grad(np.array([y_newton]))[0] - z[0]) < 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        agg = gen_logistic_instance(3, 6, 4, c=0.3, seed=9)
        for o in agg.locals:
            z = rng.standard_normal(4)
            y = o.conj_argmax(z)
            assert np.linalg.norm(o.grad(y) - z) <= 1e-10 * (1 + np.linalg.norm(z))

    def test_rejects_nonfinite(self):
        q = QuadraticObjective.from_offset(np.zeros(2))
        with pytest.raises(ValueError):
            q.conj_argmax(np.array([np.inf, 0.0]))

    def test_quadratic_conjugate_closed_form(self):
        # phi = 0.5||y - a||^2 has phi*(z) = z.a + ||z||^2 / 2
        rng = np.random.default_rng(13)
        a = rng.standard_normal(3)
        q = QuadraticObjective.from_offset(a)
        for _ in range(10):
            z = rng.standard_normal(3)
            y = q.conj_argmax(z)
            conj_val = float(z @ y) - q.value(y)
            assert abs(conj_val - (float(z @ a) + 0.5 * float(z @ z))) < 1e-12


class TestGradients:
    def test_gradients_match_finite_differences(self):
        # 52 sample points across both objective families
        rng = np.random.default_rng(21)
        ridge = gen_ridge_instance(2, 4, 3, seed=5)
        logit = gen_logistic_instance(2, 4, 3, c=0.2, seed=5)
        for agg in (ridge, logit):
            for o in agg.locals:
                for _ in range(13):
                    x = rng.standard_normal(3)
                    g = o.grad(x)
                    num = np.zeros(3)
                    for i in range(3):
                        e = np.zeros(3)
                        e[i] = 1e-6
                        num[i] = (o.value(x + e) - o.value(x - e)) / 2e-6
                    denom = max(1.0, np.linalg.norm(g))
                    assert np.linalg.norm(g - num) / denom < 1e-5

    def test_logistic_gradient_at_zero(self):
        agg = gen_logistic_instance(2, 6, 3, c=0.5, seed=3)
        o = agg.locals[1]
        g = o.grad(np.zeros(3))
        num = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            num[i] = (o.value(e) - o.value(-e)) / 2e-6
        assert np.linalg.norm(g - num) < 1e-6


class TestRidgeInstance:
    def test_defaults_and_mu_floor(self):
        n, c = 4, 0.1
        agg = gen_ridge_instance(n, 3, 2, seed=0)
        for o in agg.locals:
            assert o.mu >= c / n - 1e-12

    def test_matches_normal_equations_noiseless(self):
        n, l, m, c = 3, 6, 4, 0.1
        agg = gen_ridge_instance(n, l, m, c=c, noise=0.0, seed=11)
        rng = np.random.default_rng(11)  # replay the documented draw order
        x_ref = rng.standard_normal(m)
        data = rng.standard_normal((n * l, m))
        b = data @ x_ref
        oracle = np.linalg.solve(data.T @ data / (n * l) + c * np.eye(m), data.T @ b / (n * l))
        y_star, _ = centralized_solve(agg, tol=1e-12)
        assert np.linalg.norm(y_star - oracle) < 1e-8

    def test_deterministic(self):
        a = gen_ridge_instance(2, 3, 2, seed=7)
        b = gen_ridge_instance(2, 3, 2, seed=7)
        assert np.array_equal(a.locals[0].quad, b.locals[0].quad)
        assert np.array_equal(a.locals[1].lin, b.locals[1].lin)


class TestLogisticInstance:
    def test_mu_is_ridge_over_n(self):
        n, c = 5, 0.3
        agg = gen_logistic_instance(n, 4, 3, c=c, seed=1)
        for o in agg.locals:
            assert o.mu == pytest.approx(c / n, abs=0.0)

    def test_smoothness_bound(self):
        n, l, c = 3, 5, 0.2
        agg = gen_logistic_instance(n, l, 4, c=c, seed=8)
        for o in agg.locals:
            lam = np.linalg.eigvalsh(o.samples.T @ o.samples)[-1]
            assert o.L <= c / n + lam / (8 * n * l) + 1e-12


QUADRATIC_FIELDS = ("quad", "lin", "const", "mu", "L", "_quad_inv")
LOGISTIC_FIELDS = ("samples", "labels", "ridge", "scale", "mu", "L")


def field_bytes(o, names):
    return [np.asarray(getattr(o, name)).tobytes() for name in names]


class TestBatchedConstructors:
    @pytest.mark.parametrize(
        "n, l, m, seed", [(20, 10, 5, 0), (20, 10, 5, 2), (7, 3, 4, 11), (1, 5, 1, 3), (4, 1, 3, 8)]
    )
    def test_ridge_locals_are_single_quadratics(self, n, l, m, seed):
        c, noise, scale = 0.3, 0.2, n * l
        agg = gen_ridge_instance(n, l, m, c=c, noise=noise, seed=seed)
        rng = np.random.default_rng(seed)  # replay the documented draw order
        x_ref = rng.standard_normal(m)
        data = rng.standard_normal((n * l, m))
        b = data @ x_ref + noise * rng.standard_normal(n * l)
        for i, o in enumerate(agg.locals):
            hi, bi = data[i * l : (i + 1) * l], b[i * l : (i + 1) * l]
            alone = QuadraticObjective(
                hi.T @ hi / scale + (c / n) * np.eye(m), hi.T @ bi / scale, 0.5 * float(bi @ bi) / scale
            )
            assert field_bytes(o, QUADRATIC_FIELDS) == field_bytes(alone, QUADRATIC_FIELDS)

    @pytest.mark.parametrize("n, count, m, seed", [(20, 400, 10, 0), (4, 23, 3, 1), (3, 3, 2, 2)])
    def test_logistic_block_locals_are_single_logistics(self, n, count, m, seed):
        # 23 samples for 4 agents: blocks of 5, the last 3 samples unused
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((count, m))
        labels = rng.choice((-1.0, 1.0), size=count)
        agg = objectives.logistic_blocks(points, labels, n, 0.3)
        l = count // n
        for i, o in enumerate(agg.locals):
            rows = slice(i * l, (i + 1) * l)
            alone = LogisticObjective(points[rows], labels[rows], ridge=0.3 / n, scale=2.0 * n * l)
            assert field_bytes(o, LOGISTIC_FIELDS) == field_bytes(alone, LOGISTIC_FIELDS)

    def test_logistic_blocks_check_labels_once(self):
        points = np.ones((6, 2))
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            objectives.logistic_blocks(points, np.array([1.0, -1.0, 1.0, 0.0, 1.0, 1.0]), 3, 0.1)
        with pytest.raises(ValueError, match="one label per sample required"):
            objectives.logistic_blocks(points[:5], np.ones(6), 3, 0.1)

    def test_one_non_positive_definite_quadratic_rejects_the_batch(self):
        # lower the ridge until exactly the flattest agent's quadratic term
        # has a negative eigenvalue
        n, l, m = 5, 6, 3
        mus = sorted(o.mu for o in gen_ridge_instance(n, l, m, c=0.0, seed=4).locals)
        c = -n * 0.5 * (mus[0] + mus[1])
        with pytest.raises(ValueError, match="quadratic term must be positive definite"):
            gen_ridge_instance(n, l, m, c=c, seed=4)
        quad = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])
        with pytest.raises(ValueError, match="quadratic term must be positive definite"):
            objectives._build_quadratics(quad, np.zeros((3, 2)), np.zeros(3))


class TestParser:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("+1 3:0.5 7:1\n")
        ds = load_sparse_labeled(p)
        assert ds.labels == (1.0,)
        assert ds.samples == ({3: 0.5, 7: 1.0},)
        assert ds.dimension == 7

    def test_label_only_line(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("-1\n")
        ds = load_sparse_labeled(p)
        assert ds.labels == (-1.0,)
        assert ds.samples == ({},)

    def test_zero_one_labels(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 1:2\n1 2:3\n")
        ds = load_sparse_labeled(p)
        assert ds.labels == (-1.0, 1.0)

    @pytest.mark.parametrize(
        "line",
        ["+1 0:1", "+1 3:x", "+1 junk", "2 1:1", "+1 3:1 2:1"],
    )
    def test_malformed_lines(self, tmp_path, line):
        p = tmp_path / "bad.txt"
        p.write_text(line + "\n")
        with pytest.raises(ParseError):
            load_sparse_labeled(p)

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:1\n-1 0:2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_sparse_labeled(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("\n\n")
        with pytest.raises(ParseError):
            load_sparse_labeled(p)

    def test_dense_conversion(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("+1 1:2 3:1\n-1 2:5\n")
        dense, labels = load_sparse_labeled(p).to_dense()
        assert np.array_equal(dense, [[2.0, 0.0, 1.0], [0.0, 5.0, 0.0]])
        assert np.array_equal(labels, [1.0, -1.0])


class TestBalance:
    def test_two_agent_example(self):
        a1 = QuadraticObjective.from_offset(np.zeros(2), scale=1.0)
        a2 = QuadraticObjective.from_offset(np.ones(2), scale=3.0)
        bal = balance_strong_convexity(AggregateObjective((a1, a2)))
        assert [o.mu for o in bal.locals] == [2.0, 2.0]

    def test_identity_when_equal(self):
        agg = AggregateObjective(
            tuple(QuadraticObjective.from_offset(np.full(2, i), 2.0) for i in range(3))
        )
        bal = balance_strong_convexity(agg)
        for o, p in zip(agg.locals, bal.locals):
            assert np.allclose(o.quad, p.quad)

    def test_sum_preserved_pointwise(self):
        rng = np.random.default_rng(17)
        agg = AggregateObjective(tuple(rand_quadratic(rng, 3) for _ in range(4)))
        bal = balance_strong_convexity(agg)
        for _ in range(100):
            y = rng.standard_normal(3)
            assert abs(agg.value_consensus(y) - bal.value_consensus(y)) < 1e-12 * (
                1 + abs(agg.value_consensus(y))
            )

    @given(
        st.integers(0, 2**32 - 1),
        arrays(float, 3, elements=st.floats(-30.0, 30.0)),
    )
    def test_value_consensus_unchanged_at_random_points(self, seed, y):
        # quadratic and logistic locals with unequal strong convexity
        rng = np.random.default_rng(seed)
        logistic = gen_logistic_instance(3, 4, 3, c=rng.uniform(0.05, 1.0), seed=seed)
        locs = logistic.locals[:2] + (logistic.locals[2].shifted(rng.uniform(0.0, 2.0)),)
        locs += tuple(rand_quadratic(rng, 3) for _ in range(rng.integers(0, 3)))
        agg = AggregateObjective(locs)
        before = agg.value_consensus(y)
        after = balance_strong_convexity(agg).value_consensus(y)
        assert abs(after - before) <= 1e-12 * abs(before)

    def test_logistic_balance(self):
        agg = gen_logistic_instance(3, 4, 2, c=0.3, seed=0)
        mixed = AggregateObjective(agg.locals[:2] + (agg.locals[2].shifted(0.5),))
        bal = balance_strong_convexity(mixed)
        mus = [o.mu for o in bal.locals]
        assert max(mus) - min(mus) < 1e-15


class TestCentralizedSolve:
    def test_two_quadratics(self):
        agg = AggregateObjective(
            (
                QuadraticObjective.from_offset(np.array([-1.0])),
                QuadraticObjective.from_offset(np.array([1.0])),
            )
        )
        y, val = centralized_solve(agg)
        assert abs(y[0]) < 1e-12
        assert abs(val - 1.0) < 1e-12

    def test_single_quadratic(self):
        a = np.array([0.3, -0.7])
        y, val = centralized_solve(AggregateObjective((QuadraticObjective.from_offset(a),)))
        assert np.allclose(y, a, atol=1e-12)
        assert abs(val) < 1e-12

    def test_logistic_gradient_norm(self):
        agg = gen_logistic_instance(3, 5, 3, c=0.4, seed=6)
        y, _ = centralized_solve(agg, tol=1e-11)
        g = sum(o.grad(y) for o in agg.locals)
        assert np.linalg.norm(g) <= 1e-11


class TestDualConstants:
    def test_three_path(self):
        agg = AggregateObjective((QuadraticObjective.from_offset(np.zeros(1)),) * 3)
        dc = dual_constants(agg, (9.0, 1.0))
        assert dc.l_f == pytest.approx(3.0)
        assert dc.mu_f == pytest.approx(1.0)
        assert dc.kappa == pytest.approx(3.0)

    def test_two_path(self):
        agg = AggregateObjective((QuadraticObjective.from_offset(np.zeros(1)),) * 2)
        dc = dual_constants(agg, (4.0, 4.0))
        assert dc.l_f == dc.mu_f == pytest.approx(2.0)
        assert dc.kappa == pytest.approx(1.0)

    def test_scaling_in_l_phi(self):
        base = AggregateObjective((QuadraticObjective.from_offset(np.zeros(1), 1.0),) * 2)
        doubled = AggregateObjective(
            (
                QuadraticObjective.from_offset(np.zeros(1), 1.0),
                QuadraticObjective.from_offset(np.zeros(1), 2.0),
            )
        )
        a = dual_constants(base, (4.0, 4.0))
        b = dual_constants(doubled, (4.0, 4.0))
        assert b.mu_f == pytest.approx(a.mu_f / 2.0)
        assert b.kappa == pytest.approx(2.0 * a.kappa)

    def test_disconnected(self):
        agg = AggregateObjective((QuadraticObjective.from_offset(np.zeros(1)),))
        with pytest.raises(ValueError):
            dual_constants(agg, (4.0, 0.0))


class TestDualCurvatureCertificate:
    def test_secant_curvature_within_constants(self):
        # second differences of the dual along consensus-orthogonal
        # directions stay inside [mu_f, L_f] for quadratic aggregates
        rng = np.random.default_rng(23)
        for trial in range(5):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 5))
            agg = AggregateObjective(tuple(rand_quadratic(rng, d) for _ in range(n)))
            topo = gen_topology("erdos_renyi", n, {"p": 0.8}, seed=trial)
            sched = GraphSchedule(1, ((0, topo),))
            dc = dual_constants(agg, theta_bounds(sched))
            sw = sqrt_psd(laplacian(topo))

            def f(x):
                return agg.dual_value(-(x @ sw))

            x0 = rng.standard_normal((d, n))
            t = 0.5
            for _ in range(20):
                direction = project_consensus_orth(rng.standard_normal((d, n)))
                direction /= fro_norm(direction)
                curv = (f(x0 + t * direction) - 2 * f(x0) + f(x0 - t * direction)) / (t * t)
                assert dc.mu_f - 1e-8 <= curv <= dc.l_f + 1e-8


# ---------------------------------------------------------------------------
# Stacked kernels against the per-local methods


def rand_logistic(rng, count, d):
    samples = rng.standard_normal((count, d))
    labels = rng.choice((-1.0, 1.0), size=count)
    return LogisticObjective(
        samples, labels, ridge=rng.uniform(0.05, 1.0), scale=rng.uniform(1.0, 20.0)
    )


def local_value(o, y):
    """phi_i(y) from its defining formula, one local at a time."""
    if o.kind == "quadratic":
        return 0.5 * y @ o.quad @ y - o.lin @ y + o.const
    margins = o.labels * (o.samples @ y)
    return np.sum(np.logaddexp(0.0, -margins)) / o.scale + 0.5 * o.ridge * (y @ y)


def local_grad(o, y):
    if o.kind == "quadratic":
        return o.quad @ y - o.lin
    margins = o.labels * (o.samples @ y)
    sig_neg = np.exp(-np.logaddexp(0.0, margins))  # 1 / (1 + e^margin)
    return o.samples.T @ (-o.labels * sig_neg) / o.scale + o.ridge * y


@st.composite
def aggregates(draw, family):
    """Small aggregates of one family, or quadratics and logistics mixed."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    if family == "ridge":
        return gen_ridge_instance(n, draw(st.integers(1, 5)), d, seed=seed)
    if family == "logistic":
        c = draw(st.floats(0.05, 1.0))
        return gen_logistic_instance(n, draw(st.integers(1, 5)), d, c=c, seed=seed)
    if family == "ragged":
        counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        return AggregateObjective(tuple(rand_logistic(rng, c, d) for c in counts))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return AggregateObjective(
        tuple(rand_logistic(rng, 4, d) if is_logistic else rand_quadratic(rng, d) for is_logistic in kinds)
    )


@st.composite
def aggregate_and_points(draw, family):
    agg = draw(aggregates(family))
    cols = arrays(float, (agg.dim, agg.n), elements=st.floats(-2.0, 2.0))
    return agg, draw(cols)


FAMILIES = ("ridge", "logistic", "ragged", "mixed")


class TestStackedKernels:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_gradient_inverts_conj_argmax(self, family, data):
        agg, z = data.draw(aggregate_and_points(family))
        g = agg.grad_cols(agg.conj_argmax_cols(z))
        for i in range(agg.n):
            assert np.linalg.norm(g[:, i] - z[:, i]) <= 1e-10 * (1 + np.linalg.norm(z[:, i]))

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_column_maps_match_locals(self, family, data):
        agg, y = data.draw(aggregate_and_points(family))
        values = [local_value(o, y[:, i]) for i, o in enumerate(agg.locals)]
        assert agg.value_cols(y) == pytest.approx(sum(values), rel=1e-12, abs=1e-12)
        point = y[:, 0]
        at_point = sum(local_value(o, point) for o in agg.locals)
        assert agg.value_consensus(point) == pytest.approx(at_point, rel=1e-12, abs=1e-12)
        grads = np.column_stack([local_grad(o, y[:, i]) for i, o in enumerate(agg.locals)])
        np.testing.assert_allclose(agg.grad_cols(y), grads, rtol=1e-12, atol=1e-12)
        for i, o in enumerate(agg.locals):
            assert o.value(y[:, i]) == pytest.approx(values[i], rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(o.grad(y[:, i]), grads[:, i], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ("quadratic", "logistic"))
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), count=st.integers(0, 6))
    def test_local_kernels_are_their_aggregates_column(self, kind, seed, d, count):
        rng = np.random.default_rng(seed)
        o = rand_quadratic(rng, d) if kind == "quadratic" else rand_logistic(rng, count, d)
        agg = AggregateObjective((o,))
        y, z = 2.0 * rng.standard_normal((2, d, 1))
        assert o.value(y[:, 0]) == agg.value_cols(y)
        np.testing.assert_array_equal(o.grad(y[:, 0]), agg.grad_cols(y)[:, 0])
        np.testing.assert_array_equal(o.conj_argmax(z[:, 0]), agg.conj_argmax_cols(z)[:, 0])

    def test_mixed_columns_keep_agent_order(self):
        rng = np.random.default_rng(8)
        locs = (rand_quadratic(rng, 3), rand_logistic(rng, 5, 3), rand_quadratic(rng, 3),
                rand_logistic(rng, 2, 3))
        agg = AggregateObjective(locs)
        z = rng.standard_normal((3, 4))
        y = agg.conj_argmax_cols(z)
        for i, o in enumerate(locs):
            assert np.allclose(y[:, i], o.conj_argmax(z[:, i]), atol=1e-9)

    def test_newton_failure_names_agents(self, monkeypatch):
        rng = np.random.default_rng(3)
        locs = (rand_quadratic(rng, 3), rand_logistic(rng, 5, 3), rand_quadratic(rng, 3),
                rand_logistic(rng, 6, 3))
        agg = AggregateObjective(locs)
        monkeypatch.setattr(objectives, "_NEWTON_CAP", 1)
        with pytest.raises(SolverError, match=r"agent 1 \(residual .*agent 3 \(residual"):
            agg.conj_argmax_cols(rng.standard_normal((3, 4)))
        with pytest.raises(SolverError) as info:
            locs[1].conj_argmax(rng.standard_normal(3))
        assert "agent" not in str(info.value)
        assert "residual" in str(info.value)

    def test_unknown_family_rejected(self):
        class Other:
            kind = "other"
            dim = 2

        with pytest.raises(ValueError):
            AggregateObjective((Other(),))


# ---------------------------------------------------------------------------
# Work done by the batched damped Newton


class TestNewtonWork:
    def test_no_point_is_evaluated_twice(self, monkeypatch):
        agg = gen_logistic_instance(8, 6, 4, c=0.1, seed=5)
        rng = np.random.default_rng(2)
        agg.conj_argmax_cols(rng.standard_normal((4, 8)))  # builds the stack and its start
        grad_parts = objectives._LogisticStack.grad_parts
        points = []

        def recording(stack, x, rows=slice(None)):
            points.extend(zip(np.arange(stack.size)[rows].tolist(), (p.tobytes() for p in x)))
            return grad_parts(stack, x, rows)

        monkeypatch.setattr(objectives._LogisticStack, "grad_parts", recording)
        for scale in (1e-3, 0.3, 3.0):
            points.clear()
            agg.conj_argmax_cols(scale * rng.standard_normal((4, 8)))
            assert points
            assert len(set(points)) == len(points)
            assert all(np.frombuffer(p).any() for _, p in points), "x = 0 was evaluated"

    def test_floored_rows_report_fresh_residuals(self, monkeypatch):
        # The residual grows away from zero and the Hessian is -I, so every
        # line search falls through the 1e-12 floor and each row moves to a
        # point no trial evaluated: x <- x + 2^-40 (grad(x) - z) with z = 0.
        def grad(stack, x, rows=slice(None)):
            return (1.0 + 1e12 * np.linalg.norm(x, axis=1, keepdims=True)) * np.ones_like(x)

        def grad_parts(stack, x, rows=slice(None)):
            return grad(stack, x, rows), ()

        def hess(stack, x, rows=slice(None), parts=()):
            return np.broadcast_to(-np.eye(x.shape[1]), (x.shape[0],) + 2 * (x.shape[1],))

        monkeypatch.setattr(objectives._LogisticStack, "grad_parts", grad_parts)
        monkeypatch.setattr(objectives._LogisticStack, "hess", hess)
        monkeypatch.setattr(objectives, "_NEWTON_CAP", 4)
        x = np.zeros((2, 3))
        for _ in range(4):
            x = x + 2.0**-40 * grad(None, x)
        fresh = np.linalg.norm(grad(None, x), axis=1)

        agg = gen_logistic_instance(2, 3, 3, c=0.1, seed=1)
        with pytest.raises(SolverError) as info:
            agg.conj_argmax_cols(np.zeros((3, 2)))
        listed = f"agent 0 (residual {fresh[0]:.3e}), agent 1 (residual {fresh[1]:.3e})"
        assert str(info.value).endswith(listed)

        stack = agg._stacks[0]
        z = np.zeros((2, 3))
        got, failed, norms = objectives._damped_newton(
            stack.grad_parts, stack.hess, z, np.full(2, 1e-10), grad(None, z), hess(None, z)
        )
        assert np.array_equal(got, x)
        assert failed.tolist() == [0, 1]
        assert norms.tobytes() == fresh.tobytes()

    def test_evaluations_per_argmax(self, tmp_path, monkeypatch):
        # Each solve starts from the stack's cached state at zero and reuses
        # the accepted trial's residual: about 5.0 gradient and 4.0 Hessian
        # evaluations per call on this run, against 11.8 and 5.0 when every
        # step evaluated its own residual and Hessian.  Each Hessian is built
        # from the margins its point's gradient computed, so a call makes
        # about 5.0 margin products (one per evaluated point), not 9.0.  Only
        # evaluations made inside a conjugate argmax count: DIGing's
        # gradients and the centralized solve are not Newton work of the
        # argmax.  The count is taken at the family kernel, which the runners
        # call directly.
        counts = {"grad_parts": 0, "hess": 0, "_margins": 0, "argmax": 0}
        inside = [0]
        for name in ("grad_parts", "hess", "_margins"):
            method = getattr(objectives._LogisticStack, name)

            def counted(stack, *args, _method=method, _name=name, **kwargs):
                if inside[0]:
                    counts[_name] += 1
                return _method(stack, *args, **kwargs)

            monkeypatch.setattr(objectives._LogisticStack, name, counted)
        argmax = objectives._LogisticStack.conj_argmax

        def counted_argmax(stack, z):
            counts["argmax"] += 1
            inside[0] += 1
            try:
                return argmax(stack, z)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(objectives._LogisticStack, "conj_argmax", counted_argmax)
        # dvopt run on n=20 logistic agents over one Erdos-Renyi graph, seed 3
        raw = {
            "seed": 3,
            "objective": {"kind": "logistic", "n": 20, "l": 20, "m": 10, "c": 0.1},
            "schedule": {
                "horizon": 200,
                "epochs": [
                    {"start": 0, "kind": "erdos_renyi", "n": 20, "params": {"p": 0.7}, "seed": 3}
                ],
            },
            "algorithms": ["nesterov", "diging"],
            "max_iter": 200,
            "record_every": 1,
            "output_dir": str(tmp_path),
        }
        execute(ExperimentConfig.from_dict(raw))
        assert counts["argmax"] > 200
        assert counts["grad_parts"] <= 5.1 * counts["argmax"]
        assert counts["hess"] <= 4.05 * counts["argmax"]
        assert counts["_margins"] == counts["grad_parts"]
