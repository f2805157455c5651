"""Eigensolver, PSD square root, consensus projection, Frobenius algebra.

Expected spectra come from independent oracles: hand-solved
characteristic polynomials for the tiny cases, the closed-form path
spectrum 2 - 2 cos(k pi / n), LAPACK as a cross-check on random
matrices, and prescribed spectra Q diag(v) Q^T with repeated eigenvalues.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dvopt.linalg import (
    NotPSDError,
    eig_sym,
    fro_norm,
    frobenius,
    project_consensus_orth,
    sqrt_psd,
)


def path_laplacian(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = -1.0
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


def complete_laplacian(n):
    return n * np.eye(n) - np.ones((n, n))


@st.composite
def prescribed_spectrum(draw, values):
    # Eigenvalues drawn from a small set, so most draws repeat some of them.
    n = draw(st.integers(1, 12))
    v = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * v) @ q.T
    return 0.5 * (m + m.T), v


def assert_valid_spectrum(m, s):
    n = m.shape[0]
    assert np.all(np.diff(s.eigenvalues) >= 0.0)
    assert np.max(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(n))) <= 1e-10
    assert fro_norm(s.reconstruct() - m) <= 1e-10 * fro_norm(m)


class TestEigSym:
    def test_diagonal(self):
        s = eig_sym(np.diag([2.0, 1.0]))
        assert np.allclose(s.eigenvalues, [1.0, 2.0], atol=1e-14)

    def test_two_path(self):
        # det(W - t I) = t^2 - 2t, roots {0, 2}
        s = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_three_path_closed_form(self):
        expected = sorted(2.0 - 2.0 * np.cos(k * np.pi / 3) for k in range(3))
        s = eig_sym(path_laplacian(3))
        assert np.allclose(s.eigenvalues, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 21, 64])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a + a.T
        s = eig_sym(a)
        assert fro_norm(s.reconstruct() - a) <= 1e-10 * fro_norm(a)
        assert np.max(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(n))) <= 1e-10
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)

    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        for n in (3, 10, 40):
            a = rng.standard_normal((n, n))
            a = a + a.T
            ours = eig_sym(a).eigenvalues
            ref = np.sort(np.linalg.eigvalsh(a))
            assert np.max(np.abs(ours - ref)) <= 1e-10 * max(1.0, fro_norm(a))

    def test_deterministic(self):
        a = np.array([[2.0, -1.0, 0.3], [-1.0, 1.5, 0.7], [0.3, 0.7, -0.4]])
        s1 = eig_sym(a)
        s2 = eig_sym(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        s = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(s.eigenvalues, np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(prescribed_spectrum([-2.0, 0.0, 1.0, 3.0]))
    def test_repeated_eigenvalues(self, case):
        m, v = case
        s = eig_sym(m)
        assert_valid_spectrum(m, s)
        assert np.allclose(s.eigenvalues, np.sort(v), rtol=0.0, atol=1e-10 * max(fro_norm(m), 1.0))

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_complete_graph_multiplicity(self, n):
        # spectrum {0, n} with n of multiplicity n - 1; the kernel is the ones vector
        m = complete_laplacian(n)
        s = eig_sym(m)
        assert_valid_spectrum(m, s)
        assert np.allclose(s.eigenvalues, [0.0] + [float(n)] * (n - 1), rtol=0.0, atol=1e-12 * n)
        assert np.allclose(np.abs(s.eigenvectors[:, 0]), 1.0 / np.sqrt(n), rtol=0.0, atol=1e-12)


@st.composite
def symmetric_stacks(draw):
    # k random symmetric n x n matrices, some of them with repeated eigenvalues
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((k, n, n))
    a = a + a.transpose(0, 2, 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a[0] = (q * rng.choice([-1.0, 2.0], n)) @ q.T
    return a


class TestEigSymStack:
    @settings(max_examples=100, deadline=None)
    @given(symmetric_stacks())
    def test_stack_is_each_matrix_alone_byte_for_byte(self, a):
        s = eig_sym(a)
        assert s.eigenvalues.shape == a.shape[:2] and s.eigenvectors.shape == a.shape
        for i, m in enumerate(a):
            alone = eig_sym(m.copy())
            assert s.eigenvalues[i].tobytes() == alone.eigenvalues.tobytes()
            assert s.eigenvectors[i].tobytes() == alone.eigenvectors.tobytes()

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_bad_matrix_is_named_by_its_index(self, index):
        a = np.stack([np.eye(3)] * 5)
        a[index, 0, 1] = np.inf
        with pytest.raises(ValueError, match=rf"^matrix {index} of the stack has non-finite entries$"):
            eig_sym(a)
        a[index, 0, 1] = 1.0
        with pytest.raises(ValueError, match=rf"^matrix {index} of the stack is not symmetric$"):
            eig_sym(a)
        # the first failing matrix is named
        a[4, 1, 2] = 5.0
        with pytest.raises(ValueError, match=rf"^matrix {index} of the stack is not symmetric$"):
            eig_sym(a)

    def test_matrix_messages_name_no_index(self):
        for m, message in (
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix has non-finite entries"),
            (np.array([[1.0, 2.0], [0.0, 1.0]]), "matrix is not symmetric"),
            (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
            (np.zeros(4), "expected a square matrix, got shape (4,)"),
            (np.zeros((2, 2, 3)), "expected a square matrix, got shape (2, 2, 3)"),
            (np.zeros((1, 2, 2, 2)), "expected a square matrix, got shape (1, 2, 2, 2)"),
        ):
            with pytest.raises(ValueError) as info:
                eig_sym(m)
            assert str(info.value) == message


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_two_path(self):
        # spectral mapping 2 -> sqrt(2) on the shared eigenvectors
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expected = (np.sqrt(2.0) / 2.0) * m
        r = sqrt_psd(m)
        assert np.allclose(r, expected, atol=1e-12)
        assert fro_norm(r @ r - m) <= 1e-9 * fro_norm(m)

    def test_zero(self):
        assert np.array_equal(sqrt_psd(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_square_property_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 6, 15):
            b = rng.standard_normal((n, n))
            m = b @ b.T
            r = sqrt_psd(m)
            assert fro_norm(r @ r - m) <= 1e-9 * fro_norm(m)
            assert np.allclose(r, r.T)

    def test_small_negative_clamped(self):
        m = np.diag([1.0, -1e-14])
        r = sqrt_psd(m)
        assert r[1, 1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(prescribed_spectrum([0.0, 1.0, 4.0]))
    def test_square_property_repeated_eigenvalues(self, case):
        m, _ = case
        r = sqrt_psd(m)
        assert fro_norm(r @ r - m) <= 1e-10 * max(fro_norm(m), 1.0)
        assert np.array_equal(r, r.T)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -0.5]))


class TestProjection:
    def test_equal_columns_to_zero(self):
        x = np.outer(np.array([1.0, -2.0]), np.ones(4))
        assert np.allclose(project_consensus_orth(x), 0.0, atol=1e-14)

    def test_zero_mean_row_unchanged(self):
        x = np.array([[1.0, -1.0]])
        assert np.array_equal(project_consensus_orth(x), x)

    def test_subtracts_row_mean(self):
        assert np.allclose(project_consensus_orth(np.array([[2.0, 0.0]])), [[1.0, -1.0]])

    def test_idempotent_and_orthogonal_to_consensus(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 7))
        p = project_consensus_orth(x)
        assert np.allclose(project_consensus_orth(p), p, atol=1e-14)
        consensus = np.outer(rng.standard_normal(3), np.ones(7))
        assert abs(frobenius(p, consensus)) <= 1e-10


class TestFrobenius:
    def test_identity(self):
        assert frobenius(np.eye(2), np.eye(2)) == 2.0

    def test_zero(self):
        assert frobenius(np.ones((2, 3)), np.zeros((2, 3))) == 0.0

    def test_hand_value(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius(x, x) == 30.0  # 1 + 4 + 9 + 16

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius(np.ones((2, 2)), np.ones((3, 2)))

    @given(arrays(float, st.tuples(st.integers(1, 7), st.integers(1, 7))))
    def test_fro_norm_bits_match_sum_of_squares(self, a):
        # C and F order, transposed, reversed and strided views; NaN, inf
        # and overflowing entries included
        views = (a, np.asfortranarray(a), a.T, a[::2, ::-1], a[:, 1::2])
        with np.errstate(over="ignore"):
            for view in views:
                want = float(np.sqrt(np.sum(view**2)))
                got = fro_norm(view)
                assert got == want or (math.isnan(got) and math.isnan(want))

    def test_self_dual_norm_certificate(self):
        # sup over unit-Frobenius X of <X, Y> is attained at X = Y/||Y||
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.standard_normal((4, 6))
            ny = fro_norm(y)
            assert abs(frobenius(y / ny, y) - ny) <= 1e-12 * ny
            x = rng.standard_normal((4, 6))
            x /= fro_norm(x)
            assert frobenius(x, y) <= ny + 1e-12

    def test_operator_norm_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal((3, 5))
            a = rng.standard_normal((5, 4))
            op = np.sqrt(eig_sym(x.T @ x).eigenvalues[-1])
            assert fro_norm(x @ a) <= op * fro_norm(a) + 1e-10
