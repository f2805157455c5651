"""Dense symmetric linear algebra used throughout the package.

Matrices are plain numpy arrays: an (n, n) symmetric matrix for graph
operators, a (d, n) array for agent states (one column per agent).  The
eigensolver is LAPACK's symmetric ``eigh`` (via numpy) behind input
checks, so its outputs are byte-identical for identical inputs on the
same machine and BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPSDError",
    "Spectrum",
    "eig_sym",
    "sqrt_psd",
    "pinv_sqrt_psd",
    "project_consensus_orth",
    "fro_norm",
]

_SYM_CHECK_TOL = 1e-10
_ZERO_EIG_REL_TOL = 1e-9


class NotPSDError(ValueError):
    """Raised when a matrix expected to be positive semidefinite is not."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors, one column per eigenvalue, in the same
        order as ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return Q diag(lambda) Q^T."""
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm of an array.

    The sum of squares is numpy's ``add.reduce``, so the bits equal
    ``np.sqrt(np.sum(a**2))``; a NaN entry gives NaN and an infinite or
    overflowing one gives inf.
    """
    a = np.asarray(a, dtype=float)
    return math.sqrt((a * a).sum())


def project_consensus_orth(x: np.ndarray) -> np.ndarray:
    """Remove from each row its mean across agents.

    The result is orthogonal (in the Frobenius inner product) to every
    matrix with identical columns, and the map is idempotent.
    """
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=1, keepdims=True)


def eig_sym(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a dense symmetric real matrix, or of a stack.

    ``m`` is one (n, n) matrix or a (k, n, n) stack of them.  Each must be
    finite and symmetric to ``1e-10 * max(||M||_F, 1)``; the error of a
    stack names the first failing matrix by its index.  The matrices are
    symmetrized and handed to LAPACK ``eigh`` in one call, and a stack's
    spectrum holds (k, n) eigenvalues and (k, n, n) eigenvectors.  Each
    matrix's norms are sums over its own contiguous entries and ``eigh``
    runs the same routine on each matrix, so a matrix gives the same bits
    alone as in any stack.  Eigenvalues come back in ascending order,
    byte-identical for identical inputs on the same machine and BLAS.
    """
    a = np.asarray(m, dtype=float)
    stacked = a.ndim == 3
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = a if stacked else a[None]

    def reject(bad, what):
        if bad.any():
            index = f" {int(np.argmax(bad))} of the stack" if stacked else ""
            raise ValueError(f"matrix{index} {what}")

    reject(~np.isfinite(a).all(axis=(1, 2)), "has non-finite entries")
    turned = a.transpose(0, 2, 1)
    norms = np.sqrt(_row_sums(a * a))
    # one scratch stack, squared and then halved in place, serves the
    # symmetry check and the symmetrized matrices: a large stack's set-up
    # holds one temporary of its size at a time
    work = a - turned
    asym = np.sqrt(_row_sums(np.multiply(work, work, out=work)))
    reject(asym > _SYM_CHECK_TOL * np.maximum(norms, 1.0), "is not symmetric")
    np.add(a, turned, out=work)
    eigenvalues, eigenvectors = np.linalg.eigh(np.multiply(work, 0.5, out=work))
    if stacked:
        return Spectrum(eigenvalues, eigenvectors)
    return Spectrum(eigenvalues[0], eigenvectors[0])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each entry of a C-contiguous batch.

    Every entry is one contiguous row, so numpy's pairwise sum runs over
    it exactly as over the entry alone (and as ``fro_norm``'s sum runs
    over a C-contiguous array): a batch of one and a block give the same
    bits.
    """
    return a.reshape(len(a), -1).sum(axis=1)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues below ``-1e-10 * ||M||_F`` raise :class:`NotPSDError`;
    small negative eigenvalues within that tolerance are clamped to zero
    before taking the root.
    """
    spec = eig_sym(m)
    norm = fro_norm(m)
    tol = _SYM_CHECK_TOL * max(norm, 1.0)
    if spec.eigenvalues[0] < -tol:
        raise NotPSDError(
            f"matrix has eigenvalue {spec.eigenvalues[0]:.3e} below -{tol:.3e}"
        )
    # Rounding-level eigenvalues are zeroed outright: the square root would
    # otherwise amplify them to sqrt(eps) and leak out of the kernel.
    vals = np.where(np.abs(spec.eigenvalues) <= tol, 0.0, spec.eigenvalues)
    q = spec.eigenvectors
    root = (q * np.sqrt(vals)) @ q.T
    return 0.5 * (root + root.T)


def pinv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of ``sqrt_psd(m)``, treating eigenvalues at or below
    1e-9 times the largest as zero.
    """
    spec = eig_sym(m)
    lam = spec.eigenvalues
    positive = lam > _ZERO_EIG_REL_TOL * lam[-1]
    inv_sqrt = np.where(positive, 1.0 / np.sqrt(np.clip(lam, 1e-300, None)), 0.0)
    return (spec.eigenvectors * inv_sqrt) @ spec.eigenvectors.T
