"""Per-agent objectives, conjugate argmax maps, and instance generation.

Two local objective families are supported:

* quadratic, ``0.5 y'Hy - g'y + c`` with H symmetric positive definite,
  covering ridge regression blocks and hand-built test instances; and
* ridge-regularized logistic loss over a private sample block.

Both are strongly convex and smooth, so the conjugate argmax
``argmax_y <z, y> - phi(y)`` (the map each agent evaluates every
iteration) is single-valued: closed form for quadratics, damped Newton
for the logistic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import eig_sym

__all__ = [
    "ParseError",
    "SolverError",
    "QuadraticObjective",
    "LogisticObjective",
    "AggregateObjective",
    "Dataset",
    "DualConstants",
    "gen_ridge_instance",
    "gen_logistic_instance",
    "load_sparse_labeled",
    "balance_strong_convexity",
    "centralized_solve",
    "dual_constants",
]

_CONJ_TOL = 1e-10
_NEWTON_CAP = 100


class ParseError(ValueError):
    """Malformed sparse labeled-data file."""


class SolverError(RuntimeError):
    """An inner iterative solver failed to reach its tolerance."""


class QuadraticObjective:
    """phi(y) = 0.5 y'Hy - g'y + c with H symmetric positive definite."""

    kind = "quadratic"

    def __init__(self, quad: np.ndarray, lin: np.ndarray, const: float = 0.0):
        h = np.asarray(quad, dtype=float)
        g = np.asarray(lin, dtype=float).ravel()
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] != g.shape[0]:
            raise ValueError("quadratic term and linear term shapes disagree")
        self.quad = 0.5 * (h + h.T)
        self.lin = g
        self.const = float(const)
        eigs = eig_sym(self.quad).eigenvalues
        if eigs[0] <= 0:
            raise ValueError("quadratic term must be positive definite")
        self.mu = float(eigs[0])
        self.L = float(eigs[-1])
        self._quad_inv = np.linalg.inv(self.quad)

    @classmethod
    def from_offset(cls, a: np.ndarray, scale: float = 1.0) -> "QuadraticObjective":
        """Build 0.5 * scale * ||y - a||^2."""
        a = np.asarray(a, dtype=float).ravel()
        d = a.shape[0]
        return cls(scale * np.eye(d), scale * a, 0.5 * scale * float(a @ a))

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def value(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float).ravel()
        return float(0.5 * y @ (self.quad @ y) - self.lin @ y + self.const)

    def grad(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        return self.quad @ y - self.lin

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if not np.all(np.isfinite(z)):
            raise ValueError("conjugate argmax input must be finite")
        return self._quad_inv @ (z + self.lin)

    def shifted(self, ridge_shift: float) -> "QuadraticObjective":
        """Copy with (ridge_shift/2)||y||^2 added."""
        d = self.dim
        return QuadraticObjective(self.quad + ridge_shift * np.eye(d), self.lin, self.const)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class LogisticObjective:
    """Ridge-regularized logistic loss over one agent's samples.

    phi(x) = (1/scale) * sum_j log(1 + exp(-labels_j * <samples_j, x>))
             + (ridge/2) ||x||^2
    """

    kind = "logistic"

    def __init__(self, samples: np.ndarray, labels: np.ndarray, ridge: float, scale: float):
        a = np.atleast_2d(np.asarray(samples, dtype=float))
        y = np.asarray(labels, dtype=float).ravel()
        if a.shape[0] != y.shape[0]:
            raise ValueError("one label per sample required")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if ridge <= 0 or scale <= 0:
            raise ValueError("ridge and scale must be positive")
        self.samples = a
        self.labels = y
        self.ridge = float(ridge)
        self.scale = float(scale)
        gram = a.T @ a
        lam_max = eig_sym(gram).eigenvalues[-1] if a.size else 0.0
        self.mu = self.ridge
        self.L = self.ridge + float(lam_max) / (4.0 * self.scale)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).ravel()
        margins = self.labels * (self.samples @ x)
        loss = np.sum(np.logaddexp(0.0, -margins)) / self.scale
        return float(loss + 0.5 * self.ridge * (x @ x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        margins = self.labels * (self.samples @ x)
        coeff = -self.labels * _sigmoid(-margins)
        return self.samples.T @ coeff / self.scale + self.ridge * x

    def _hessian(self, x: np.ndarray) -> np.ndarray:
        margins = self.labels * (self.samples @ x)
        sig = _sigmoid(margins)
        weights = sig * (1.0 - sig) / self.scale
        return (self.samples * weights[:, None]).T @ self.samples + self.ridge * np.eye(self.dim)

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if not np.all(np.isfinite(z)):
            raise ValueError("conjugate argmax input must be finite")
        target = _CONJ_TOL * (1.0 + float(np.linalg.norm(z)))
        x = np.zeros(self.dim)
        for _ in range(_NEWTON_CAP):
            residual = self.grad(x) - z
            res_norm = float(np.linalg.norm(residual))
            if res_norm <= target:
                return x
            step = np.linalg.solve(self._hessian(x), residual)
            # backtrack on the residual norm; the full Newton step wins near
            # the solution, where a value-based test drowns in rounding
            t = 1.0
            while t > 1e-12:
                x_try = x - t * step
                if np.linalg.norm(self.grad(x_try) - z) <= (1.0 - 1e-4 * t) * res_norm:
                    break
                t *= 0.5
            x = x - t * step
        residual = float(np.linalg.norm(self.grad(x) - z))
        raise SolverError(
            f"conjugate argmax did not converge in {_NEWTON_CAP} Newton steps "
            f"(residual {residual:.3e})"
        )

    def shifted(self, ridge_shift: float) -> "LogisticObjective":
        return LogisticObjective(self.samples, self.labels, self.ridge + ridge_shift, self.scale)


@dataclass(frozen=True)
class AggregateObjective:
    """Ordered collection of local objectives, one per agent."""

    locals: tuple

    def __post_init__(self):
        if not self.locals:
            raise ValueError("need at least one local objective")
        d = self.locals[0].dim
        if any(o.dim != d for o in self.locals):
            raise ValueError("all locals must share the decision dimension")
        object.__setattr__(self, "locals", tuple(self.locals))

    @property
    def n(self) -> int:
        return len(self.locals)

    @property
    def dim(self) -> int:
        return self.locals[0].dim

    @property
    def mu_phi(self) -> float:
        return min(o.mu for o in self.locals)

    @property
    def l_phi(self) -> float:
        return max(o.L for o in self.locals)

    @property
    def mu_bar(self) -> float:
        return sum(o.mu for o in self.locals) / self.n

    @property
    def kappa_bar(self) -> float:
        return sum(o.L / o.mu for o in self.locals) / self.n

    def all_quadratic(self) -> bool:
        return all(o.kind == "quadratic" for o in self.locals)

    @cached_property
    def _quad_stack(self):
        # (quad, inv, lin, const) stacked across agents; None when any
        # local is not quadratic.  Lets the per-iteration maps run as one
        # batched contraction instead of a per-agent Python loop.
        if not self.all_quadratic():
            return None
        quad = np.stack([o.quad for o in self.locals])
        inv = np.stack([o._quad_inv for o in self.locals])
        lin = np.column_stack([o.lin for o in self.locals])
        const = sum(o.const for o in self.locals)
        return quad, inv, lin, const

    def value_cols(self, y: np.ndarray) -> float:
        """Phi(Y) = sum_i phi_i(y_i) over the columns of Y."""
        y = np.asarray(y, dtype=float)
        stack = self._quad_stack
        if stack is not None:
            quad, _, lin, const = stack
            return float(
                0.5 * np.einsum("ik,kij,jk->", y, quad, y) - np.sum(lin * y) + const
            )
        return sum(o.value(y[:, i]) for i, o in enumerate(self.locals))

    def value_consensus(self, point: np.ndarray) -> float:
        """sum_i phi_i(y) at a single shared point."""
        return sum(o.value(point) for o in self.locals)

    def grad_cols(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        stack = self._quad_stack
        if stack is not None:
            quad, _, lin, _ = stack
            return np.einsum("kij,jk->ik", quad, y) - lin
        return np.column_stack([o.grad(y[:, i]) for i, o in enumerate(self.locals)])

    def conj_argmax_cols(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        stack = self._quad_stack
        if stack is not None:
            if not np.all(np.isfinite(z)):
                raise ValueError("conjugate argmax input must be finite")
            _, inv, lin, _ = stack
            return np.einsum("kij,jk->ik", inv, z + lin)
        return np.column_stack([o.conj_argmax(z[:, i]) for i, o in enumerate(self.locals)])

    def dual_value(self, z: np.ndarray, y_tilde: np.ndarray | None = None) -> float:
        """sum_i [<z_i, y_i> - phi_i(y_i)] at y_i = conj_argmax(z_i)."""
        z = np.asarray(z, dtype=float)
        if y_tilde is None:
            y_tilde = self.conj_argmax_cols(z)
        return float(np.sum(z * y_tilde)) - self.value_cols(y_tilde)


@dataclass(frozen=True)
class DualConstants:
    """Strong convexity / smoothness of the dual over a schedule."""

    mu_f: float
    l_f: float
    kappa: float


@dataclass(frozen=True)
class Dataset:
    """Sparse labeled samples: one index->value map per sample."""

    samples: tuple
    labels: tuple
    dimension: int

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.zeros((len(self.samples), self.dimension))
        for row, feats in enumerate(self.samples):
            for idx, val in feats.items():
                a[row, idx - 1] = val
        return a, np.asarray(self.labels, dtype=float)


# ---------------------------------------------------------------------------
# Instance generation


def gen_ridge_instance(
    n: int,
    l: int,
    m: int,
    c: float = 0.1,
    noise: float = 0.1,
    seed: int = 0,
) -> AggregateObjective:
    """Synthetic distributed ridge regression.

    Draws (in this order, from ``default_rng(seed)``): a ground-truth
    vector ``x_ref`` of dimension ``m``, a standard normal data matrix of
    shape (n*l, m), and observation noise with standard deviation
    ``noise``; responses are ``data @ x_ref + noise``.  Agent ``i`` owns
    rows ``i*l .. (i+1)*l`` and the local objective

        (1/(2 n l)) ||b_i - H_i x||^2 + (c/(2 n)) ||x||^2.
    """
    if min(n, l, m) < 1:
        raise ValueError("counts must be >= 1")
    rng = np.random.default_rng(seed)
    x_ref = rng.standard_normal(m)
    data = rng.standard_normal((n * l, m))
    b = data @ x_ref + noise * rng.standard_normal(n * l)
    scale = n * l
    locals_ = []
    for i in range(n):
        hi = data[i * l : (i + 1) * l]
        bi = b[i * l : (i + 1) * l]
        quad = hi.T @ hi / scale + (c / n) * np.eye(m)
        lin = hi.T @ bi / scale
        const = 0.5 * float(bi @ bi) / scale
        locals_.append(QuadraticObjective(quad, lin, const))
    return AggregateObjective(tuple(locals_))


def gen_logistic_instance(n: int, l: int, m: int, c: float, seed: int = 0) -> AggregateObjective:
    """Synthetic distributed logistic regression.

    Samples come from a separable two-Gaussian mixture: labels are
    uniform on {-1, +1} and each sample is ``2 * label * u + noise`` for
    a fixed unit direction ``u``.  Agent ``i`` receives ``l`` consecutive
    samples with loss scaled by 1/(2 n l) and ridge c/n.
    """
    if min(n, l, m) < 1:
        raise ValueError("counts must be >= 1")
    if c <= 0:
        raise ValueError("ridge coefficient must be positive")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(m)
    direction /= np.linalg.norm(direction)
    labels = rng.choice((-1.0, 1.0), size=n * l)
    points = 2.0 * labels[:, None] * direction[None, :] + rng.standard_normal((n * l, m))
    locals_ = tuple(
        LogisticObjective(
            points[i * l : (i + 1) * l],
            labels[i * l : (i + 1) * l],
            ridge=c / n,
            scale=2.0 * n * l,
        )
        for i in range(n)
    )
    return AggregateObjective(locals_)


def load_sparse_labeled(path) -> Dataset:
    """Parse a sparse labeled text file.

    Each nonempty line is ``label idx:val idx:val ...`` with indices
    ascending and >= 1.  Labels may be -1/+1 or 0/1 (0 maps to -1).
    """
    samples = []
    labels = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: label {tokens[0]!r} is not numeric") from None
            if label not in (-1.0, 0.0, 1.0):
                raise ParseError(f"line {lineno}: label must be -1, 0 or +1, got {label}")
            feats: dict[int, float] = {}
            prev_idx = 0
            for tok in tokens[1:]:
                if ":" not in tok:
                    raise ParseError(f"line {lineno}: malformed pair {tok!r}")
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: malformed pair {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"line {lineno}: feature index must be >= 1, got {idx}")
                if idx <= prev_idx:
                    raise ParseError(f"line {lineno}: feature indices must ascend")
                prev_idx = idx
                feats[idx] = val
                max_index = max(max_index, idx)
            samples.append(feats)
            labels.append(-1.0 if label == 0.0 else label)
    if not samples:
        raise ParseError("file contains no samples")
    return Dataset(tuple(samples), tuple(labels), max_index)


# ---------------------------------------------------------------------------
# Transformations and reference solves


def balance_strong_convexity(agg: AggregateObjective) -> AggregateObjective:
    """Even out strong convexity by shifting ridge mass between agents.

    Each local gains ``(mu_bar - mu_i)/2 * ||y||^2`` where ``mu_bar`` is
    the mean strong-convexity constant; the shifts sum to zero, so the
    aggregate objective is unchanged pointwise while every local ends up
    with constant ``mu_bar``.
    """
    mu_bar = agg.mu_bar
    shifted = tuple(o.shifted(mu_bar - o.mu) for o in agg.locals)
    return AggregateObjective(shifted)


def centralized_solve(agg: AggregateObjective, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Reference minimizer and value of ``sum_i phi_i(y)`` over one point.

    Quadratic aggregates are solved in closed form; otherwise damped
    Newton runs until the gradient norm drops below ``tol``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if agg.all_quadratic():
        quad = sum(o.quad for o in agg.locals)
        lin = sum(o.lin for o in agg.locals)
        y_star = np.linalg.solve(quad, lin)
        return y_star, agg.value_consensus(y_star)

    def total_grad(y):
        return sum(o.grad(y) for o in agg.locals)

    def total_hess(y):
        h = np.zeros((agg.dim, agg.dim))
        for o in agg.locals:
            if o.kind == "quadratic":
                h += o.quad
            else:
                h += o._hessian(y)
        return h

    y = np.zeros(agg.dim)
    for _ in range(_NEWTON_CAP):
        g = total_grad(y)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= tol:
            return y, agg.value_consensus(y)
        step = np.linalg.solve(total_hess(y), g)
        t = 1.0
        while t > 1e-12:
            y_try = y - t * step
            if np.linalg.norm(total_grad(y_try)) <= (1.0 - 1e-4 * t) * g_norm:
                break
            t *= 0.5
        y = y - t * step
    raise SolverError("centralized solve exceeded its iteration cap")


def dual_constants(agg: AggregateObjective, theta: tuple[float, float]) -> DualConstants:
    """Dual strong convexity, smoothness, and condition number.

    With schedule-wide ``theta = (theta_max, theta_min)``:
    ``mu_f = sqrt(theta_min)/L_Phi``, ``L_f = sqrt(theta_max)/mu_Phi``.
    """
    theta_max, theta_min = float(theta[0]), float(theta[1])
    if theta_min <= 0:
        raise ValueError("theta_min <= 0: schedule contains a disconnected graph")
    mu_f = math.sqrt(theta_min) / agg.l_phi
    l_f = math.sqrt(theta_max) / agg.mu_phi
    return DualConstants(mu_f=mu_f, l_f=l_f, kappa=l_f / mu_f)
