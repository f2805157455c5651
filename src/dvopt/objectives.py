"""Per-agent objectives, conjugate argmax maps, and instance generation.

Two local objective families are supported:

* quadratic, ``0.5 y'Hy - g'y + c`` with H symmetric positive definite,
  covering ridge regression blocks and hand-built test instances; and
* ridge-regularized logistic loss over a private sample block.

Both are strongly convex and smooth, so the conjugate argmax
``argmax_y <z, y> - phi(y)`` (the map each agent evaluates every
iteration) is single-valued: closed form for quadratics, damped Newton
for the logistic case.

Construction is batched per family too.  ``gen_ridge_instance`` forms
every agent's quadratic, linear and constant terms as stacked matmuls,
and ``logistic_blocks`` every agent's Gram matrix; each family's
constructor then runs its checks once and makes one ``eig_sym`` call for
mu and L (quadratics also one ``inv``).  A single
:class:`QuadraticObjective` or :class:`LogisticObjective` is that
constructor on a batch of one, with the same bits as the generated local.

An :class:`AggregateObjective` evaluates its agents family by family: on
first use it stacks each family's locals (quadratics as ``(n, d, d)``
matrices, logistic samples as zero-padded ``(n, l, m)`` arrays) and then
maps all columns of a family in one batched numpy call.  Values also take
a leading batch axis, one entry per run record (``value_cols_batch``,
``value_consensus_batch``, ``dual_value_batch``), and the per-record
``value_cols``, ``value_consensus`` and ``dual_value`` are batches of
one with the same bits.  One damped
Newton routine, batched over rows with a per-row active mask, serves the
logistic conjugate argmax (of an aggregate, or of one local as a batch
of one) and the centralized reference solve.  Every agent keeps its own
residual tolerance ``1e-10 (1 + ||z_i||)``, and every solve starts from
zero: a logistic stack computes its gradient and Hessian there once, and
each step carries the accepted trial's residual, norm and margins into
the next, so a point's margins serve its gradient and its Hessian and a
solve evaluates each point once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _row_sums, eig_sym

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
    "logistic_blocks",
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


class _Local:
    """Value, gradient and conjugate argmax of one local objective.

    Each runs its family's stacked kernel (``_STACKS[kind]``) on a batch
    of one, so a local and the aggregate's column for it give the same
    bits.
    """

    @cached_property
    def _stack(self):
        return _STACKS[self.kind]((self,), None)

    def value(self, y: np.ndarray) -> float:
        return float(self._stack.value(np.asarray(y, dtype=float).reshape(1, 1, -1))[0])

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self._stack.grad(np.asarray(y, dtype=float).reshape(1, -1))[0]

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if not np.all(np.isfinite(z)):
            raise ValueError("conjugate argmax input must be finite")
        return self._stack.conj_argmax(z[None])[0]


class QuadraticObjective(_Local):
    """phi(y) = 0.5 y'Hy - g'y + c with H symmetric positive definite."""

    kind = "quadratic"

    def __init__(self, quad: np.ndarray, lin: np.ndarray, const: float = 0.0):
        h = np.asarray(quad, dtype=float)
        g = np.asarray(lin, dtype=float).ravel()
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] != g.shape[0]:
            raise ValueError("quadratic term and linear term shapes disagree")
        _build_quadratics(h[None], g[None], np.array([const], dtype=float), [self])

    @classmethod
    def from_offset(cls, a: np.ndarray, scale: float = 1.0) -> "QuadraticObjective":
        """Build 0.5 * scale * ||y - a||^2."""
        a = np.asarray(a, dtype=float).ravel()
        d = a.shape[0]
        return cls(scale * np.eye(d), scale * a, 0.5 * scale * float(a @ a))

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def shifted(self, ridge_shift: float) -> "QuadraticObjective":
        """Copy with (ridge_shift/2)||y||^2 added."""
        d = self.dim
        return QuadraticObjective(self.quad + ridge_shift * np.eye(d), self.lin, self.const)


def _build_quadratics(quad: np.ndarray, lin: np.ndarray, const: np.ndarray, locals_=None) -> list:
    """k quadratic locals from (k, d, d), (k, d) and (k,) stacks.

    The quadratic terms are symmetrized together and take one ``eig_sym``
    (for mu and L) and one ``inv``; each local keeps its slice of the
    stacks.  ``locals_`` are the objects to set up, new ones when None.
    """
    if locals_ is None:
        locals_ = [QuadraticObjective.__new__(QuadraticObjective) for _ in quad]
    quad = quad + quad.transpose(0, 2, 1)
    quad *= 0.5
    eigs = eig_sym(quad).eigenvalues
    if (eigs[:, 0] <= 0).any():
        raise ValueError("quadratic term must be positive definite")
    inv = np.linalg.inv(quad)
    for o, h, g, c, lam, h_inv in zip(locals_, quad, lin, const, eigs, inv):
        o.quad, o.lin, o.const, o._quad_inv = h, g, float(c), h_inv
        o.mu, o.L = float(lam[0]), float(lam[-1])
    return locals_


def _row_norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1)'s own formula for real input, without its wrapper
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _damped_newton(grad, hess, z: np.ndarray, targets: np.ndarray, grad0, hess0):
    """Solve ``grad(x) = z`` row by row by damped Newton started from zero.

    ``grad(x, rows)`` returns the gradient of rows ``rows`` of the batch at
    ``x`` (len(rows), d) and a tuple of per-row ``parts`` (maybe empty),
    from which ``hess(x, rows, parts)`` builds the Hessians at that point.
    ``rows`` is a slice while every row is active (so nothing is copied).
    ``grad0`` (b, d) and ``hess0`` (b, d, d) are every row's gradient and
    Hessian at zero.  Row ``i`` of ``z`` (b, d) is done once its residual
    norm is at most ``targets[i]``.  Each step tries the full Newton step
    on every row; only rows that fail
    ``||grad(x - t step) - z|| <= (1 - 1e-4 t) ||grad(x) - z||`` at t = 1
    backtrack on the residual norm (a value-based test drowns in rounding
    near the solution), ``t`` halving until the test passes or ``t`` drops
    to 1e-12.  ``x`` moves to the accepted trial, whose residual, norm and
    parts serve the next step; only a row whose ``t`` fell through the
    floor is evaluated again where it lands.

    Returns ``(x, failed, residuals)``: the rows still active after
    ``_NEWTON_CAP`` steps and their residual norms (both empty on success).
    """
    b = z.shape[0]

    def take(idx):
        return slice(None) if idx.size == b else idx

    # Every point and residual is C-contiguous, like the row copies the
    # evaluations see when rows drop out, so a row's bits never depend on
    # the layout of ``z``; only the result takes that layout.
    result = np.zeros_like(z)
    z = np.ascontiguousarray(z)
    x = np.zeros_like(z)
    active = np.arange(b)
    res, h, parts = grad0 - z, hess0, ()
    norms = _row_norms(res)
    for _ in range(_NEWTON_CAP):
        keep = ~(norms <= targets[take(active)])
        if not keep.all():
            active, res, norms = active[keep], res[keep], norms[keep]
            if not active.size:
                break
            h = None if h is None else h[keep]
            parts = tuple(p[keep] for p in parts)
        rows = take(active)
        if h is None:
            h = hess(x[rows], rows, parts)
        step = np.linalg.solve(h, res[..., None])[..., 0]
        h = None
        full = x[rows] - step
        g, parts = grad(full, rows)
        start, res = norms, g - z[rows]
        norms = _row_norms(res)
        trying = np.flatnonzero(~(norms <= (1.0 - 1e-4) * start))
        if not trying.size:
            x[rows] = full
            continue
        t = np.ones(active.size)
        t[trying] = 0.5
        while trying.size:
            rows = take(active[trying])
            g, got = grad(x[rows] - t[trying, None] * step[trying], rows)
            res[trying] = g - z[rows]
            norms[trying] = now = _row_norms(res[trying])
            for part, fresh in zip(parts, got):
                part[trying] = fresh
            trying = trying[~(now <= (1.0 - 1e-4 * t[trying]) * start[trying])]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-12]
        x[take(active)] -= t[:, None] * step
        floored = np.flatnonzero(t <= 1e-12)
        if floored.size:
            rows = active[floored]
            g, got = grad(x[rows], rows)
            res[floored] = g - z[rows]
            norms[floored] = _row_norms(res[floored])
            for part, fresh in zip(parts, got):
                part[floored] = fresh
    result[...] = x
    return result, active, norms


class LogisticObjective(_Local):
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
        _build_logistics(a[None], y[None], ridge, scale, [self])

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def shifted(self, ridge_shift: float) -> "LogisticObjective":
        return LogisticObjective(self.samples, self.labels, self.ridge + ridge_shift, self.scale)


def _build_logistics(samples: np.ndarray, labels: np.ndarray, ridge, scale, locals_=None) -> list:
    """k logistic locals from (k, l, m) samples and (k, l) labels.

    The checks run once, and the Gram matrices take one ``eig_sym`` for
    every local's L; each local keeps its slice of the stacks.
    ``locals_`` are the objects to set up, new ones when None.
    """
    if locals_ is None:
        locals_ = [LogisticObjective.__new__(LogisticObjective) for _ in samples]
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if ridge <= 0 or scale <= 0:
        raise ValueError("ridge and scale must be positive")
    ridge, scale = float(ridge), float(scale)
    if samples.size:
        lam_max = eig_sym(samples.transpose(0, 2, 1) @ samples).eigenvalues[:, -1]
    else:
        lam_max = np.zeros(len(samples))
    for o, a, y, lam in zip(locals_, samples, labels, lam_max):
        o.samples, o.labels, o.ridge, o.scale = a, y, ridge, scale
        o.mu = ridge
        o.L = ridge + float(lam) / (4.0 * scale)
    return locals_


# ---------------------------------------------------------------------------
# Stacked per-family kernels.  Each stack holds k locals of one family along
# axis 0 and evaluates all of them in one numpy call; points are the rows
# of a (k, d) array.  Values take a leading batch axis, (R, k, d) points or
# (R, d) consensus points in, one value per entry out.  Batches are
# C-contiguous and every product is a stacked per-slice matmul, so each
# entry runs the BLAS kernel and the pairwise sum a batch of one runs and
# its bits do not depend on the batch.  ``agents`` are the aggregate
# columns the locals occupy, or None for a standalone local.


class _QuadraticStack:
    """Quadratic locals as (k, d, d) H and H^-1 stacks, plus their sums."""

    def __init__(self, locals_, agents: np.ndarray | None):
        self.agents = agents
        self.size = len(locals_)
        self.quad = np.stack([o.quad for o in locals_])
        self.inv = np.stack([o._quad_inv for o in locals_])
        self.lin = np.stack([o.lin for o in locals_])
        self.const = float(sum(o.const for o in locals_))
        self.quad_sum = self.quad.sum(axis=0)
        self.lin_sum = self.lin.sum(axis=0)

    def value(self, y: np.ndarray) -> np.ndarray:
        """Sum of the locals' values for each entry of ``y`` (R, k, d), local i at row i."""
        work = (self.quad @ y[..., None])[..., 0]  # Hy, then scratch for the products
        curv = _row_sums(np.multiply(y, work, out=work))
        return 0.5 * curv - _row_sums(np.multiply(self.lin, y, out=work)) + self.const

    def consensus_value(self, points: np.ndarray) -> np.ndarray:
        """Sum of the locals' values at each row of ``points`` (R, d)."""
        col = points[..., None]
        curv = (0.5 * points)[:, None, :] @ (self.quad_sum @ col)
        return curv[:, 0, 0] - (self.lin_sum @ col)[:, 0] + self.const

    def grad(self, y: np.ndarray) -> np.ndarray:
        return (self.quad @ y[..., None])[..., 0] - self.lin

    def hess(self, y: np.ndarray) -> np.ndarray:
        return self.quad

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        return (self.inv @ (z + self.lin)[..., None])[..., 0]


class _LogisticStack:
    """Logistic locals as (k, l, m) samples and (k, l) labels.

    Locals with fewer than ``l`` samples are padded with zero rows whose
    row weight is 0; the weight (0/1 times 1/scale) multiplies every
    per-sample term, so padding adds nothing to the value, the gradient
    or the Hessian.  Solver errors name the failing locals by ``agents``
    (a standalone local, with ``agents`` None, is not numbered).
    """

    def __init__(self, locals_, agents: np.ndarray | None):
        self.agents = agents
        self.size = len(locals_)
        l = max(o.samples.shape[0] for o in locals_)
        self.samples = np.zeros((self.size, l, locals_[0].dim))
        self.labels = np.zeros((self.size, l))
        self.weight = np.zeros((self.size, l))
        for r, o in enumerate(locals_):
            count = o.samples.shape[0]
            self.samples[r, :count] = o.samples
            self.labels[r, :count] = o.labels
            self.weight[r, :count] = 1.0 / o.scale
        self.ridge = np.array([o.ridge for o in locals_])
        self.ridge_eye = self.ridge[:, None, None] * np.eye(locals_[0].dim)

    def _margins(self, x: np.ndarray, rows) -> np.ndarray:
        return self.labels[rows] * (self.samples[rows] @ x[..., None])[..., 0]

    def _value(self, margins: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
        # margins (R, k, l) and squared norms (R, k): one value per entry
        loss = _row_sums(self.weight * np.logaddexp(0.0, -margins))
        return loss + 0.5 * np.sum(self.ridge * sq_norms, axis=1)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Sum of the locals' values for each entry of ``x`` (R, k, m), local i at row i."""
        return self._value(self._margins(x, slice(None)), np.sum(x * x, axis=-1))

    def consensus_value(self, points: np.ndarray) -> np.ndarray:
        """Sum of the locals' values at each row of ``points`` (R, m)."""
        margins = self.labels * (self.samples @ points[:, None, :, None])[..., 0]
        sq_norms = (points[:, None, :] @ points[..., None])[:, 0]  # (R, 1)
        return self._value(margins, sq_norms)

    # ``rows`` picks the locals still active in a Newton solve.  sigmoid(u)
    # is where(u >= 0, 1, e) / (1 + e), e = exp(-|u|), so exp never
    # overflows; the gradient takes it at -m and the Hessian at m.
    def grad_parts(self, x: np.ndarray, rows=slice(None)):
        """The gradient at ``x`` and its parts (m, e, 1 + e), which ``hess`` takes."""
        m = self._margins(x, rows)
        e = np.exp(-np.abs(m))
        parts = m, e, 1.0 + e
        coeff = -self.labels[rows] * (np.where(m <= 0, 1.0, e) / parts[2]) * self.weight[rows]
        return (coeff[:, None, :] @ self.samples[rows])[:, 0] + self.ridge[rows, None] * x, parts

    def grad(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        return self.grad_parts(x, rows)[0]

    def hess(self, x: np.ndarray, rows=slice(None), parts=()) -> np.ndarray:
        """The Hessian at ``x``, from ``x``'s parts when given."""
        m, e, e1 = parts or self.grad_parts(x, rows)[1]
        sig = np.where(m >= 0, 1.0, e) / e1
        a = self.samples[rows]
        w = sig * (1.0 - sig) * self.weight[rows]
        return (a * w[..., None]).transpose(0, 2, 1) @ a + self.ridge_eye[rows]

    @cached_property
    def at_zero(self) -> tuple[np.ndarray, np.ndarray]:
        """Every local's gradient and Hessian at zero, where each solve starts."""
        zero = np.zeros((self.size, self.samples.shape[2]))
        g, parts = self.grad_parts(zero)
        return g, self.hess(zero, parts=parts)

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        targets = _CONJ_TOL * (1.0 + _row_norms(z))
        x, failed, norms = _damped_newton(self.grad_parts, self.hess, z, targets, *self.at_zero)
        if failed.size:
            if self.agents is None:
                listed = f"residual {norms[0]:.3e}"
            else:
                listed = ", ".join(
                    f"agent {a} (residual {r:.3e})" for a, r in zip(self.agents[failed], norms)
                )
            raise SolverError(
                f"conjugate argmax did not converge in {_NEWTON_CAP} Newton steps: {listed}"
            )
        return x


_STACKS = {"quadratic": _QuadraticStack, "logistic": _LogisticStack}


@dataclass(frozen=True)
class AggregateObjective:
    """Ordered collection of local objectives, one per agent.

    The column maps evaluate each objective family's locals as one stack
    (see ``_stacks``), not agent by agent.
    """

    locals: tuple

    def __post_init__(self):
        if not self.locals:
            raise ValueError("need at least one local objective")
        d = self.locals[0].dim
        if any(o.dim != d for o in self.locals):
            raise ValueError("all locals must share the decision dimension")
        if any(o.kind not in _STACKS for o in self.locals):
            raise ValueError(f"local objective kinds must be among {sorted(_STACKS)}")
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
    def _stacks(self) -> tuple:
        # one stack per family present, built on first use
        kinds = np.array([o.kind for o in self.locals])
        stacks = []
        for kind, stack in _STACKS.items():
            agents = np.flatnonzero(kinds == kind)
            if agents.size:
                stacks.append(stack([self.locals[i] for i in agents], agents))
        return tuple(stacks)

    def _map_cols(self, name: str, y: np.ndarray) -> np.ndarray:
        stacks = self._stacks
        if len(stacks) == 1:
            # one family holds every column in order: skipping the gather and
            # scatter cuts the benchmark's wall_s by 14% on switching_sweep
            # (n=20) and 6% on ridge_run (n=100)
            return getattr(stacks[0], name)(y.T).T
        out = np.empty_like(y)
        for stack in stacks:
            out[:, stack.agents] = getattr(stack, name)(y.T[stack.agents]).T
        return out

    def value_cols(self, y: np.ndarray) -> float:
        """Phi(Y) = sum_i phi_i(y_i) over the columns of Y."""
        return float(self.value_cols_batch(np.asarray(y, dtype=float)[None])[0])

    def value_cols_batch(self, ys: np.ndarray) -> np.ndarray:
        """Phi(Y) of each entry of a (R, d, n) batch."""
        rows = np.asarray(ys, dtype=float).transpose(0, 2, 1)
        stacks = self._stacks
        if len(stacks) == 1:
            # one family holds every column in order, and a run's transposed y
            # block is already C-contiguous: skipping the copy cut ridge_run's
            # peak_rss_mb by 0.1 MB in 10 of 10 benchmark pairs, and its wall_s
            # by 3% in 9 of 10 (BENCH_9_value_copy.json)
            return stacks[0].value(np.ascontiguousarray(rows))
        return sum(stack.value(np.ascontiguousarray(rows[:, stack.agents])) for stack in stacks)

    def value_consensus(self, point: np.ndarray) -> float:
        """sum_i phi_i(y) at a single shared point."""
        point = np.asarray(point, dtype=float).ravel()
        return float(self.value_consensus_batch(point[None])[0])

    def value_consensus_batch(self, points: np.ndarray) -> np.ndarray:
        """sum_i phi_i(y) at each row y of a (R, d) batch."""
        points = np.ascontiguousarray(points, dtype=float)
        return sum(stack.consensus_value(points) for stack in self._stacks)

    def grad_cols(self, y: np.ndarray) -> np.ndarray:
        return self._map_cols("grad", np.asarray(y, dtype=float))

    def conj_argmax_cols(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("conjugate argmax input must be finite")
        return self._map_cols("conj_argmax", z)

    def dual_value(self, z: np.ndarray, y_tilde: np.ndarray | None = None) -> float:
        """sum_i [<z_i, y_i> - phi_i(y_i)] at y_i = conj_argmax(z_i)."""
        z = np.asarray(z, dtype=float)
        if y_tilde is None:
            y_tilde = self.conj_argmax_cols(z)
        return float(self.dual_value_batch(z[None], np.asarray(y_tilde, dtype=float)[None])[0])

    def dual_value_batch(self, zs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The dual value of each entry of (R, d, n) batches of Z and its argmax Y."""
        zs = np.asarray(zs, dtype=float)
        return _row_sums(zs * ys) - self.value_cols_batch(ys)


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
    # Each agent's slice of a stacked matmul runs the BLAS call its own
    # block would (H_i'H_i as one symmetric product), so the terms have
    # the bits of the per-agent formulas in the docstring.
    blocks = data.reshape(n, l, m)
    responses = b.reshape(n, l)
    turned = blocks.transpose(0, 2, 1)
    quad = turned @ blocks
    quad /= scale
    quad += (c / n) * np.eye(m)
    lin = (turned @ responses[..., None])[..., 0] / scale
    const = 0.5 * (responses[:, None, :] @ responses[..., None])[:, 0, 0] / scale
    return AggregateObjective(tuple(_build_quadratics(quad, lin, const)))


def gen_logistic_instance(n: int, l: int, m: int, c: float, seed: int = 0) -> AggregateObjective:
    """Synthetic distributed logistic regression.

    Samples come from a separable two-Gaussian mixture: labels are
    uniform on {-1, +1} and each sample is ``2 * label * u + noise`` for
    a fixed unit direction ``u``, split among the agents by
    :func:`logistic_blocks`.
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
    return logistic_blocks(points, labels, n, c)


def logistic_blocks(points: np.ndarray, labels: np.ndarray, n: int, c: float) -> AggregateObjective:
    """Agent ``i`` gets the ``i``-th of ``n`` equal sample blocks; loss 1/(2 n l), ridge c/n."""
    l = len(labels) // n
    points = np.asarray(points, dtype=float)
    if len(points) < n * l:
        raise ValueError("one label per sample required")
    samples = points[: n * l].reshape(n, l, points.shape[-1])
    signs = np.asarray(labels, dtype=float)[: n * l].reshape(n, l)
    return AggregateObjective(tuple(_build_logistics(samples, signs, c / n, 2.0 * n * l)))


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

    Quadratic aggregates are solved in closed form; otherwise the batched
    damped Newton runs, as a batch of one on the summed gradient and
    Hessian, until the gradient norm drops below ``tol``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if agg.all_quadratic():
        (stack,) = agg._stacks
        y_star = np.linalg.solve(stack.quad_sum, stack.lin_sum)
        return y_star, agg.value_consensus(y_star)

    def total(name, x):
        return sum(
            getattr(stack, name)(np.broadcast_to(x, (stack.size, agg.dim))).sum(axis=0)
            for stack in agg._stacks
        )[None]

    def grad(x, rows):
        return total("grad", x), ()

    def hess(x, rows, parts):
        return total("hess", x)

    zero = np.zeros((1, agg.dim))
    x, failed, norms = _damped_newton(
        grad, hess, zero, np.array([tol]), total("grad", zero), total("hess", zero)
    )
    if failed.size:
        raise SolverError(
            f"centralized solve exceeded its iteration cap (gradient norm {norms[0]:.3e})"
        )
    return x[0], agg.value_consensus(x[0])


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
