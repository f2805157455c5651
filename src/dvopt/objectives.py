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
mu and L.  A single :class:`QuadraticObjective` or
:class:`LogisticObjective` is that constructor on a batch of one, with
the same bits as the generated local.

An :class:`AggregateObjective` holds locals of one family, as every
generator here builds them, so its agents are the rows of one family
stack in order and no column is gathered or scattered.  Logistic locals
also share one sample count.  On first use it stacks the locals
(quadratics as ``(n, d, d)`` matrices, inverted in one ``inv`` call as
the stack is built; logistic samples times their labels as ``(n, l,
m)``) and then maps all columns in one batched
numpy call, the only place a kernel runs: a local is data, evaluated as
a one-agent aggregate.  A stack computes its constants when it is
built; the one thing a logistic stack keeps between calls is its arrays
for the rows it evaluated last.  Values also
take a leading batch axis, one entry per run record
(``value_cols_batch``, ``value_consensus_batch``, ``dual_value_batch``),
and the per-record ``value_cols``, ``value_consensus`` and
``dual_value`` are batches of one with the same bits.  One damped Newton
routine, batched over rows with a per-row active mask, serves the
logistic conjugate argmax of an aggregate and the centralized reference
solve.  Every agent keeps its own
residual tolerance ``1e-10 (1 + ||z_i||)``, and every solve starts from
zero: a logistic stack computes its gradient and Hessian there as it is
built, and each step carries the accepted trial's residual, norm and
margins into the next, so a point's margins serve its gradient and its
Hessian and a solve evaluates each point once.  A step builds the active
rows' Hessians, solves for their Newton steps and evaluates the gradient
at every row's full step; when every row passes, that is all it does.
The active rows' arrays are gathered again only when a row drops out,
and a row whose line search stalls fails at once.
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
    "centralized_solve",
    "dual_constants",
]

_CONJ_TOL = 1e-10
_NEWTON_CAP = 100
_ALL = slice(None)  # every row: one object, so a logistic stack's held rows match it


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
        _build_quadratics(h[None], g[None], np.array([const], dtype=float), [self])

    @classmethod
    def from_offset(cls, a: np.ndarray, scale: float = 1.0) -> "QuadraticObjective":
        """Build 0.5 * scale * ||y - a||^2."""
        a = np.asarray(a, dtype=float).ravel()
        return cls(scale * np.eye(a.shape[0]), scale * a, 0.5 * scale * float(a @ a))

    @property
    def dim(self) -> int:
        return self.lin.shape[0]


def _build_quadratics(quad: np.ndarray, lin: np.ndarray, const: np.ndarray, locals_=None) -> list:
    """k quadratic locals from (k, d, d), (k, d) and (k,) stacks.

    Every term must be finite.  The quadratic terms are symmetrized
    together and take one ``eig_sym`` for mu and L; each
    local keeps its slice of the stacks, and a stack made of them inverts
    the terms when it is built (``_QuadraticStack``).  ``locals_`` are the
    objects to set up, new ones when None.
    """
    if locals_ is None:
        locals_ = [QuadraticObjective.__new__(QuadraticObjective) for _ in quad]
    if not np.isfinite(quad).all():
        raise ValueError("quadratic term must be finite")
    quad = quad + quad.transpose(0, 2, 1)
    quad *= 0.5
    eigs = eig_sym(quad).eigenvalues
    if (eigs[:, 0] <= 0).any():
        raise ValueError("quadratic term must be positive definite")
    if not (np.isfinite(lin).all() and np.isfinite(const).all()):
        raise ValueError("linear and constant terms must be finite")
    for o, h, g, c, lam in zip(locals_, quad, lin, const, eigs):
        o.quad, o.lin, o.const, o.mu, o.L = h, g, float(c), float(lam[0]), float(lam[-1])
    return locals_


def _row_norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a, axis=1)'s own formula for real input, without its wrapper
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _damped_newton(grad, hess, z: np.ndarray, targets: np.ndarray, grad0, hess0):
    """Solve ``grad(x) = z`` row by row by damped Newton started from zero.

    ``grad(x, rows)`` returns the gradient of rows ``rows`` of the batch at
    ``x`` (len(rows), d), as a new array the loop may overwrite, and a
    tuple of per-row ``parts`` (maybe empty), from which ``hess(x, rows,
    parts)`` builds the Hessians at that point.  ``rows`` is ``_ALL``
    while every row is active (so nothing is copied), then one index array
    of the active rows until another row drops out; a line search passes
    its own subsets.  ``grad0`` (b, d) and ``hess0`` (b, d, d) are every
    row's gradient and Hessian at zero.  Row ``i`` of ``z`` (b, d) is done
    once its residual norm is at most ``targets[i]``.

    The loop keeps the active rows' points, residuals, norms, parts,
    targets and ``z`` rows as compact arrays and gathers them again only
    when a row drops out.  A step builds the active rows' Hessians (the
    first uses ``hess0``), solves for their Newton steps and evaluates the
    full step ``x - step`` on every row at once; when every row passes
    ``||grad(x - t step) - z|| <= (1 - 1e-4 t) ||grad(x) - z||`` at t = 1,
    all of them take it and the trial's residual, norm and parts serve the
    next step.  Only rows that fail backtrack on the residual norm (a
    value-based test drowns in rounding near the solution), ``t`` halving
    until the test passes or drops to 1e-12; a row whose ``t`` fell
    through that floor is evaluated again where it lands.  A floored row
    that lands on its own bits would repeat that step until the cap, so it
    fails at once.

    Returns ``(x, failed, residuals)``: the rows that stalled or were still
    active after ``_NEWTON_CAP`` steps, in row order, and their residual
    norms (both empty on success).
    """
    b = z.shape[0]
    # Every point and residual is C-contiguous, like the row copies the
    # evaluations see when rows drop out, so a row's bits never depend on
    # the layout of ``z``; only the result takes that layout.
    result = np.zeros_like(z)
    z = np.ascontiguousarray(z)
    active, rows = np.arange(b), _ALL
    x, z_rows, tol = np.zeros_like(z), z, targets
    res, h, parts = grad0 - z, hess0, ()
    norms = _row_norms(res)
    # ``stalled``: positions to fail at the next step; ``lost``: (rows, norms) failed so far
    stalled, lost = active[:0], []

    def subset(idx):
        # the ``rows`` argument for the active rows at positions ``idx``
        return rows if idx.size == active.size else active[idx]

    for _ in range(_NEWTON_CAP):
        done = norms <= tol
        if stalled.size:
            done[stalled] = True
            lost.append((active[stalled], norms[stalled]))
            stalled = stalled[:0]
        if done.any():
            result[active[done]] = x[done]
            keep = ~done
            active, norms = active[keep], norms[keep]
            if not active.size:
                break
            rows = active
            x, res, tol, z_rows = x[keep], res[keep], tol[keep], z[rows]
            h = None if h is None else h[keep]
            parts = tuple(p[keep] for p in parts)
        if h is None:
            h = hess(x, rows, parts)
        step = np.linalg.solve(h, res[..., None])[..., 0]
        h = None
        full = x - step
        g, parts = grad(full, rows)
        start, res = norms, np.subtract(g, z_rows, out=g)
        norms = _row_norms(res)
        if (norms <= (1.0 - 1e-4) * start).all():
            x = full
            continue
        trying = np.flatnonzero(~(norms <= (1.0 - 1e-4) * start))
        t = np.ones(active.size)
        t[trying] = 0.5
        while trying.size:
            g, got = grad(x[trying] - t[trying, None] * step[trying], subset(trying))
            res[trying] = np.subtract(g, z_rows[trying], out=g)
            norms[trying] = now = _row_norms(res[trying])
            for part, fresh in zip(parts, got):
                part[trying] = fresh
            trying = trying[~(now <= (1.0 - 1e-4 * t[trying]) * start[trying])]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-12]
        floored = np.flatnonzero(t <= 1e-12)
        before = x[floored]
        x -= t[:, None] * step
        if floored.size:
            landed = x[floored]
            g, got = grad(landed, subset(floored))
            res[floored] = np.subtract(g, z_rows[floored], out=g)
            norms[floored] = _row_norms(res[floored])
            for part, fresh in zip(parts, got):
                part[floored] = fresh
            stalled = floored[(landed.view(np.int64) == before.view(np.int64)).all(axis=1)]
    else:
        result[rows] = x
    if lost:
        lost.append((active, norms))
        failed, residuals = np.zeros(b, dtype=bool), np.empty(b)
        for agents, at in lost:
            failed[agents], residuals[agents] = True, at
        active = np.flatnonzero(failed)
        norms = residuals[active]
    return result, active, norms


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
        _build_logistics(a[None], y[None], ridge, scale, [self])

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _build_logistics(samples: np.ndarray, labels: np.ndarray, ridge, scale, locals_=None) -> list:
    """k logistic locals from (k, l, m) samples and (k, l) labels.

    The checks run once (labels, ridge and scale, then finite samples),
    and the Gram matrices take one ``eig_sym`` for
    every local's L; each local keeps its slice of the stacks.
    ``locals_`` are the objects to set up, new ones when None.
    """
    if locals_ is None:
        locals_ = [LogisticObjective.__new__(LogisticObjective) for _ in samples]
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (ridge > 0 and scale > 0):  # NaN fails too
        raise ValueError("ridge and scale must be positive")
    ridge, scale = float(ridge), float(scale)
    if math.inf in (ridge, scale):
        raise ValueError("ridge and scale must be finite")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    gram = samples.transpose(0, 2, 1) @ samples  # zero for zero-sample locals
    lam_max = eig_sym(gram).eigenvalues[:, -1] if samples.shape[2] else np.zeros(len(samples))
    for o, a, y, lam in zip(locals_, samples, labels, lam_max):
        o.samples, o.labels, o.ridge, o.scale = a, y, ridge, scale
        o.mu, o.L = ridge, ridge + float(lam) / (4.0 * scale)
    return locals_


# ---------------------------------------------------------------------------
# Stacked per-family kernels.  Each stack holds k locals of one family along
# axis 0 and evaluates all of them in one numpy call; points are the rows
# of a (k, d) array.  Values take a leading batch axis, (R, k, d) points or
# (R, d) consensus points in, one value per entry out.  Batches are
# C-contiguous and every product is a stacked per-slice matmul, so each
# entry runs the BLAS kernel and the pairwise sum a batch of one runs and
# its bits do not depend on the batch.


class _QuadraticStack:
    """Quadratic locals as (k, d, d) H and H^-1 stacks, plus their sums."""

    def __init__(self, locals_):
        self.quad = np.stack([o.quad for o in locals_])
        self.inv = np.linalg.inv(self.quad)
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

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        return (self.inv @ (z + self.lin)[..., None])[..., 0]


class _LogisticStack:
    """Logistic locals of one sample count as (k, l, m) signed samples ``labels * samples``.

    A margin ``label * <sample, x>`` is then one product with the signed
    sample.  A factor of -1 is exact, so values, gradients and Hessians
    keep the bits of the label products; only a zero margin may change
    sign, and nothing reads that sign.  Each local's 1/scale is a (k, 1)
    weight that broadcasts over its samples.  Row ``i`` is agent ``i`` of
    the aggregate that built the stack, so a solver error names the
    failing rows as agents.

    In a Newton step, ``hess`` builds the active rows' Hessians from the
    parts their gradients returned, and ``grad_parts`` evaluates the full
    step: one margin product, the elementwise passes written into arrays
    the evaluation made, and one product with the samples.  The rows'
    samples, weights, ridge terms and ridge diagonals are gathered by
    ``_take`` when the index array of the active rows changes, that is
    once per drop, not on every evaluation; the last rows' arrays are held
    until other rows are evaluated.
    """

    def __init__(self, locals_):
        self.size = len(locals_)
        labels = np.stack([o.labels for o in locals_])
        self.samples = labels[..., None] * np.stack([o.samples for o in locals_])
        self.weight = 1.0 / np.array([[o.scale] for o in locals_])
        self.ridge = np.array([o.ridge for o in locals_])
        self.ridge_eye = self.ridge[:, None, None] * np.eye(locals_[0].dim)
        self._held = None, ()
        # every local's gradient and Hessian at zero, where each solve starts
        zero = np.zeros((self.size, locals_[0].dim))
        g, parts = self.grad_parts(zero)
        self.at_zero = g, self.hess(zero, parts=parts)

    def _take(self, rows):
        """The samples, weights, ridge terms and ridge diagonals of ``rows``.

        A Newton solve passes one index array until a row drops out and
        never changes it, so the arrays of the last ``rows`` are kept and
        each drop gathers them once.
        """
        held = self._held
        if held[0] is not rows:
            held = rows, (self.samples[rows], self.weight[rows], self.ridge[rows], self.ridge_eye[rows])
            self._held = held
        return held[1]

    def _margins(self, x: np.ndarray, rows) -> np.ndarray:
        return (self._take(rows)[0] @ x[..., None])[..., 0]

    def _value(self, margins: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
        # margins (R, k, l) and squared norms (R, k): one value per entry
        loss = _row_sums(self.weight * np.logaddexp(0.0, -margins))
        return loss + 0.5 * np.sum(self.ridge * sq_norms, axis=1)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Sum of the locals' values for each entry of ``x`` (R, k, m), local i at row i."""
        return self._value(self._margins(x, _ALL), np.sum(x * x, axis=-1))

    def consensus_value(self, points: np.ndarray) -> np.ndarray:
        """Sum of the locals' values at each row of ``points`` (R, m)."""
        margins = (self.samples @ points[:, None, :, None])[..., 0]
        sq_norms = (points[:, None, :] @ points[..., None])[:, 0]  # (R, 1)
        return self._value(margins, sq_norms)

    # ``rows`` picks the locals still active in a Newton solve.  sigmoid(u)
    # is where(u >= 0, 1, e) / (1 + e), e = exp(-|u|), so exp never
    # overflows; the gradient takes it at -m and the Hessian at m.  Each
    # elementwise pass writes into an array the evaluation made.
    def grad_parts(self, x: np.ndarray, rows=_ALL):
        """The gradient at ``x`` and its parts (m, e, 1 + e), which ``hess`` takes.

        The gradient is ``ridge x - (sigmoid(-m) weight) @ samples``: the
        sign of the loss term is one subtraction, whose bits are those of
        adding the negated term, since negation is exact.
        """
        a, w, r, _ = self._take(rows)
        m = self._margins(x, rows)
        e = np.abs(m)
        np.exp(np.negative(e, out=e), out=e)
        e1 = e + 1.0
        coeff = np.where(m <= 0, 1.0, e)
        coeff /= e1
        coeff *= w
        loss = (coeff[:, None, :] @ a)[:, 0]
        return np.subtract(r[:, None] * x, loss, out=loss), (m, e, e1)

    def grad(self, x: np.ndarray, rows=_ALL) -> np.ndarray:
        return self.grad_parts(x, rows)[0]

    def hess(self, x: np.ndarray, rows=_ALL, parts=()) -> np.ndarray:
        """The Hessian at ``x``, from ``x``'s parts when given."""
        m, e, e1 = parts or self.grad_parts(x, rows)[1]
        a, w, _, ridge_eye = self._take(rows)
        sig = np.where(m >= 0, 1.0, e)
        sig /= e1
        curv = 1.0 - sig
        curv *= sig
        curv *= w
        h = (a * curv[..., None]).transpose(0, 2, 1) @ a
        h += ridge_eye
        return h

    def conj_argmax(self, z: np.ndarray) -> np.ndarray:
        targets = _CONJ_TOL * (1.0 + _row_norms(z))
        x, failed, norms = _damped_newton(self.grad_parts, self.hess, z, targets, *self.at_zero)
        if failed.size:
            listed = ", ".join(f"agent {a} (residual {r:.3e})" for a, r in zip(failed, norms))
            raise SolverError(
                f"conjugate argmax did not converge in {_NEWTON_CAP} Newton steps: {listed}"
            )
        return x


_STACKS = {"quadratic": _QuadraticStack, "logistic": _LogisticStack}


@dataclass(frozen=True)
class AggregateObjective:
    """Ordered collection of local objectives of one family, one per agent.

    The column maps evaluate the locals as one family stack (``_stack``),
    not agent by agent.  Every generator here builds one family, logistic
    locals with one sample count, and agent ``i`` is then the stack's row
    ``i``: no column is gathered or scattered, and a failed Newton row
    names its agent.
    """

    locals: tuple

    def __post_init__(self):
        if not self.locals:
            raise ValueError("need at least one local objective")
        d = self.locals[0].dim
        if any(o.dim != d for o in self.locals):
            raise ValueError("all locals must share the decision dimension")
        kinds = {o.kind for o in self.locals}
        if not kinds <= _STACKS.keys():
            raise ValueError(f"local objective kinds must be among {sorted(_STACKS)}")
        if len(kinds) > 1:
            raise ValueError(f"all locals must share one objective kind, got {sorted(kinds)}")
        counts = {o.samples.shape[0] for o in self.locals} if kinds == {"logistic"} else ()
        if len(counts) > 1:
            raise ValueError(f"all logistic locals must share one sample count, got {sorted(counts)}")
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
        return self.locals[0].kind == "quadratic"

    @cached_property
    def _stack(self):
        # built on first use; agent i is row i
        return _STACKS[self.locals[0].kind](self.locals)

    def value_cols(self, y: np.ndarray) -> float:
        """Phi(Y) = sum_i phi_i(y_i) over the columns of Y."""
        return float(self.value_cols_batch(np.asarray(y, dtype=float)[None])[0])

    def value_cols_batch(self, ys: np.ndarray) -> np.ndarray:
        """Phi(Y) of each entry of a (R, d, n) batch."""
        rows = np.asarray(ys, dtype=float).transpose(0, 2, 1)
        # a run's transposed y block is already C-contiguous, so this copies nothing
        return self._stack.value(np.ascontiguousarray(rows))

    def value_consensus(self, point: np.ndarray) -> float:
        """sum_i phi_i(y) at a single shared point."""
        return float(self.value_consensus_batch(np.asarray(point, dtype=float).reshape(1, -1))[0])

    def value_consensus_batch(self, points: np.ndarray) -> np.ndarray:
        """sum_i phi_i(y) at each row y of a (R, d) batch."""
        return self._stack.consensus_value(np.ascontiguousarray(points, dtype=float))

    def grad_cols(self, y: np.ndarray) -> np.ndarray:
        return self._stack.grad(np.asarray(y, dtype=float).T).T

    def conj_argmax_cols(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("conjugate argmax input must be finite")
        return self._stack.conj_argmax(z.T).T

    def dual_value(self, z: np.ndarray) -> float:
        """sum_i [<z_i, y_i> - phi_i(y_i)] at y_i = conj_argmax(z_i)."""
        z = np.asarray(z, dtype=float)
        return float(self.dual_value_batch(z[None], self.conj_argmax_cols(z)[None])[0])

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
    if not math.isfinite(c):
        raise ValueError("ridge coefficient must be finite")
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
    if not c > 0:
        raise ValueError("ridge coefficient must be positive")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(m)
    direction /= np.linalg.norm(direction)
    labels = rng.choice((-1.0, 1.0), size=n * l)
    points = 2.0 * labels[:, None] * direction[None, :] + rng.standard_normal((n * l, m))
    return logistic_blocks(points, labels, n, c)


def logistic_blocks(points: np.ndarray, labels: np.ndarray, n: int, c: float) -> AggregateObjective:
    """Agent ``i`` gets the ``i``-th of ``n`` equal sample blocks; loss 1/(2 n l), ridge c/n."""
    if not 1 <= n <= len(labels):
        raise ValueError(f"cannot split {len(labels)} samples among {n} agents")
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
                if not math.isfinite(val):
                    raise ParseError(f"line {lineno}: non-finite value in pair {tok!r}")
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
# Reference solves


def centralized_solve(agg: AggregateObjective, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Reference minimizer and value of ``sum_i phi_i(y)`` over one point.

    Quadratic aggregates are solved in closed form; otherwise the batched
    damped Newton runs, as a batch of one on the summed gradient and
    Hessian, until the gradient norm drops below ``tol``.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if tol == math.inf:
        raise ValueError("tolerance must be finite")
    stack = agg._stack
    if agg.all_quadratic():
        y_star = np.linalg.solve(stack.quad_sum, stack.lin_sum)
        return y_star, agg.value_consensus(y_star)
    shape = (agg.n, agg.dim)

    def grad(x, rows=None):
        return stack.grad(np.broadcast_to(x, shape)).sum(axis=0)[None], ()

    def hess(x, rows=None, parts=()):
        return stack.hess(np.broadcast_to(x, shape)).sum(axis=0)[None]

    zero = np.zeros((1, agg.dim))
    x, failed, norms = _damped_newton(grad, hess, zero, np.array([tol]), grad(zero)[0], hess(zero))
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
