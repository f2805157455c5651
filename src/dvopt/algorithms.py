"""Iterative methods over a graph schedule.

All distributed runners keep one d-vector of state per agent (columns of
a (d, n) array), exchange conjugate-argmax outputs only along the edges
of the current epoch, and are fully deterministic for a fixed objective
and schedule.

* :func:`run_distributed_nesterov` - momentum-accelerated dual ascent:
  each agent computes ``y_i = argmax <z_i, y> - phi_i(y)``, swaps it with
  its neighbors, takes a Laplacian-weighted step of size 1/L, and applies
  a heavy-ball extrapolation with coefficient
  ``(sqrt(kappa)-1)/(sqrt(kappa)+1)``.
* :func:`run_dual_gradient` - the same dual step without momentum.
* :func:`run_diging` - primal gradient tracking over mixing matrices
  ``I - W/n`` (baseline).
* :func:`run_xspace_reference` - centralized matrix-space run of the
  same dynamics using explicit Laplacian square roots, for verifying the
  convergence bounds; not message-passing.

The three message-passing runners share one loop, which owns validation,
the epoch of each iteration, the divergence check, the message log and
the records; each method supplies its per-topology operator, built once
per distinct topology, and its step.  The divergence check is one pass
over the watched state, before every step and on the final state: its
Frobenius norm, which is NaN or inf whenever an entry is, must stay at
or below 1e12.  Every runner's ``keep_state`` (default True) decides
whether records keep arrays (``z``, ``z_tilde`` and ``y_tilde``, or
DIGing's ``x``) or only scalars; the metrics read only the scalars.
Records are evaluated in blocks: the loop copies each recorded state
into a block of up to 16 records and evaluates the whole block's dual
values, consensus distances and aggregate values at the agent average
in one pass, with the bits a record-by-record evaluation gives; kept
arrays are views into a fresh copy per block.  Step sizes come from the
schedule's spectra, computed once per distinct topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphSchedule, _epoch_of_iteration, laplacian, mixing_matrix
from .linalg import fro_norm, pinv_sqrt_psd, project_consensus_orth, sqrt_psd
from .objectives import AggregateObjective, centralized_solve, dual_constants
from .theory import _diging_j

__all__ = [
    "MessageLog",
    "TraceRecord",
    "RunTrace",
    "NesterovState",
    "GDState",
    "DIGingState",
    "XSpaceTrace",
    "run_distributed_nesterov",
    "run_dual_gradient",
    "run_diging",
    "run_xspace_reference",
    "solve_dual_min_norm",
    "default_diging_stepsize",
]

_KAPPA_DEGENERATE_TOL = 1e-12
_DIVERGENCE_LIMIT = 1e12
# Records evaluated per pass.  On ridge n=100 (16 KB per state array;
# Xeon, OpenBLAS, one thread) a record's evaluation took 59 us alone and
# 38 us in blocks of 8, and `dvopt run` took 3-4% less time with blocks of
# 16 than of 8, for 0.25 MB more peak memory in block scratch arrays.
_BLOCK = 16


@dataclass
class MessageLog:
    """Directed (sender, receiver) pairs exchanged at each iteration."""

    per_iteration: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.per_iteration)


@dataclass(frozen=True)
class TraceRecord:
    """State snapshot at the start of iteration ``iter``.

    ``primal_value`` is the aggregate objective at the agent average of
    the primal candidates.  The abort record keeps None there and in
    every array field, and lean runs (``keep_state=False``) keep no
    arrays at all.
    """

    iter: int
    epoch: int
    dual_value: float
    consensus_dist: float
    primal_value: float | None
    message_count: int
    z: np.ndarray | None
    z_tilde: np.ndarray | None
    y_tilde: np.ndarray | None


@dataclass(frozen=True)
class NesterovState:
    z: np.ndarray
    z_tilde: np.ndarray
    y_tilde: np.ndarray
    iter: int


@dataclass(frozen=True)
class GDState:
    z: np.ndarray
    iter: int


@dataclass(frozen=True)
class DIGingState:
    """Final primal copies ``x``, gradient tracker ``u`` and step of a DIGing run."""

    x: np.ndarray
    u: np.ndarray
    stepsize: float
    iter: int


@dataclass
class RunTrace:
    """Per-iteration records, the message log and the final state of one run."""

    records: list
    message_log: MessageLog
    final_state: object
    aborted: bool = False
    momentum_degenerate: bool = False


def _consensus_dists(block: np.ndarray, agent_axis: int) -> np.ndarray:
    """Frobenius distance of each entry of a block from its agent average.

    Entries are (d, n) arrays with ``agent_axis`` 2 or, stored as their
    (n, d) transposes, with ``agent_axis`` 1.  The block is C-contiguous
    and each entry is stored in its recorded array's memory order, so the
    mean and the sum of squares run in the order they would run on that
    array alone and the bits do not depend on the block.  The block is
    overwritten with the squared deviations.
    """
    block -= block.mean(axis=agent_axis, keepdims=True)
    return np.sqrt(np.square(block, out=block).reshape(len(block), -1).sum(axis=1))


def _finite(a: np.ndarray) -> bool:
    # A NaN or infinite entry makes the sum of squares NaN or inf, and so
    # does a finite one whose square overflows; the comparison is then
    # False, so no separate isfinite pass is needed.  The watched states
    # are C-contiguous, so ravel is a view and the dot one pass.
    r = a.ravel()
    return math.sqrt(np.dot(r, r)) <= _DIVERGENCE_LIMIT


def _momentum(kappa: float) -> float:
    """Heavy-ball coefficient (sqrt(kappa)-1)/(sqrt(kappa)+1), 0 when kappa is 1."""
    if kappa < 1.0 + _KAPPA_DEGENERATE_TOL:
        return 0.0
    return (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)


def _xspace_grad(agg, sw, x):
    """Gradient of the matrix-space dual ``Phi*(-X sqrt(W))`` at x."""
    return -(agg.conj_argmax_cols(-(x @ sw)) @ sw)


def _checked_max_iter(agg, schedule, max_iter) -> int:
    max_iter = schedule.horizon if max_iter is None else int(max_iter)
    if not (1 <= max_iter <= schedule.horizon):
        raise ValueError("max_iter must be in 1..horizon")
    if agg.n != schedule.n:
        raise ValueError("agent count of objective and schedule disagree")
    return max_iter


def _drive(agg, schedule, max_iter, record_every, start) -> RunTrace:
    """The iteration loop shared by the message-passing runners.

    ``start()`` builds the method once the arguments are valid.  Its
    ``operator(topology)``, a (matrix, message pairs) pair, is built once
    per distinct topology; ``step(matrix, record)`` advances one iteration
    and, when recording, returns the pre-step state arrays, which
    ``look()`` gives at the current state; ``watched`` is the state the
    divergence check reads, before every step and on the final state;
    the run aborts exactly when its last record is the abort record.
    Recorded states are copied into a block of up to ``_BLOCK`` records,
    one array per state array allocated once per run, and
    ``evaluate(rows)`` turns the filled rows into record fields in one
    pass (dual value, consensus distance, primal value, then the arrays
    records keep, copied out; it may overwrite the rows): when the block
    is full, before an abort record and after the final record.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    max_iter = _checked_max_iter(agg, schedule, max_iter)
    method = start()
    ops = [method.operator(t) for t in schedule.distinct_topologies]
    by_epoch = [ops[j] for j in schedule.topology_index]
    records: list[TraceRecord] = []
    # a run without abort records every record_every-th iteration and the final state
    size = min(_BLOCK, -(-max_iter // record_every) + 1)
    block: list[tuple] = []  # (iter, epoch, message count) of the records in ``rows``
    rows: list[np.ndarray] = []

    def keep(k, e, count, state):
        if not rows:
            rows.extend(np.empty((size, *a.shape)) for a in state)
        for buf, a in zip(rows, state):
            buf[len(block)] = a
        block.append((k, e, count))
        if len(block) == size:
            flush()

    def flush():
        if block:
            fields = method.evaluate([buf[: len(block)] for buf in rows])
            records.extend(
                TraceRecord(k, e, dual, dist, value, count, *arrays)
                for (k, e, count), (dual, dist, value, *arrays) in zip(block, fields)
            )
            block.clear()

    step = method.step
    epochs = _epoch_of_iteration(schedule, max_iter)
    # the final state, at k = max_iter, keeps the last iteration's epoch
    for k, e in enumerate(epochs + epochs[-1:]):
        if not _finite(method.watched):
            flush()
            records.append(TraceRecord(k, e, method.abort_value, math.inf, None, 0, None, None, None))
            break
        if k == max_iter:
            keep(k, e, 0, method.look())
            flush()
            break
        matrix, pairs = by_epoch[e]
        state = step(matrix, k % record_every == 0)
        if state is not None:
            keep(k, e, pairs.shape[0], state)
    return RunTrace(
        records=records,
        # iterations 0..k-1 ran: the pairs of their epochs, shared per topology
        message_log=MessageLog([by_epoch[e][1] for e in epochs[:k]]),
        final_state=method.final_state(k),
        aborted=records[-1].primal_value is None,
        momentum_degenerate=method.degenerate,
    )


def run_distributed_nesterov(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    record_every: int = 1,
    keep_state: bool = True,
) -> RunTrace:
    """Accelerated dual method over the schedule, started from zero.

    Per iteration k with epoch Laplacian W:
    ``Y = conj_argmax(Z)`` columnwise, ``Zt_next = Z - (1/L) Y W``,
    ``Z_next = (1+beta) Zt_next - beta Zt``.  When the dual condition
    number is 1 (up to 1e-12) the momentum coefficient degenerates and
    the run falls back to plain gradient steps with a trace flag.  With
    ``keep_state=False`` records keep no arrays: ``z``, ``z_tilde`` and
    ``y_tilde`` are None.  The final state is the same either way; an
    aborted run's ``y_tilde`` is all NaN.
    """
    return _drive(
        agg, schedule, max_iter, record_every,
        lambda: _DualMethod(agg, schedule, accelerated=True, keep_state=keep_state),
    )


def run_dual_gradient(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    record_every: int = 1,
    keep_state: bool = True,
) -> RunTrace:
    """Plain dual gradient descent with step 2/(L+mu), started from zero.

    ``keep_state`` works as in :func:`run_distributed_nesterov`.
    """
    return _drive(
        agg, schedule, max_iter, record_every,
        lambda: _DualMethod(agg, schedule, accelerated=False, keep_state=keep_state),
    )


class _DualMethod:
    """Dual state Z, Zt and the (step, beta) of Nesterov or dual GD."""

    abort_value = math.inf

    def __init__(self, agg, schedule, accelerated, keep_state):
        dc = dual_constants(agg, schedule.theta)
        if accelerated:
            self.step_size = 1.0 / dc.l_f
            self.beta = _momentum(dc.kappa)
        else:
            self.step_size = 2.0 / (dc.l_f + dc.mu_f)
            self.beta = 0.0
        self.degenerate = accelerated and dc.kappa < 1.0 + _KAPPA_DEGENERATE_TOL
        self.accelerated = accelerated
        self.keep_state = keep_state
        self.agg = agg
        self.z = np.zeros((agg.dim, agg.n))
        self.zt = np.zeros((agg.dim, agg.n))
        self.y_transposed = None  # set by the first recorded argmax
        self.y_final = None  # the final state's argmax, set by look()

    @property
    def watched(self):
        return self.z

    @staticmethod
    def operator(topo):
        return laplacian(topo), topo.directed_pairs()

    def _state(self, y):
        # A quadratic argmax comes out in Fortran order, fixed by the
        # aggregate.  The block then keeps y transposed, a plain copy in y's
        # own memory order, which the value and consensus reductions need.
        if self.y_transposed is None:
            self.y_transposed = not y.flags.c_contiguous
        y = y.T if self.y_transposed else y
        return (self.z, y, self.zt) if self.keep_state else (self.z, y)

    # The driver checks z before every step and look(), and _finite is False
    # for any NaN or inf, so both call the family kernels without
    # conj_argmax_cols' second finite pass.
    def step(self, w, record):
        y = self.agg._map_cols("conj_argmax", self.z)
        state = self._state(y) if record else None
        zt_next = self.z - self.step_size * (y @ w)
        self.z = (1.0 + self.beta) * zt_next - self.beta * self.zt
        self.zt = zt_next
        return state

    def look(self):
        self.y_final = self.agg._map_cols("conj_argmax", self.z)
        return self._state(self.y_final)

    def evaluate(self, rows):
        zs, ys, *zts = rows
        cols = ys.transpose(0, 2, 1) if self.y_transposed else ys
        duals = self.agg.dual_value_batch(zs, cols).tolist()
        # The mean runs on a C-contiguous block as on each record alone: a
        # logistic block already is one, a transposed quadratic one is copied
        # (kept records need the copy anyway, as _consensus_dists overwrites ys)
        y_tildes = cols.copy() if zts or self.y_transposed else cols
        values = self.agg.value_consensus_batch(y_tildes.mean(axis=2)).tolist()
        dists = _consensus_dists(ys, 1 if self.y_transposed else 2).tolist()
        if zts:
            return zip(duals, dists, values, zs.copy(), zts[0].copy(), y_tildes)
        none = [None] * len(ys)
        return zip(duals, dists, values, none, none, none)

    def final_state(self, final_iter):
        if self.accelerated:
            # an aborted run ends before look(), with no argmax of its final z
            y = np.full_like(self.z, np.nan) if self.y_final is None else self.y_final
            return NesterovState(z=self.z, z_tilde=self.zt, y_tilde=y, iter=final_iter)
        return GDState(z=self.z, iter=final_iter)


def default_diging_stepsize(agg: AggregateObjective) -> float:
    """Step 1.5/(mu_bar (J+1)) with J = 3 sqrt(kbar) B^2 (1 + 4 sqrt(n kbar)).

    B = 1 always: every epoch of a :class:`GraphSchedule` is connected.
    """
    return 1.5 / (agg.mu_bar * (_diging_j(agg.kappa_bar, agg.n, 1) + 1.0))


def run_diging(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    stepsize: float | None = None,
    max_iter: int | None = None,
    record_every: int = 1,
    keep_state: bool = True,
) -> RunTrace:
    """Gradient tracking baseline over mixing matrices I - W/n.

    ``x`` holds the primal copies and ``u`` tracks the average gradient:
    ``x_next = x V' - alpha u``, ``u_next = u V' + grad(x_next) - grad(x)``
    with ``u_0 = grad(x_0)``.  Each iteration mixes both x and u, so two
    messages cross every directed edge.  Records keep ``x`` as
    ``y_tilde``; with ``keep_state=False`` they keep None.
    """
    return _drive(
        agg, schedule, max_iter, record_every, lambda: _DIGingMethod(agg, stepsize, keep_state)
    )


class _DIGingMethod:
    """Primal copies x, gradient tracker u and the step alpha of DIGing."""

    abort_value = math.nan
    degenerate = False

    def __init__(self, agg, stepsize, keep_state):
        self.alpha = default_diging_stepsize(agg) if stepsize is None else float(stepsize)
        if self.alpha <= 0:
            raise ValueError("stepsize must be positive")
        self.keep_state = keep_state
        self.agg = agg
        self.x = np.zeros((agg.dim, agg.n))
        self.g = agg.grad_cols(self.x)
        self.u = self.g.copy()

    @property
    def watched(self):
        return self.x

    @staticmethod
    def operator(topo):
        # one round for x, one for u: the pairs twice
        return mixing_matrix(topo).T, np.vstack([topo.directed_pairs()] * 2)

    def look(self):
        return (self.x,)

    def step(self, vt, record):
        state = self.look() if record else None
        x_next = self.x @ vt - self.alpha * self.u
        g_next = self.agg.grad_cols(x_next)
        self.u = self.u @ vt + g_next - self.g
        self.x, self.g = x_next, g_next
        return state

    def evaluate(self, rows):
        (xs,) = rows
        # the block is C-contiguous, so the mean runs as on each record alone
        values = self.agg.value_consensus_batch(xs.mean(axis=2)).tolist()
        kept = xs.copy() if self.keep_state else [None] * len(xs)
        dists = _consensus_dists(xs, 2).tolist()  # x is always in C order
        return ((math.nan, dist, value, None, None, x) for dist, value, x in zip(dists, values, kept))

    def final_state(self, final_iter):
        return DIGingState(x=self.x, u=self.u, stepsize=self.alpha, iter=final_iter)


# ---------------------------------------------------------------------------
# Matrix-space reference run


@dataclass
class XSpaceTrace:
    """Centralized matrix-space trajectory with bound-verification data.

    ``xs[k]`` is the extrapolated point where gradients are queried,
    ``ys[k]`` the gradient-step iterate, and ``zs[k]`` the auxiliary
    sequence ``z_{k+1} = x_{k+1}/tau - (1-tau)/tau * y_{k+1}`` used by the
    potential diagnostics.  ``x_star`` is the minimum-norm dual solution
    and ``radius = ||X_0 - x_star||_F``.
    """

    method: str
    xs: list
    ys: list
    zs: list
    epoch_of: list
    x_star: np.ndarray
    radius: float
    mu_f: float
    l_f: float
    kappa: float
    agg: AggregateObjective
    sqrt_ws: list
    minimizer_residuals: list

    def f_value(self, epoch: int, x: np.ndarray) -> float:
        """Dual function of the given epoch evaluated at x."""
        return self.agg.dual_value(-(x @ self.sqrt_ws[epoch]))

    def grad(self, epoch: int, x: np.ndarray) -> np.ndarray:
        return _xspace_grad(self.agg, self.sqrt_ws[epoch], x)

    def residuals(self, f_star: float) -> np.ndarray:
        """f_k(y_k) - f_star for every recorded iteration."""
        return np.array(
            [self.f_value(self.epoch_of[k], self.ys[k]) - f_star for k in range(len(self.ys))]
        )


def solve_dual_min_norm(
    agg: AggregateObjective, schedule: GraphSchedule, y_star: np.ndarray | None = None
) -> np.ndarray:
    """Minimum-norm minimizer of the epoch-0 dual function, in closed form.

    ``X`` minimizes ``f(X) = Phi*(-X sqrt(W))`` exactly when every agent's
    conjugate argmax is the centralized minimizer ``y*``, that is when
    ``X sqrt(W) = -G`` with ``G = [grad phi_i(y*)]``.  The columns of ``G``
    sum to zero, so the minimum-norm solution is ``X* = -G sqrt(W)^+``,
    projected onto the consensus-orthogonal subspace to remove rounding.
    ``y_star`` is the centralized minimizer, solved for when omitted.
    """
    if y_star is None:
        y_star, _ = centralized_solve(agg)
    g = agg.grad_cols(np.repeat(y_star[:, None], agg.n, axis=1))
    return project_consensus_orth(-(g @ pinv_sqrt_psd(laplacian(schedule.epochs[0][1]))))


def run_xspace_reference(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    method: str = "nesterov",
) -> XSpaceTrace:
    """Centralized matrix-space run used to verify bounds and potentials.

    ``method="nesterov"`` runs ``y_{k+1} = x_k - grad f_k(x_k)/L`` with
    heavy-ball extrapolation; ``method="gd"`` takes plain steps of size
    2/(L+mu).  The trace keeps every iterate, the closed-form minimum-norm
    solution of the epoch-0 dual, and its gradient norm under every epoch's
    dual function (zero when all epochs share the minimizer).  The lists
    hold the iterates, not copies, so a ``gd`` run's three lists share
    their arrays.
    """
    if method not in ("nesterov", "gd"):
        raise ValueError("method must be 'nesterov' or 'gd'")
    max_iter = _checked_max_iter(agg, schedule, max_iter)

    dc = dual_constants(agg, schedule.theta)
    l_f, mu_f, kappa = dc.l_f, dc.mu_f, dc.kappa
    beta = _momentum(kappa)
    tau = 1.0 / (math.sqrt(kappa) + 1.0)
    distinct = [sqrt_psd(laplacian(t)) for t in schedule.distinct_topologies]
    sqrt_ws = [distinct[j] for j in schedule.topology_index]
    epochs = _epoch_of_iteration(schedule, max_iter)
    # epoch_of[k] is the epoch of iteration k, clipped to the horizon
    epoch_of = epochs + [schedule.epoch_index(max_iter)]

    x = y = np.zeros((agg.dim, agg.n))
    xs, ys, zs = [x], [y], [x]
    for k in range(max_iter):
        g = _xspace_grad(agg, sqrt_ws[epochs[k]], x)
        if method == "gd":
            x = x - (2.0 / (l_f + mu_f)) * g
            y = x
            z = x
        else:
            y_next = x - g / l_f
            x = (1.0 + beta) * y_next - beta * y
            y = y_next
            z = x / tau - ((1.0 - tau) / tau) * y
        xs.append(x)
        ys.append(y)
        zs.append(z)

    x_star = solve_dual_min_norm(agg, schedule)
    distinct_residuals = [fro_norm(_xspace_grad(agg, sw, x_star)) for sw in distinct]
    residuals = [distinct_residuals[j] for j in schedule.topology_index]
    return XSpaceTrace(
        method=method,
        xs=xs,
        ys=ys,
        zs=zs,
        epoch_of=epoch_of,
        x_star=x_star,
        radius=fro_norm(xs[0] - x_star),
        mu_f=mu_f,
        l_f=l_f,
        kappa=kappa,
        agg=agg,
        sqrt_ws=sqrt_ws,
        minimizer_residuals=residuals,
    )
