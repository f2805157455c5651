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

All four runners share one loop, which owns validation, the epoch of
each iteration, the divergence check, the message log and the records;
each method supplies its per-topology operator, built once per distinct
topology, and its step.  The divergence check is one pass over the
watched state, before every step and on the final state: its Frobenius
norm, which is NaN or inf whenever an entry is, must stay at or below
1e12.  A :class:`RunTrace` holds its records as columns, one row per
record: ``iter``, ``epoch`` and ``message_count`` int arrays and
``dual_value``, ``consensus_dist``, ``primal_value`` and ``x_dist``
float arrays; the metrics read only these, and no trace keeps a state
array.  Records are evaluated in blocks: the loop copies each recorded
state into a block of up to 16 records and evaluates the whole block's
dual values, consensus distances and aggregate values at the agent
average in one pass, with the bits a record-by-record evaluation gives,
straight into the columns.  ``RunTrace.records`` gives the rows as
:class:`TraceRecord` objects, built from the columns on first read, and
no code in the package reads them.  Step sizes come from the schedule's
spectra, computed once per distinct topology.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import GraphSchedule, _epoch_of_iteration, _number, laplacian, mixing_matrix
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
# the RunTrace columns a TraceRecord shows, in its field order
_SCALAR_FIELDS = ("iter", "epoch", "dual_value", "consensus_dist", "primal_value", "message_count")


@dataclass
class MessageLog:
    """Directed (sender, receiver) pairs exchanged at each iteration."""

    per_iteration: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.per_iteration)


@dataclass(frozen=True)
class TraceRecord:
    """One row of a :class:`RunTrace`: the state at the start of iteration ``iter``.

    ``primal_value`` is the aggregate objective at the agent average of
    the primal candidates, None on the abort record.  The array fields
    are always None: runs keep no state arrays.
    """

    iter: int
    epoch: int
    dual_value: float
    consensus_dist: float
    primal_value: float | None
    message_count: int
    z: np.ndarray | None = None
    z_tilde: np.ndarray | None = None
    y_tilde: np.ndarray | None = None


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
    """The records of one run as columns, its message log and its final state.

    Row r is the record at the start of iteration ``iter[r]``: its epoch,
    dual value, consensus distance, primal value and the messages sent in
    that iteration (0 for the final record).  A row without a primal value
    holds NaN there: the abort row, which is the last row of an aborted
    run.  ``x_dist`` is ``||-z sqrt(W)^+ - x_star||_F`` of a dual GD run
    given ``x_star``, NaN elsewhere and on the abort row.  ``records`` is
    a view of the rows as TraceRecords, which no code in the package
    reads.
    """

    iter: np.ndarray
    epoch: np.ndarray
    dual_value: np.ndarray
    consensus_dist: np.ndarray
    primal_value: np.ndarray
    x_dist: np.ndarray
    message_count: np.ndarray
    message_log: MessageLog
    final_state: object
    aborted: bool = False
    momentum_degenerate: bool = False

    @cached_property
    def records(self) -> list:
        """The rows as TraceRecords, built on first read and cached."""
        columns = [getattr(self, name).tolist() for name in _SCALAR_FIELDS]
        columns[4] = [None if math.isnan(v) else v for v in columns[4]]  # no primal value
        return list(map(TraceRecord, *columns))


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


def _drive(agg, schedule, max_iter, record_every, start) -> RunTrace:
    """The iteration loop shared by every runner, the x-space reference included.

    ``start()`` builds the method once the arguments are valid.  Its
    ``operator(topology)``, a (matrix, message pairs) pair, is built once
    per distinct topology; ``step(matrix, record)`` advances one iteration
    and, when recording, returns the pre-step state arrays, which
    ``look()`` gives at the current state; ``watched`` is the state the
    divergence check reads, before every step and on the final state;
    the run aborts exactly when its last row is the abort row.
    Recorded states are copied into a block of up to ``_BLOCK`` records,
    one array per state array allocated once per run, and
    ``evaluate(rows)`` turns the filled rows into the block's dual values,
    consensus distances, primal values and x distances (arrays, or one
    value for every row), in one pass that may overwrite the rows: when
    the block is full, before the abort row and after the final record.
    The int columns follow from the last row's iteration: rows sit at
    every ``record_every``-th iteration before it.
    """
    record_every = _number(record_every, "record_every")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    max_iter = schedule.horizon if max_iter is None else _number(max_iter, "max_iter")
    if not (1 <= max_iter <= schedule.horizon):
        raise ValueError("max_iter must be in 1..horizon")
    if agg.n != schedule.n:
        raise ValueError("agent count of objective and schedule disagree")
    method = start()
    ops = [method.operator(t) for t in schedule.distinct_topologies]
    by_epoch = [ops[j] for j in schedule.topology_index]
    # a run without abort records every record_every-th iteration and the final state
    size = -(-max_iter // record_every) + 1
    floats = np.empty((4, size))  # dual value, consensus distance, primal value, x distance
    rows: list[np.ndarray] = []  # the block, one array per state array
    filled = held = 0  # rows evaluated, rows in the block

    def keep(state):
        nonlocal held
        if not rows:
            rows.extend(np.empty((min(_BLOCK, size), *a.shape)) for a in state)
        for buf, a in zip(rows, state):
            buf[held] = a
        held += 1
        if held == len(rows[0]):
            flush()

    def flush():
        nonlocal filled, held
        if held:
            values = method.evaluate([buf[:held] for buf in rows])
            for column, value in zip(floats, values):
                column[filled : filled + held] = value
            filled, held = filled + held, 0

    step = method.step
    epochs = _epoch_of_iteration(schedule, max_iter)
    aborted = False
    # the final state, at k = max_iter, keeps the last iteration's epoch
    for k, e in enumerate(epochs + epochs[-1:]):
        if not _finite(method.watched):
            flush()
            floats[:, filled] = method.abort_value, math.inf, math.nan, math.nan
            filled, aborted = filled + 1, True
            break
        if k == max_iter:
            keep(method.look())
            flush()
            break
        state = step(by_epoch[e][0], k % record_every == 0)
        if state is not None:
            keep(state)
    iters = np.append(np.arange(0, k, record_every), k)
    epoch = np.array(epochs + epochs[-1:])[iters]
    message_count = np.array([pairs.shape[0] for _, pairs in by_epoch])[epoch]
    message_count[-1] = 0  # the final or abort row sends nothing
    return RunTrace(
        iters, epoch, *floats[:, :filled], message_count,
        # iterations 0..k-1 ran: the pairs of their epochs, shared per topology
        message_log=MessageLog([by_epoch[e][1] for e in epochs[:k]]),
        final_state=method.final_state(k),
        aborted=aborted,
        momentum_degenerate=method.degenerate,
    )


def run_distributed_nesterov(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Accelerated dual method over the schedule, started from zero.

    Per iteration k with epoch Laplacian W:
    ``Y = conj_argmax(Z)`` columnwise, ``Zt_next = Z - (1/L) Y W``,
    ``Z_next = (1+beta) Zt_next - beta Zt``.  When the dual condition
    number is 1 (up to 1e-12) the momentum coefficient degenerates and
    the run falls back to plain gradient steps with a trace flag.  An
    aborted run's final ``y_tilde`` is all NaN.
    """
    return _drive(
        agg, schedule, max_iter, record_every, lambda: _DualMethod(agg, schedule, accelerated=True)
    )


def run_dual_gradient(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    record_every: int = 1,
    x_star: np.ndarray | None = None,
) -> RunTrace:
    """Plain dual gradient descent with step 2/(L+mu), started from zero.

    Given ``x_star``, a (d, n) matrix-space dual solution, the trace's
    ``x_dist`` holds ``||-z sqrt(W)^+ - x_star||_F`` for each record: the
    distance of the state mapped back to matrix space, which the static
    contraction bound reads.  That needs a single-epoch schedule.
    """
    if x_star is not None and len(schedule.epochs) != 1:
        raise ValueError("x_star needs a single-epoch schedule")
    return _drive(
        agg, schedule, max_iter, record_every,
        lambda: _DualMethod(agg, schedule, accelerated=False, x_star=x_star),
    )


class _DualMethod:
    """Dual state Z, Zt and the (step, beta) of Nesterov or dual GD."""

    abort_value = math.inf

    def __init__(self, agg, schedule, accelerated, x_star=None):
        dc = dual_constants(agg, schedule.theta)
        if accelerated:
            self.step_size = 1.0 / dc.l_f
            self.beta = _momentum(dc.kappa)
        else:
            self.step_size = 2.0 / (dc.l_f + dc.mu_f)
            self.beta = 0.0
        self.degenerate = accelerated and dc.kappa < 1.0 + _KAPPA_DEGENERATE_TOL
        self.accelerated = accelerated
        self.x_star = x_star
        if x_star is not None:
            self.pinv_sqrt = pinv_sqrt_psd(laplacian(schedule.topologies()[0]))
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
        # An aggregate holds one family, so every argmax of a run has one
        # layout: a quadratic one comes out in Fortran order, a logistic one
        # C-contiguous.  The block then keeps y transposed, a plain copy in
        # y's own memory order, which the value and consensus reductions need.
        if self.y_transposed is None:
            self.y_transposed = not y.flags.c_contiguous
        return self.z, y.T if self.y_transposed else y

    # The driver checks z before every step and look(), and _finite is False
    # for any NaN or inf, so both call the family kernels without
    # conj_argmax_cols' second finite pass.
    def step(self, w, record):
        y = self.agg._stack.conj_argmax(self.z.T).T
        state = self._state(y) if record else None
        zt_next = self.z - self.step_size * (y @ w)
        self.z = (1.0 + self.beta) * zt_next - self.beta * self.zt
        self.zt = zt_next
        return state

    def look(self):
        self.y_final = self.agg._stack.conj_argmax(self.z.T).T
        return self._state(self.y_final)

    def evaluate(self, rows):
        zs, ys = rows
        cols = ys.transpose(0, 2, 1) if self.y_transposed else ys
        duals = self.agg.dual_value_batch(zs, cols)
        # The mean runs on a C-contiguous block as on each record alone: a
        # logistic block already is one, a transposed quadratic one is copied
        y_tildes = cols.copy() if self.y_transposed else cols
        values = self.agg.value_consensus_batch(y_tildes.mean(axis=2))
        dists = _consensus_dists(ys, 1 if self.y_transposed else 2)
        if self.x_star is None:
            return duals, dists, values, math.nan
        # one product per C-contiguous z row, as on that z alone
        x_dists = [float(np.linalg.norm(-(z @ self.pinv_sqrt) - self.x_star)) for z in zs]
        return duals, dists, values, x_dists

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
) -> RunTrace:
    """Gradient tracking baseline over mixing matrices I - W/n.

    ``x`` holds the primal copies and ``u`` tracks the average gradient:
    ``x_next = x V' - alpha u``, ``u_next = u V' + grad(x_next) - grad(x)``
    with ``u_0 = grad(x_0)``.  Each iteration mixes both x and u, so two
    messages cross every directed edge.
    """
    return _drive(agg, schedule, max_iter, record_every, lambda: _DIGingMethod(agg, stepsize))


class _DIGingMethod:
    """Primal copies x, gradient tracker u and the step alpha of DIGing."""

    abort_value = math.nan
    degenerate = False

    def __init__(self, agg, stepsize):
        alpha = default_diging_stepsize(agg) if stepsize is None else stepsize
        number = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if number and not alpha > 0:  # NaN fails too
            raise ValueError("stepsize must be positive")
        if number and alpha == math.inf:
            raise ValueError("stepsize must be finite")
        if not number:  # a string or a bool, which float() would take
            raise ValueError(f"stepsize must be a real number, got {alpha!r}")
        self.alpha = float(alpha)
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
        values = self.agg.value_consensus_batch(xs.mean(axis=2))
        dists = _consensus_dists(xs, 2)  # x is always in C order
        return math.nan, dists, values, math.nan

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
    potential diagnostics.  ``epoch_of[k]`` is the epoch of iteration k,
    clipped to the horizon, and ``values[k]`` is f of that epoch at
    ``ys[k]``, evaluated with the run.  ``x_star`` is the minimum-norm
    dual solution and ``radius = ||X_0 - x_star||_F``.
    """

    method: str
    xs: list
    ys: list
    zs: list
    epoch_of: list
    values: np.ndarray
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
        return self.values - f_star


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
    2/(L+mu).  The trace keeps every iterate and its value f_k(y_k), the
    closed-form minimum-norm solution of the epoch-0 dual, and its
    gradient norm under every epoch's dual function (zero when all epochs
    share the minimizer).  The lists hold copies made per record block; a
    ``gd`` run's three lists share one array per iterate.  A run whose
    ``x`` leaves the shared loop's divergence bound raises ValueError
    naming the iteration.
    """
    if method not in ("nesterov", "gd"):
        raise ValueError("method must be 'nesterov' or 'gd'")
    run = _drive(agg, schedule, max_iter, 1, lambda: _XSpaceMethod(agg, schedule, method))
    if run.aborted:
        raise ValueError(f"x-space {method} run diverged at iteration {run.iter[-1]}")
    ref = run.final_state
    epoch_of = run.epoch.tolist()
    epoch_of[-1] = schedule.epoch_index(ref.steps)
    xs, ys, zs = ref.iterates
    if method == "gd":  # x, y and z are one array per iterate
        ys, zs = xs[:], xs[:]
    x_star = solve_dual_min_norm(agg, schedule)
    distinct = list(map(lambda sw: fro_norm(_xspace_grad(agg, sw, x_star)), ref.roots))
    return XSpaceTrace(
        method=method,
        xs=xs,
        ys=ys,
        zs=zs,
        epoch_of=epoch_of,
        values=run.dual_value,
        x_star=x_star,
        radius=fro_norm(xs[0] - x_star),
        mu_f=ref.dc.mu_f,
        l_f=ref.dc.l_f,
        kappa=ref.dc.kappa,
        agg=agg,
        sqrt_ws=list(map(ref.roots.__getitem__, schedule.topology_index)),
        minimizer_residuals=list(map(distinct.__getitem__, schedule.topology_index)),
    )


class _XSpaceMethod:
    """Iterates x, y, z of Nesterov or GD on f_k(X) = Phi*(-X sqrt(W_k)).

    A state is the iterates (x alone for GD, where y = z = x), then
    Q = -(y sqrt(W_k)) and its argmax, from which blocks value f_k(y_k).
    ``iterates`` keeps copies of the recorded x, y and z, one list each.
    """

    abort_value = math.inf
    degenerate = False

    def __init__(self, agg, schedule, method):
        self.dc = dual_constants(agg, schedule.theta)
        self.beta = _momentum(self.dc.kappa)
        self.tau = 1.0 / (math.sqrt(self.dc.kappa) + 1.0)
        self.gd = method == "gd"
        self.agg, self.schedule = agg, schedule
        self.x = self.y = self.z = np.zeros((agg.dim, agg.n))
        self.roots = []  # sqrt(W) of each distinct topology, in order
        self.steps = 0
        self.iterates = ([], [], [])

    @property
    def watched(self):
        return self.x

    def operator(self, topo):
        self.roots.append(sqrt_psd(laplacian(topo)))
        return self.roots[-1], np.empty((0, 2), dtype=int)

    def _state(self, sw):
        q = -(self.y @ sw)
        y = self.agg.conj_argmax_cols(q)
        return (*((self.x,) if self.gd else (self.x, self.y, self.z)), q, y), y

    def step(self, sw, record):
        state, y = self._state(sw)
        self.steps += 1
        l_f, mu_f, beta, tau = self.dc.l_f, self.dc.mu_f, self.beta, self.tau
        if self.gd:
            g = -(y @ sw)  # the gradient at x = y
            self.x = self.y = self.z = self.x - (2.0 / (l_f + mu_f)) * g
        else:
            g = _xspace_grad(self.agg, sw, self.x)
            y_next = self.x - g / l_f
            self.x = (1.0 + beta) * y_next - beta * self.y
            self.y = y_next
            self.z = self.x / tau - ((1.0 - tau) / tau) * self.y
        return state

    def look(self):  # valued in the epoch of iteration max_iter, clipped to the horizon
        j = self.schedule.topology_index[self.schedule.epoch_index(self.steps)]
        return self._state(self.roots[j])[0]

    def evaluate(self, rows):
        *iterates, qs, ys = rows
        for kept, block in zip(self.iterates, iterates):  # a GD state is x alone
            kept.extend(block.copy())
        # the dual value's sums run in C order whatever the argmax's memory order
        duals = self.agg.dual_value_batch(qs, ys)
        return duals, math.nan, math.nan, math.nan

    def final_state(self, final_iter):
        return self  # run_xspace_reference reads dc, roots, steps and iterates
