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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphSchedule, laplacian, mixing_matrix, theta_bounds
from .linalg import fro_norm, project_consensus_orth, sqrt_psd
from .objectives import AggregateObjective, dual_constants

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


@dataclass
class MessageLog:
    """Directed (sender, receiver) pairs exchanged at each iteration."""

    per_iteration: list = field(default_factory=list)

    def append(self, pairs: np.ndarray) -> None:
        self.per_iteration.append(pairs)

    def __len__(self) -> int:
        return len(self.per_iteration)

    def count_at(self, k: int) -> int:
        return int(self.per_iteration[k].shape[0])


@dataclass(frozen=True)
class TraceRecord:
    """State snapshot at the start of iteration ``iter``."""

    iter: int
    epoch: int
    dual_value: float
    consensus_dist: float
    message_count: int
    z: np.ndarray | None
    z_tilde: np.ndarray | None
    y_tilde: np.ndarray


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
    x: np.ndarray
    u: np.ndarray
    g_prev: np.ndarray
    stepsize: float
    iter: int


@dataclass
class RunTrace:
    """Per-iteration records plus the final state of one run."""

    algorithm: str
    records: list
    message_log: MessageLog
    final_state: object
    aborted: bool = False
    momentum_degenerate: bool = False

    @property
    def final_record(self) -> TraceRecord:
        return self.records[-1]


def _consensus_dist(y: np.ndarray) -> float:
    return fro_norm(y - y.mean(axis=1, keepdims=True))


def _epoch_arrays(schedule: GraphSchedule):
    ws = [laplacian(t) for t in schedule.topologies()]
    pairs = [t.directed_pairs() for t in schedule.topologies()]
    return ws, pairs


def _finite(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a))) and fro_norm(a) <= _DIVERGENCE_LIMIT


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
    the run falls back to plain gradient steps with a trace flag.
    """
    return _run_dual(agg, schedule, max_iter, record_every, accelerated=True)


def run_dual_gradient(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Plain dual gradient descent with step 2/(L+mu), started from zero."""
    return _run_dual(agg, schedule, max_iter, record_every, accelerated=False)


def _run_dual(agg, schedule, max_iter, record_every, accelerated):
    max_iter = schedule.horizon if max_iter is None else int(max_iter)
    if not (1 <= max_iter <= schedule.horizon):
        raise ValueError("max_iter must be in 1..horizon")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if agg.n != schedule.n:
        raise ValueError("agent count of objective and schedule disagree")

    dc = dual_constants(agg, theta_bounds(schedule))
    degenerate = dc.kappa < 1.0 + _KAPPA_DEGENERATE_TOL
    if accelerated:
        step = 1.0 / dc.l_f
        beta = 0.0 if degenerate else (math.sqrt(dc.kappa) - 1.0) / (math.sqrt(dc.kappa) + 1.0)
        name = "nesterov"
    else:
        step = 2.0 / (dc.l_f + dc.mu_f)
        beta = 0.0
        name = "dual_gd"

    ws, pairs = _epoch_arrays(schedule)
    d, n = agg.dim, agg.n
    z = np.zeros((d, n))
    zt = np.zeros((d, n))
    records: list[TraceRecord] = []
    log = MessageLog()
    aborted = False

    def snapshot(k, epoch, y_tilde, msg_count):
        records.append(
            TraceRecord(
                iter=k,
                epoch=epoch,
                dual_value=agg.dual_value(z, y_tilde),
                consensus_dist=_consensus_dist(y_tilde),
                message_count=msg_count,
                z=z.copy(),
                z_tilde=zt.copy(),
                y_tilde=y_tilde.copy(),
            )
        )

    k = 0
    for k in range(max_iter):
        if not _finite(z):
            aborted = True
            break
        e = schedule.epoch_index(k)
        y_tilde = agg.conj_argmax_cols(z)
        log.append(pairs[e])
        if k % record_every == 0:
            snapshot(k, e, y_tilde, pairs[e].shape[0])
        zt_next = z - step * (y_tilde @ ws[e])
        z = (1.0 + beta) * zt_next - beta * zt
        zt = zt_next

    if aborted:
        records.append(
            TraceRecord(
                iter=k,
                epoch=schedule.epoch_index(k),
                dual_value=math.inf,
                consensus_dist=math.inf,
                message_count=0,
                z=None,
                z_tilde=None,
                y_tilde=np.full((d, n), np.nan),
            )
        )
        final_iter = k
    else:
        y_final = agg.conj_argmax_cols(z)
        snapshot(max_iter, schedule.epoch_index(max_iter - 1), y_final, 0)
        final_iter = max_iter

    if accelerated:
        final = NesterovState(z=z, z_tilde=zt, y_tilde=records[-1].y_tilde, iter=final_iter)
    else:
        final = GDState(z=z, iter=final_iter)
    return RunTrace(
        algorithm=name,
        records=records,
        message_log=log,
        final_state=final,
        aborted=aborted,
        momentum_degenerate=accelerated and degenerate,
    )


def default_diging_stepsize(agg: AggregateObjective, b: int = 1) -> float:
    """Step 1.5/(mu_bar (J+1)) with J = 3 sqrt(kbar) B^2 (1 + 4 sqrt(n kbar))."""
    kbar = agg.kappa_bar
    j = 3.0 * math.sqrt(kbar) * b * b * (1.0 + 4.0 * math.sqrt(agg.n) * math.sqrt(kbar))
    return 1.5 / (agg.mu_bar * (j + 1.0))


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
    max_iter = schedule.horizon if max_iter is None else int(max_iter)
    if not (1 <= max_iter <= schedule.horizon):
        raise ValueError("max_iter must be in 1..horizon")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if agg.n != schedule.n:
        raise ValueError("agent count of objective and schedule disagree")
    alpha = default_diging_stepsize(agg) if stepsize is None else float(stepsize)
    if alpha <= 0:
        raise ValueError("stepsize must be positive")

    vs = [mixing_matrix(t) for t in schedule.topologies()]
    # one round for x, one for u: each epoch's pairs twice, built once
    both = [np.vstack([t.directed_pairs()] * 2) for t in schedule.topologies()]
    d, n = agg.dim, agg.n
    x = np.zeros((d, n))
    g = agg.grad_cols(x)
    u = g.copy()
    records: list[TraceRecord] = []
    log = MessageLog()
    aborted = False

    def snapshot(k, epoch, msg_count):
        records.append(
            TraceRecord(
                iter=k,
                epoch=epoch,
                dual_value=math.nan,
                consensus_dist=_consensus_dist(x),
                message_count=msg_count,
                z=None,
                z_tilde=None,
                y_tilde=x.copy(),
            )
        )

    k = 0
    for k in range(max_iter):
        if not _finite(x):
            aborted = True
            break
        e = schedule.epoch_index(k)
        log.append(both[e])
        if k % record_every == 0:
            snapshot(k, e, both[e].shape[0])
        x_next = x @ vs[e].T - alpha * u
        g_next = agg.grad_cols(x_next)
        u = u @ vs[e].T + g_next - g
        x, g = x_next, g_next

    if aborted:
        records.append(
            TraceRecord(
                iter=k,
                epoch=schedule.epoch_index(k),
                dual_value=math.nan,
                consensus_dist=math.inf,
                message_count=0,
                z=None,
                z_tilde=None,
                y_tilde=np.full((d, n), np.nan),
            )
        )
        final_iter = k
    else:
        snapshot(max_iter, schedule.epoch_index(max_iter - 1), 0)
        final_iter = max_iter

    return RunTrace(
        algorithm="diging",
        records=records,
        message_log=log,
        final_state=DIGingState(x=x, u=u, g_prev=g, stepsize=alpha, iter=final_iter),
        aborted=aborted,
    )


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
    schedule: GraphSchedule
    agg: AggregateObjective
    sqrt_ws: list
    minimizer_residuals: list

    def f_value(self, epoch: int, x: np.ndarray) -> float:
        """Dual function of the given epoch evaluated at x."""
        return self.agg.dual_value(-(x @ self.sqrt_ws[epoch]))

    def grad(self, epoch: int, x: np.ndarray) -> np.ndarray:
        sw = self.sqrt_ws[epoch]
        y = self.agg.conj_argmax_cols(-(x @ sw))
        return -(y @ sw)

    def residuals(self, f_star: float) -> np.ndarray:
        """f_k(y_k) - f_star for every recorded iteration."""
        return np.array(
            [self.f_value(self.epoch_of[k], self.ys[k]) - f_star for k in range(len(self.ys))]
        )

    def changes_before(self, k: int) -> int:
        return sum(1 for s in self.schedule.change_iterations if s <= k)


def solve_dual_min_norm(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Minimum-norm minimizer of the epoch-0 dual function.

    Runs accelerated gradient descent on ``f(X) = Phi*(-X sqrt(W))`` to
    high accuracy and projects the answer onto the consensus-orthogonal
    subspace.  With a zero start the iterates already live there, so the
    projection only removes rounding drift.
    """
    topo = schedule.topologies()[0]
    sw = sqrt_psd(laplacian(topo))
    single = GraphSchedule(1, ((0, topo),))
    dc = dual_constants(agg, theta_bounds(single))
    l_f, kappa = dc.l_f, dc.kappa
    beta = 0.0 if kappa < 1.0 + _KAPPA_DEGENERATE_TOL else (
        (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    )

    def grad(xm):
        return -(agg.conj_argmax_cols(-(xm @ sw)) @ sw)

    x = np.zeros((agg.dim, agg.n))
    y_prev = x.copy()
    g0 = fro_norm(grad(x))
    target = tol * (1.0 + g0)
    for _ in range(max_iter):
        g = grad(x)
        if fro_norm(g) <= target:
            return project_consensus_orth(x)
        y = x - g / l_f
        x = (1.0 + beta) * y - beta * y_prev
        y_prev = y
    raise RuntimeError(f"dual solve did not reach gradient norm {target:.3e}")


def run_xspace_reference(
    agg: AggregateObjective,
    schedule: GraphSchedule,
    max_iter: int | None = None,
    method: str = "nesterov",
    xstar_tol: float = 1e-12,
) -> XSpaceTrace:
    """Centralized matrix-space run used to verify bounds and potentials.

    ``method="nesterov"`` runs ``y_{k+1} = x_k - grad f_k(x_k)/L`` with
    heavy-ball extrapolation; ``method="gd"`` takes plain steps of size
    2/(L+mu).  The trace keeps every iterate, the minimum-norm dual
    solution, and the gradient norm of that solution under every epoch's
    dual function (zero when all epochs share the minimizer).
    """
    if method not in ("nesterov", "gd"):
        raise ValueError("method must be 'nesterov' or 'gd'")
    max_iter = schedule.horizon if max_iter is None else int(max_iter)
    if not (1 <= max_iter <= schedule.horizon):
        raise ValueError("max_iter must be in 1..horizon")
    if agg.n != schedule.n:
        raise ValueError("agent count of objective and schedule disagree")

    dc = dual_constants(agg, theta_bounds(schedule))
    l_f, mu_f, kappa = dc.l_f, dc.mu_f, dc.kappa
    degenerate = kappa < 1.0 + _KAPPA_DEGENERATE_TOL
    beta = 0.0 if degenerate else (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    tau = 1.0 / (math.sqrt(kappa) + 1.0)
    sqrt_ws = [sqrt_psd(laplacian(t)) for t in schedule.topologies()]

    d, n = agg.dim, agg.n
    x = np.zeros((d, n))
    y = x.copy()
    xs, ys, zs = [x.copy()], [y.copy()], [x.copy()]
    epoch_of = [schedule.epoch_index(0)]

    def grad(epoch, xm):
        sw = sqrt_ws[epoch]
        return -(agg.conj_argmax_cols(-(xm @ sw)) @ sw)

    for k in range(max_iter):
        e = schedule.epoch_index(k)
        g = grad(e, x)
        if method == "gd":
            x = x - (2.0 / (l_f + mu_f)) * g
            y = x
            z = x
        else:
            y_next = x - g / l_f
            x = (1.0 + beta) * y_next - beta * y
            y = y_next
            z = x / tau - ((1.0 - tau) / tau) * y
        xs.append(x.copy())
        ys.append(y.copy())
        zs.append(z.copy())
        epoch_of.append(schedule.epoch_index(min(k + 1, schedule.horizon - 1)))

    x_star = solve_dual_min_norm(agg, schedule, tol=xstar_tol)
    residuals = [fro_norm(grad(e, x_star)) for e in range(len(sqrt_ws))]
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
        schedule=schedule,
        agg=agg,
        sqrt_ws=sqrt_ws,
        minimizer_residuals=residuals,
    )
