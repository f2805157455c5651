"""Independent expected values for the benchmark's output checks.

Everything here is plain numpy on the generated inputs (the local
objectives' data and the schedule's edge lists).  It shares no code path
with the dvopt layers under test: spectra come from LAPACK ``eigvalsh``
and the dual iteration is re-derived from its definition, so a change in
dvopt's eigensolver or iteration loop is checked against something it
cannot change.  Results agree with dvopt to rounding, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def laplacian(topo) -> np.ndarray:
    w = np.zeros((topo.n, topo.n))
    weights = topo.weights or (1.0,) * len(topo.edges)
    for (i, j), wij in zip(topo.edges, weights):
        w[i - 1, j - 1] = w[j - 1, i - 1] = -wij
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


def _local_curvature(obj) -> tuple[float, float]:
    if obj.kind == "quadratic":
        eigs = np.linalg.eigvalsh(obj.quad)
        return float(eigs[0]), float(eigs[-1])
    a = obj.samples
    lam_max = float(np.linalg.eigvalsh(a.T @ a)[-1]) if a.size else 0.0
    return obj.ridge, obj.ridge + lam_max / (4.0 * obj.scale)


def dual_constants(agg, schedule) -> dict[str, float]:
    """``mu_f``, ``L_f`` and ``kappa`` of the dual over the schedule."""
    theta_max, theta_min = 0.0, math.inf
    for _, topo in schedule.epochs:
        lam = np.linalg.eigvalsh(laplacian(topo))
        theta_max = max(theta_max, lam[-1] ** 2)
        theta_min = min(theta_min, lam[1] ** 2)
    curv = [_local_curvature(o) for o in agg.locals]
    mu_f = math.sqrt(theta_min) / max(c[1] for c in curv)
    l_f = math.sqrt(theta_max) / min(c[0] for c in curv)
    return {"mu_f": mu_f, "L_f": l_f, "kappa": l_f / mu_f}


def alpha_feasible(schedule, kappa: float) -> bool:
    """Change fraction below the admissible ceiling 1/(sqrt(kappa) ln kappa)."""
    alpha = (len(schedule.epochs) - 1) / schedule.horizon
    return kappa == 1.0 or alpha < 1.0 / (math.sqrt(kappa) * math.log(kappa))


def message_counts(schedule, max_iter: int, rounds: int) -> list[int]:
    """Expected ``message_count`` column of a run recorded every iteration.

    Every iteration sends ``rounds`` messages across each directed edge
    of the current epoch; the closing record sends none.
    """
    starts = np.array([s for s, _ in schedule.epochs])
    edges = [len(t.edges) for _, t in schedule.epochs]
    epoch = np.searchsorted(starts, np.arange(max_iter), side="right") - 1
    return [2 * rounds * edges[e] for e in epoch] + [0]


def quadratic_optimum(agg) -> float:
    """phi_star of a quadratic aggregate, in closed form."""
    quad = sum(o.quad for o in agg.locals)
    lin = sum(o.lin for o in agg.locals)
    y = np.linalg.solve(quad, lin)
    return float(sum(0.5 * y @ o.quad @ y - o.lin @ y + o.const for o in agg.locals))


def nesterov_residuals(agg, schedule, max_iter: int) -> tuple[float, float]:
    """First and final dual residual of the accelerated dual method.

    Quadratic locals only: ``y_i = H_i^{-1} (z_i + g_i)``, step ``1/L_f``,
    momentum ``(sqrt(kappa)-1)/(sqrt(kappa)+1)``, started from zero.
    """
    quad = np.stack([o.quad for o in agg.locals])
    inv = np.linalg.inv(quad)
    lin = np.column_stack([o.lin for o in agg.locals])
    const = sum(o.const for o in agg.locals)
    dc = dual_constants(agg, schedule)
    root = math.sqrt(dc["kappa"])
    beta = (root - 1.0) / (root + 1.0)
    step = 1.0 / dc["L_f"]
    ws = [laplacian(t) for _, t in schedule.epochs]
    starts = np.array([s for s, _ in schedule.epochs])
    f_star = -quadratic_optimum(agg)

    def argmax(z):
        return np.einsum("kij,jk->ik", inv, z + lin)

    def residual(z):
        y = argmax(z)
        phi = 0.5 * np.einsum("ik,kij,jk->", y, quad, y) - np.sum(lin * y) + const
        return float(np.sum(z * y) - phi) - f_star

    z = np.zeros_like(lin)
    zt = z.copy()
    first = residual(z)
    for k in range(max_iter):
        # the method gives up once the state is non-finite or its norm passes 1e12
        if not (np.all(np.isfinite(z)) and np.linalg.norm(z) <= 1e12):
            return first, math.inf
        e = int(np.searchsorted(starts, k, side="right")) - 1
        zt_next = z - step * (argmax(z) @ ws[e])
        z = (1.0 + beta) * zt_next - beta * zt
        zt = zt_next
    return first, residual(z)
