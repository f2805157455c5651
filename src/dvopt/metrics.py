"""Residuals, consensus distances, potential diagnostics, serialization.

The optimal dual value is ``-phi_star`` where ``phi_star`` is the
centralized optimum of the separable objective (linear consensus
constraints, so strong duality holds); every residual here is measured
against that reference.  :func:`compute_metrics` reads only the
records' scalars, which the runners evaluate in blocks, and :func:`emit`
formats each CSV row with one %-format; both give the bytes a
record-by-record evaluation gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .algorithms import RunTrace, XSpaceTrace
from .linalg import fro_norm
from .objectives import AggregateObjective

__all__ = [
    "MetricRow",
    "PotentialRow",
    "BoundCheckReport",
    "compute_metrics",
    "agentwise_primal_gap",
    "potential_trace",
    "bound_check",
    "emit",
    "parse_csv",
    "CSV_HEADER",
]

CSV_HEADER = "iter,epoch,dual_value,dual_residual,consensus_dist,primal_gap,message_count"


@dataclass(frozen=True)
class MetricRow:
    iter: int
    epoch: int
    dual_value: float
    dual_residual: float
    consensus_dist: float
    primal_gap: float
    message_count: int


@dataclass(frozen=True)
class PotentialRow:
    """Potential value and its change at one iteration.

    ``psi`` is the weighted potential ``(1+gamma)^k * psi_scaled`` and
    ``delta_psi = psi(k+1) - psi(k)``; the ``*_scaled`` fields divide out
    the ``(1+gamma)^k`` growth so long horizons stay representable.
    ``change_bound_scaled`` carries, at epoch boundaries, the scaled
    admissible jump ``(1+gamma) (L-mu)/mu (f_k(y_{k+1}) - f_star)``.
    """

    iter: int
    psi: float
    delta_psi: float
    at_change: bool
    psi_scaled: float
    delta_psi_scaled: float
    change_bound_scaled: float | None = None


@dataclass(frozen=True)
class BoundCheckReport:
    clean: bool
    max_violation: float
    first_violation_iter: int | None
    checked: int


def compute_metrics(
    trace: RunTrace,
    agg: AggregateObjective,
    oracle: tuple[np.ndarray, float],
) -> list[MetricRow]:
    """Per-record residual metrics against the centralized oracle.

    ``oracle`` is ``(y_star, phi_star)`` from a high-accuracy centralized
    solve.  ``dual_residual`` is measured against ``f_star = -phi_star``
    and ``primal_gap`` is the record's ``primal_value``, the aggregate at
    the agent average of the primal candidates, minus ``phi_star``; a
    record without a primal value (the abort record) gets an infinite
    gap.  The runners evaluate those values, so ``agg`` is unused.
    """
    _, phi_star = oracle
    phi_star = float(phi_star)
    f_star = -phi_star
    lost = math.inf if math.isfinite(f_star) else math.nan
    return [
        MetricRow(
            iter=rec.iter,
            epoch=rec.epoch,
            dual_value=rec.dual_value,
            dual_residual=lost if rec.primal_value is None else rec.dual_value - f_star,
            consensus_dist=rec.consensus_dist,
            primal_gap=math.inf if rec.primal_value is None else rec.primal_value - phi_star,
            message_count=rec.message_count,
        )
        for rec in trace.records
    ]


def agentwise_primal_gap(y_tilde: np.ndarray, agg: AggregateObjective, phi_star: float) -> float:
    """sum_i phi_i(y_i) - phi_star at the per-agent primal candidates."""
    return agg.value_cols(y_tilde) - float(phi_star)


def potential_trace(
    xref: XSpaceTrace, l_smooth: float, mu: float, f_star: float
) -> list[PotentialRow]:
    """Potential diagnostics along an accelerated matrix-space run.

    psi_k = (1+gamma)^k (f_k(y_k) - f_star + mu/2 ||z_k - x_star||^2)
    with gamma = 1/(sqrt(kappa)-1).  Between graph changes the potential
    cannot grow; at a change the admissible jump is controlled by the
    function-change bound, reported via ``change_bound_scaled``.
    """
    if xref.method != "nesterov":
        raise ValueError("potential diagnostics need an accelerated run")
    kappa = l_smooth / mu
    if kappa <= 1.0:
        raise ValueError("potential undefined for kappa <= 1")
    gamma = 1.0 / (math.sqrt(kappa) - 1.0)
    n_points = len(xref.ys)
    dists = [fro_norm(z - xref.x_star) for z in xref.zs]
    psi_scaled = xref.residuals(f_star) + [0.5 * mu * dist * dist for dist in dists]

    rows = []
    for k in range(n_points):
        weight = (1.0 + gamma) ** k
        psi_k = weight * psi_scaled[k]
        if k + 1 < n_points:
            delta_scaled = (1.0 + gamma) * psi_scaled[k + 1] - psi_scaled[k]
            delta = weight * delta_scaled
            at_change = xref.epoch_of[k + 1] != xref.epoch_of[k]
            change_bound = None
            if at_change:
                f_old_at_new = xref.f_value(xref.epoch_of[k], xref.ys[k + 1])
                change_bound = (
                    (1.0 + gamma) * (l_smooth - mu) / mu * (f_old_at_new - f_star)
                )
        else:
            delta_scaled = math.nan
            delta = math.nan
            at_change = False
            change_bound = None
        rows.append(
            PotentialRow(
                iter=k,
                psi=psi_k,
                delta_psi=delta,
                at_change=at_change,
                psi_scaled=float(psi_scaled[k]),
                delta_psi_scaled=float(delta_scaled),
                change_bound_scaled=change_bound,
            )
        )
    return rows


def bound_check(points, bound) -> BoundCheckReport:
    """Compare measured values against a per-iteration bound.

    ``points`` are (iteration, value) pairs and ``bound`` maps an iteration
    to the admissible value.  NaN values (primal-only residuals) are skipped.
    """
    max_violation = -math.inf
    first = None
    checked = 0
    for k, value in points:
        if isinstance(value, float) and math.isnan(value):
            continue
        checked += 1
        violation = value - bound(k)
        if violation > max_violation:
            max_violation = violation
        if violation > 0 and first is None:
            first = k
    return BoundCheckReport(
        clean=first is None,
        max_violation=max_violation,
        first_violation_iter=first,
        checked=checked,
    )


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


_INTS = (int, np.integer)
# '%.17g' formats a float as format(x, '.17g') does; %s is str()
_CSV_ROW = "%s,%s,%.17g,%.17g,%.17g,%.17g,%s"


def _csv_line(r: MetricRow) -> str:
    floats = (r.dual_value, r.dual_residual, r.consensus_dist, r.primal_gap)
    a, b, c, d = floats
    if isinstance(a, _INTS) or isinstance(b, _INTS) or isinstance(c, _INTS) or isinstance(d, _INTS):
        # an integer in a float field prints exactly, as _fmt does ('%.17g' % 10**20 is 1e+20)
        return ",".join((str(r.iter), str(r.epoch), *map(_fmt, floats), str(r.message_count)))
    return _CSV_ROW % (r.iter, r.epoch, a, b, c, d, r.message_count)


def emit(rows: list[MetricRow], fmt: str, path) -> None:
    """Write metric rows to ``path`` as CSV or JSON.

    CSV uses the fixed header and 17-significant-digit decimals, so the
    write/parse roundtrip is lossless and identical rows give identical
    bytes.  Each row is one %-format operation.
    """
    if fmt == "csv":
        payload = "\n".join([CSV_HEADER, *map(_csv_line, rows)]) + "\n"
    elif fmt == "json":
        payload = json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def parse_csv(path) -> list[MetricRow]:
    """Read back a CSV produced by :func:`emit`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for ln in lines[1:]:
        it, ep, dv, dr, cd, pg, mc = ln.split(",")
        rows.append(
            MetricRow(
                iter=int(it),
                epoch=int(ep),
                dual_value=float(dv),
                dual_residual=float(dr),
                consensus_dist=float(cd),
                primal_gap=float(pg),
                message_count=int(mc),
            )
        )
    return rows
