"""Residuals, consensus distances, potential diagnostics, serialization.

The optimal dual value is ``-phi_star`` where ``phi_star`` is the
centralized optimum of the separable objective (linear consensus
constraints, so strong duality holds); every residual here is measured
against that reference.  :func:`compute_metrics` reads only a trace's
columns, which the runners evaluate in blocks, and returns columns: a
:class:`MetricTable`, which builds a :class:`MetricRow` only when
indexed.  :func:`emit` takes a table and a path and formats
every CSV row in one %-format over the table's columns as Python lists.
Both give the bytes a record-by-record evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .algorithms import _KAPPA_DEGENERATE_TOL, RunTrace, XSpaceTrace
from .linalg import fro_norm
from .objectives import AggregateObjective

__all__ = [
    "MetricRow",
    "MetricTable",
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

@dataclass(frozen=True)
class MetricRow:
    iter: int
    epoch: int
    dual_value: float
    dual_residual: float
    consensus_dist: float
    primal_gap: float
    message_count: int


_COLUMNS = tuple(f.name for f in fields(MetricRow))
CSV_HEADER = ",".join(_COLUMNS)


@dataclass(frozen=True, repr=False, eq=False)
class MetricTable:
    """The metric rows of one trace as columns, one array per MetricRow field.

    ``table[i]`` gives row i as a :class:`MetricRow` of Python numbers.
    """

    iter: np.ndarray
    epoch: np.ndarray
    dual_value: np.ndarray
    dual_residual: np.ndarray
    consensus_dist: np.ndarray
    primal_gap: np.ndarray
    message_count: np.ndarray

    def columns(self) -> list[list]:
        """Every column as a Python list, in CSV order."""
        return [getattr(self, name).tolist() for name in _COLUMNS]

    def __getitem__(self, i: int) -> MetricRow:
        return MetricRow(*(getattr(self, name)[i].item() for name in _COLUMNS))


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
) -> MetricTable:
    """Per-record residual metrics against the centralized oracle.

    ``oracle`` is ``(y_star, phi_star)`` from a high-accuracy centralized
    solve.  ``dual_residual`` is measured against ``f_star = -phi_star``
    and ``primal_gap`` is the record's ``primal_value``, the aggregate at
    the agent average of the primal candidates, minus ``phi_star``; a
    row without a primal value (the abort row) gets an infinite gap, and
    an infinite residual when f_star is finite (NaN when it is not).  The
    runners evaluate those values, so ``agg`` is unused.
    """
    _, phi_star = oracle
    phi_star = float(phi_star)
    f_star = -phi_star
    residual = trace.dual_value - f_star
    gap = trace.primal_value - phi_star
    lost = np.isnan(trace.primal_value)
    residual[lost] = math.inf if math.isfinite(f_star) else math.nan
    gap[lost] = math.inf
    return MetricTable(
        trace.iter, trace.epoch, trace.dual_value, residual, trace.consensus_dist, gap,
        trace.message_count,
    )


def agentwise_primal_gap(y_tilde: np.ndarray, agg: AggregateObjective, phi_star: float) -> float:
    """sum_i phi_i(y_i) - phi_star at the per-agent primal candidates."""
    return agg.value_cols(y_tilde) - float(phi_star)


def potential_trace(xref: XSpaceTrace, f_star: float) -> list[PotentialRow]:
    """Potential diagnostics along an accelerated matrix-space run.

    psi_k = (1+gamma)^k (f_k(y_k) - f_star + mu/2 ||z_k - x_star||^2)
    with gamma = 1/(sqrt(kappa)-1), from the run's own L, mu and kappa.
    The auxiliary ``z_k = x_k/tau - (1-tau)/tau * y_k``, tau =
    1/(sqrt(kappa)+1), is computed here from the run's iterates.
    Between graph changes the potential cannot grow; at a change the
    admissible jump is controlled by the function-change bound, reported
    via ``change_bound_scaled``.  A weight (1+gamma)^k past the float
    range is inf.  A kappa within 1e-12 of 1, where the run took plain
    gradient steps, raises ValueError.
    """
    l_smooth, mu, kappa = xref.l_f, xref.mu_f, xref.kappa
    if kappa < 1.0 + _KAPPA_DEGENERATE_TOL:
        raise ValueError("potential undefined for kappa <= 1")
    gamma = 1.0 / (math.sqrt(kappa) - 1.0)
    tau = 1.0 / (math.sqrt(kappa) + 1.0)
    n_points = len(xref.ys)
    dists = [fro_norm(x / tau - ((1.0 - tau) / tau) * y - xref.x_star) for x, y in zip(xref.xs, xref.ys)]
    psi_scaled = (xref.values - f_star) + [0.5 * mu * dist * dist for dist in dists]

    rows = []
    for k in range(n_points):
        try:
            weight = (1.0 + gamma) ** k
        except OverflowError:
            weight = math.inf
        # the last point has no successor: NaN differences and no change
        delta_scaled, at_change, change_bound = math.nan, False, None
        if k + 1 < n_points:
            delta_scaled = (1.0 + gamma) * psi_scaled[k + 1] - psi_scaled[k]
            at_change = xref.epoch_of[k + 1] != xref.epoch_of[k]
            if at_change:
                f_old_at_new = xref.f_value(xref.epoch_of[k], xref.ys[k + 1])
                change_bound = (1.0 + gamma) * (l_smooth - mu) / mu * (f_old_at_new - f_star)
        rows.append(PotentialRow(
            iter=k, psi=weight * psi_scaled[k], delta_psi=weight * delta_scaled, at_change=at_change,
            psi_scaled=float(psi_scaled[k]), delta_psi_scaled=float(delta_scaled),
            change_bound_scaled=change_bound,
        ))
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


# '%.17g' formats a float as format(x, '.17g') does; %s is str()
_CSV_ROW = "%s,%s,%.17g,%.17g,%.17g,%.17g,%s"
_PARSERS = (int, int, float, float, float, float, int)


def emit(table: MetricTable, path) -> None:
    """Write a :class:`MetricTable` to ``path`` as CSV.

    CSV uses the fixed header and 17-significant-digit decimals, so the
    write/parse roundtrip is lossless and identical tables give identical
    bytes.  Every row is formatted in one %-format over the columns as
    Python lists, whose ints print exactly however large.
    """
    columns = table.columns()
    rows = ((_CSV_ROW + "\n") * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{CSV_HEADER}\n{rows}")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def parse_csv(path) -> list[MetricRow]:
    """Read back a CSV produced by :func:`emit`; a malformed row's error names its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(k, ln) for k, ln in enumerate(fh.read().splitlines(), 1) if ln]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for k, ln in lines[1:]:
        values = ln.split(",")
        if len(values) != len(_PARSERS):
            raise ValueError(f"{path}, line {k}: expected {len(_PARSERS)} fields, got {len(values)}")
        try:
            rows.append(MetricRow(*(parse(v) for parse, v in zip(_PARSERS, values))))
        except ValueError as exc:
            raise ValueError(f"{path}, line {k}: {exc}") from None
    return rows
