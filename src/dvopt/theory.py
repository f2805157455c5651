"""Closed-form convergence rates, iteration counts, and comparisons.

Pure arithmetic on named constants; every function here is evaluated
against measured traces elsewhere.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundReport",
    "gd_iterations",
    "nesterov_tv_bound",
    "alg1_complexity",
    "ComplexityResult",
    "primal_from_dual_bound",
    "diging_rates",
    "panda_rates",
    "static_nesterov_comparison",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: identifier, echoed inputs, and value(s)."""

    name: str
    inputs: dict
    value: object
    satisfied: bool | None = None


def gd_iterations(l_smooth: float, mu: float, radius: float, eps: float) -> int:
    """Iterations after which gradient descent is within eps of the optimum.

    ceil( log(R/eps) / log((L+mu)/(L-mu)) ), clamped at 0; the distance
    guarantee holds from iteration N+1 on.  L == mu contracts in one step.
    """
    if not (l_smooth >= mu > 0):
        raise ValueError("need L >= mu > 0")
    if not (radius >= 0 and eps > 0):  # NaN fails too
        raise ValueError("need R >= 0 and eps > 0")
    if radius <= eps:
        return 0
    if l_smooth == mu:
        return 1
    return math.ceil(math.log(radius / eps) / math.log((l_smooth + mu) / (l_smooth - mu)))


def nesterov_tv_bound(l_smooth: float, mu: float, radius: float, m: int, n_iters: int) -> float:
    """(L+mu)/2 * R^2 * kappa^m * (1 - 1/sqrt(kappa))^N with kappa = L/mu.

    Evaluated as that product; only when the product overflows (many
    changes m) is it evaluated again as a sum of logarithms, and a bound
    beyond the float range is ``math.inf``.
    """
    if not (l_smooth >= mu > 0):
        raise ValueError("need L >= mu > 0")
    if not (m >= 0 and n_iters >= 0):
        raise ValueError("m and N must be >= 0")
    kappa = l_smooth / mu
    contraction = 1.0 - 1.0 / math.sqrt(kappa)
    try:
        value = 0.5 * (l_smooth + mu) * radius**2 * kappa**m * contraction**n_iters
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    if radius == 0.0 or (contraction == 0.0 and n_iters > 0):
        return 0.0
    log_value = (
        math.log(0.5 * (l_smooth + mu)) + 2.0 * math.log(abs(radius)) + m * math.log(kappa)
    )
    if n_iters:
        log_value += n_iters * math.log(contraction)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ComplexityResult:
    n_iters: int
    alpha_ceiling: float
    feasible: bool


def alg1_complexity(
    kappa: float,
    alpha: float,
    l_smooth: float | None = None,
    mu: float | None = None,
    radius: float | None = None,
    eps: float | None = None,
    log_term: float | None = None,
) -> ComplexityResult:
    """Iteration bound (sqrt(kappa) + alpha log kappa) * log((L+mu)R^2/(2 eps)).

    The change fraction must stay below ``1/(sqrt(kappa) log kappa)`` for
    the guarantee to hold; the ceiling is returned alongside the ceiled
    iteration count, with ``feasible=False`` when alpha reaches it.  The
    logarithmic factor can be passed directly as ``log_term`` instead of
    (L, mu, R, eps).
    """
    if not kappa >= 1:  # NaN fails too
        raise ValueError("kappa must be >= 1")
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    if log_term is None:
        if None in (l_smooth, mu, radius, eps):
            raise ValueError("need either log_term or all of (L, mu, R, eps)")
        if not eps > 0:
            raise ValueError("eps must be positive")
        log_term = math.log((l_smooth + mu) * radius**2 / (2.0 * eps))
    if not math.isfinite(log_term):
        raise ValueError("log_term must be finite")
    ceiling = math.inf if kappa == 1.0 else 1.0 / (math.sqrt(kappa) * math.log(kappa))
    n = (math.sqrt(kappa) + alpha * math.log(kappa)) * log_term
    return ComplexityResult(
        n_iters=max(0, math.ceil(n)),
        alpha_ceiling=ceiling,
        feasible=alpha < ceiling,
    )


def primal_from_dual_bound(
    eps: float, kappa: float, l_smooth: float, mu: float, norm_xstar: float
) -> float:
    """Primal gap certified by a dual gap eps: 2 kappa eps + L ||X*|| sqrt(2 eps / mu)."""
    if not (all(x >= 0 for x in (eps, kappa, l_smooth, norm_xstar)) and mu > 0):  # NaN fails too
        raise ValueError("inputs must be nonnegative with mu > 0")
    return 2.0 * kappa * eps + l_smooth * norm_xstar * math.sqrt(2.0 * eps / mu)


def _diging_j(kappa_bar: float, n: int, b: int) -> float:
    return 3.0 * math.sqrt(kappa_bar) * b * b * (1.0 + 4.0 * math.sqrt(n) * math.sqrt(kappa_bar))


def diging_rates(
    kappa_bar: float,
    n: int,
    b: int = 1,
    delta: float = 0.0,
    mu_bar: float = 1.0,
    alpha: float | None = None,
) -> tuple[float, float | None]:
    """Gradient-tracking rate floor and step-dependent rate.

    Returns ``lambda0 = 1 - 1/(12 kbar^{3/2} sqrt(n))`` and, when a step
    size is supplied, the two-branch rate

        (1 - alpha mu_bar / 1.5)^{1/(2B)}            for alpha in (0, alpha0]
        (sqrt(alpha mu_bar J / 1.5) + delta)^{1/B}   for alpha in (alpha0, 1.5(1-delta)^2/(mu_bar J)]

    with J = 3 sqrt(kbar) B^2 (1 + 4 sqrt(n kbar)).
    """
    if not (kappa_bar >= 1 and n >= 1 and b >= 1):  # NaN fails too
        raise ValueError("need kappa_bar >= 1, n >= 1, B >= 1")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    lambda0 = 1.0 - 1.0 / (12.0 * kappa_bar**1.5 * math.sqrt(n))
    if alpha is None:
        return lambda0, None
    j = _diging_j(kappa_bar, n, b)
    alpha_max = 1.5 * (1.0 - delta) ** 2 / (mu_bar * j)
    alpha0 = (
        1.5
        * (math.sqrt(j * j + (1.0 - delta * delta) * j) - delta * j) ** 2
        / (mu_bar * j * (j + 1.0) ** 2)
    )
    if not (0.0 < alpha <= alpha_max):
        raise ValueError(f"step size outside (0, {alpha_max:.6g}]")
    if alpha <= alpha0:
        lam = (1.0 - alpha * mu_bar / 1.5) ** (1.0 / (2.0 * b))
    else:
        lam = (math.sqrt(alpha * mu_bar * j / 1.5) + delta) ** (1.0 / b)
    return lambda0, lam


def panda_rates(
    kappa: float,
    l_smooth: float = 1.0,
    mu: float = 1.0,
    delta: float = 0.0,
    b: int = 1,
    c: float | None = None,
) -> tuple[float, float, float | None]:
    """Dual-averaging baseline: rate floor, admissible step, step-dependent rate.

    ``lambda0 = 1 - (9/64) kappa^{-3/2}``; the admissible step bound is

        alpha = 2 sqrt(kappa) mu * ((sqrt((1-delta^2) kappa^{-2/3} + 8) - 8 delta)
                                    / (kappa^{-3/2} + 8))^2

    and for a step c in (0, alpha] the rate is (1 - c/(2L))^{1/(2B)}.
    """
    if not kappa >= 1:  # NaN fails too
        raise ValueError("kappa must be >= 1")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    if not b >= 1:
        raise ValueError("B must be >= 1")
    lambda0 = 1.0 - (9.0 / 64.0) * kappa**-1.5
    inner = math.sqrt((1.0 - delta * delta) * kappa ** (-2.0 / 3.0) + 8.0) - 8.0 * delta
    alpha = 2.0 * math.sqrt(kappa) * mu * (inner / (kappa**-1.5 + 8.0)) ** 2
    if c is None:
        return lambda0, alpha, None
    if not (0.0 < c <= alpha):
        raise ValueError(f"step size outside (0, {alpha:.6g}]")
    lam = (1.0 - c / (2.0 * l_smooth)) ** (1.0 / (2.0 * b))
    return lambda0, alpha, lam


def static_nesterov_comparison(
    lambda2: float, kappa_phi: float, chi: float
) -> tuple[bool, float, float]:
    """Compare against the accelerated primal method on a static graph.

    Evaluates ``(lambda2 (1 - lambda2))^{3/2} / 250 * sqrt(chi) <
    kappa_phi^{3/14}`` and returns (verdict, lhs, rhs); a true verdict
    favors the dual accelerated method.
    """
    if not (0.0 <= lambda2 <= 1.0):
        raise ValueError("lambda2 must be in [0, 1]")
    if not (kappa_phi >= 1 and chi >= 1):  # NaN fails too
        raise ValueError("kappa_phi and chi must be >= 1")
    lhs = (lambda2 * (1.0 - lambda2)) ** 1.5 / 250.0 * math.sqrt(chi)
    rhs = kappa_phi ** (3.0 / 14.0)
    return lhs < rhs, lhs, rhs
