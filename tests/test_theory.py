"""Closed-form rates and iteration counts, checked by hand arithmetic."""

import math

import numpy as np
import pytest

from dvopt.theory import (
    alg1_complexity,
    delta_bound_check,
    diging_rates,
    gd_iterations,
    nesterov_tv_bound,
    panda_rates,
    primal_from_dual_bound,
    static_nesterov_comparison,
)


class TestGdIterations:
    def test_hand_value(self):
        # L=3, mu=1, R/eps=e: ceil(1 / ln 2) = 2
        assert gd_iterations(3.0, 1.0, math.e, 1.0) == 2

    def test_radius_below_eps(self):
        assert gd_iterations(3.0, 1.0, 0.5, 1.0) == 0

    def test_equal_constants_one_step(self):
        assert gd_iterations(2.0, 2.0, 10.0, 1e-3) == 1

    def test_doubling_ratio_adds_constant(self):
        l_s, mu = 5.0, 1.0
        per_doubling = math.log(2.0) / math.log((l_s + mu) / (l_s - mu))
        for r in (10.0, 100.0, 1000.0):
            n1 = gd_iterations(l_s, mu, r, 1.0)
            n2 = gd_iterations(l_s, mu, 2.0 * r, 1.0)
            assert n1 <= n2 <= n1 + math.ceil(per_doubling) + 1


class TestNesterovTvBound:
    def test_hand_value(self):
        # kappa=4: 1.25 * 1 * 4 * 0.25 = 1.25
        assert nesterov_tv_bound(2.0, 0.5, 1.0, 1, 2) == pytest.approx(1.25, abs=1e-15)

    def test_base_case(self):
        assert nesterov_tv_bound(2.0, 0.5, 3.0, 0, 0) == pytest.approx(0.5 * 2.5 * 9.0)

    def test_kappa_one_vanishes(self):
        assert nesterov_tv_bound(2.0, 2.0, 1.0, 0, 1) == 0.0

    def test_matches_potential_form_when_static(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            mu = rng.uniform(0.1, 2.0)
            l_s = mu * rng.uniform(1.5, 50.0)
            radius = rng.uniform(0.1, 5.0)
            n = int(rng.integers(0, 40))
            kappa = l_s / mu
            gamma = 1.0 / (math.sqrt(kappa) - 1.0)
            psi0_form = 0.5 * (l_s + mu) * radius**2 / (1.0 + gamma) ** n
            assert nesterov_tv_bound(l_s, mu, radius, 0, n) == pytest.approx(
                psi0_form, rel=1e-12
            )


    def test_finite_values_are_the_direct_product(self):
        rng = np.random.default_rng(1)
        compared = 0
        for _ in range(200):
            mu = rng.uniform(0.1, 2.0)
            l_s = mu * 10 ** rng.uniform(0.0, 4.0)
            radius = rng.uniform(0.0, 5.0)
            m, n = int(rng.integers(0, 40)), int(rng.integers(0, 3000))
            kappa = l_s / mu
            direct = 0.5 * (l_s + mu) * radius**2 * kappa**m * (1.0 - 1.0 / math.sqrt(kappa)) ** n
            if math.isfinite(direct):
                compared += 1
                assert nesterov_tv_bound(l_s, mu, radius, m, n) == direct
        assert compared > 150

    def test_many_changes_do_not_overflow(self):
        # kappa^m alone overflows, the bound itself does not
        kappa, m, n = 1e4, 100, 100_000
        with pytest.raises(OverflowError):
            kappa**m
        log_value = math.log(0.5 * (kappa + 1.0)) + m * math.log(kappa) + n * math.log1p(-0.01)
        assert nesterov_tv_bound(kappa, 1.0, 1.0, m, n) == pytest.approx(
            math.exp(log_value), rel=1e-9
        )
        # the star/cycle period-5 schedule over 1000 iterations: m = 199
        assert nesterov_tv_bound(4643.0, 1.0, 1.0, 199, 1000) == math.inf
        assert nesterov_tv_bound(4643.0, 1.0, 0.0, 199, 1000) == 0.0
        assert nesterov_tv_bound(1e200, 1.0, 1e200, 1, 0) == math.inf


class TestAlg1Complexity:
    def test_hand_value(self):
        res = alg1_complexity(100.0, 0.0, log_term=10.0)
        assert res.n_iters == 100

    def test_ceiling_value(self):
        res = alg1_complexity(100.0, 0.0, log_term=10.0)
        assert res.alpha_ceiling == pytest.approx(1.0 / (10.0 * math.log(100.0)), abs=1e-15)

    def test_ceiling_unbounded_at_kappa_one(self):
        assert alg1_complexity(1.0, 0.0, log_term=1.0).alpha_ceiling == math.inf

    def test_infeasible_alpha_flagged(self):
        res = alg1_complexity(100.0, 0.1, log_term=1.0)
        assert not res.feasible

    def test_log_term_from_constants(self):
        # (L+mu) R^2 / (2 eps) = e^10 with L=mu=R=1
        res = alg1_complexity(100.0, 0.0, l_smooth=1.0, mu=1.0, radius=1.0, eps=math.exp(-10.0))
        assert res.n_iters == 100

    def test_missing_constants(self):
        with pytest.raises(ValueError):
            alg1_complexity(4.0, 0.0)


class TestPrimalFromDual:
    def test_zero_eps(self):
        assert primal_from_dual_bound(0.0, 5.0, 2.0, 1.0, 3.0) == 0.0

    def test_hand_values(self):
        assert primal_from_dual_bound(1.0, 1.0, 2.0, 2.0, 0.0) == pytest.approx(2.0)
        assert primal_from_dual_bound(2.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(
            4.0 + math.sqrt(2.0), abs=1e-12
        )


class TestDeltaBoundCheck:
    def test_equality_case(self):
        # f_k = x^2/2, f_next = x^2 (mu=1, L=2): bound is tight everywhere
        rep = delta_bound_check(
            lambda x: 0.5 * x * x,
            lambda x: x * x,
            0.0,
            2.0,
            1.0,
            [0.5, -1.0, 2.0],
        )
        assert rep.satisfied
        assert abs(rep.worst_slack) < 1e-12

    def test_no_change(self):
        f = lambda x: x * x
        rep = delta_bound_check(f, f, 0.0, 3.0, 1.0, [1.0, 2.0])
        assert rep.satisfied and rep.worst_slack >= 0.0

    def test_at_minimizer(self):
        rep = delta_bound_check(
            lambda x: 0.5 * x * x, lambda x: x * x, 0.0, 2.0, 1.0, [0.0]
        )
        assert abs(rep.worst_slack) < 1e-15


class TestDigingRates:
    def test_hand_values(self):
        lam0, _ = diging_rates(4.0, 9)
        assert lam0 == pytest.approx(1.0 - 1.0 / 288.0, abs=1e-15)
        lam0, _ = diging_rates(1.0, 1)
        assert lam0 == pytest.approx(11.0 / 12.0, abs=1e-15)

    def test_monotone_in_kbar_and_n(self):
        prev = 0.0
        for kbar in (1.0, 2.0, 4.0, 8.0):
            lam0, _ = diging_rates(kbar, 4)
            assert lam0 > prev
            prev = lam0
        prev = 0.0
        for n in (1, 4, 16, 64):
            lam0, _ = diging_rates(2.0, n)
            assert lam0 > prev
            prev = lam0

    def test_step_dependent_rate_in_unit_interval(self):
        kbar, n, mu_bar = 3.0, 5, 0.8
        j = 3.0 * math.sqrt(kbar) * (1.0 + 4.0 * math.sqrt(n * kbar))
        alpha_max = 1.5 / (mu_bar * j)
        for frac in (0.1, 0.5, 0.9):
            _, lam = diging_rates(kbar, n, mu_bar=mu_bar, alpha=frac * alpha_max)
            assert 0.0 <= lam < 1.0

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            diging_rates(2.0, 3, mu_bar=1.0, alpha=100.0)

    def test_step_dependent_rate_above_alpha0(self):
        # kbar=4, n=9, B=2: J = 3 * 2 * 4 * (1 + 4 * sqrt(36)) = 600
        kbar, n, b, delta, mu_bar, j = 4.0, 9, 2, 0.1, 2.0, 600.0
        # at alpha_max = 1.5 (1 - delta)^2 / (mu_bar J), sqrt(alpha mu_bar J / 1.5) = 1 - delta
        alpha_max = 1.5 * (1.0 - delta) ** 2 / (mu_bar * j)
        assert alpha_max == pytest.approx(0.0010125, abs=1e-15)
        assert diging_rates(kbar, n, b, delta, mu_bar, alpha_max)[1] == pytest.approx(1.0, abs=1e-12)
        # the branches meet where 1 - s^2 = (s sqrt(J) + delta)^2, s = sqrt(alpha mu_bar / 1.5)
        s = (math.sqrt(1.0 + j - delta**2) - delta * math.sqrt(j)) / (1.0 + j)
        alpha0 = 1.5 * s * s / mu_bar
        assert alpha0 == pytest.approx(1.01098e-3, abs=1e-8)
        below, above = alpha0 * (1.0 - 1e-12), alpha0 * (1.0 + 1e-12)
        lam_below = diging_rates(kbar, n, b, delta, mu_bar, below)[1]
        lam_above = diging_rates(kbar, n, b, delta, mu_bar, above)[1]
        assert lam_below == (1.0 - below * mu_bar / 1.5) ** (1.0 / (2 * b))
        assert lam_above == (math.sqrt(above * mu_bar * j / 1.5) + delta) ** (1.0 / b)
        assert lam_below == pytest.approx(0.999662834990811, abs=1e-12)
        assert lam_above == pytest.approx(0.9996628349908111, abs=1e-12)


class TestPandaRates:
    def test_hand_values(self):
        lam0, _, _ = panda_rates(4.0)
        assert lam0 == pytest.approx(1.0 - 9.0 / 512.0, abs=1e-15)
        lam0, _, _ = panda_rates(1.0)
        assert lam0 == pytest.approx(55.0 / 64.0, abs=1e-15)

    def test_rate_decreasing_in_step(self):
        _, alpha, _ = panda_rates(4.0, l_smooth=2.0, mu=0.5)
        rates = []
        for frac in (0.2, 0.5, 1.0):
            _, _, lam = panda_rates(4.0, l_smooth=2.0, mu=0.5, c=frac * alpha)
            rates.append(lam)
        assert rates[0] > rates[1] > rates[2]
        assert all(0.0 <= r < 1.0 for r in rates)

    def test_step_above_bound_rejected(self):
        _, alpha, _ = panda_rates(4.0)
        with pytest.raises(ValueError):
            panda_rates(4.0, c=alpha * 1.01)


class TestStaticComparison:
    def test_degenerate_lambda2(self):
        verdict, lhs, _ = static_nesterov_comparison(0.0, 1.0, 1.0)
        assert verdict and lhs == 0.0

    def test_hand_value(self):
        verdict, lhs, rhs = static_nesterov_comparison(0.5, 1.0, 1.0)
        assert lhs == pytest.approx(0.25**1.5 / 250.0, abs=1e-15)
        assert rhs == 1.0
        assert verdict

    def test_rhs_monotone_in_kappa_phi(self):
        _, _, rhs1 = static_nesterov_comparison(0.5, 2.0, 4.0)
        _, _, rhs2 = static_nesterov_comparison(0.5, 8.0, 4.0)
        assert rhs2 > rhs1

    def test_rates_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            kbar = float(rng.uniform(1.0, 50.0))
            n = int(rng.integers(1, 100))
            lam0, _ = diging_rates(kbar, n)
            assert 0.0 <= lam0 < 1.0
            kappa = float(rng.uniform(1.0, 50.0))
            lam0, _, _ = panda_rates(kappa)
            assert 0.0 <= lam0 < 1.0
