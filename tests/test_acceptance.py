"""Acceptance suite: one criterion per test, one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Expected values come from closed forms, hand recursions, and
independently evaluated formulas; tolerances are fixed here and nowhere
else.
"""

import math
import time

import numpy as np

from dvopt.algorithms import (
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
    run_xspace_reference,
    solve_dual_min_norm,
)
from dvopt.graphs import (
    GraphSchedule,
    alternating_schedule,
    gen_topology,
    laplacian,
    spectral_info,
)
from dvopt.linalg import eig_sym, fro_norm, project_consensus_orth, sqrt_psd
from dvopt.metrics import agentwise_primal_gap, compute_metrics, potential_trace
from dvopt.objectives import (
    AggregateObjective,
    QuadraticObjective,
    centralized_solve,
    dual_constants,
)
from dvopt.theory import alg1_complexity, diging_rates, panda_rates
from instances import common_minimizer_instance


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- shared instance builders ------------------------------------------------


def random_quadratic_aggregate(rng, n, d, scale_lo=1.0, scale_hi=4.0):
    locs = tuple(
        QuadraticObjective.from_offset(
            rng.standard_normal(d), scale=float(rng.uniform(scale_lo, scale_hi))
        )
        for _ in range(n)
    )
    return AggregateObjective(locs)


# -- criteria ------------------------------------------------------------------


def test_criterion_01_spectral_closed_forms():
    t0 = time.monotonic()
    sizes = list(range(2, 17)) + [20, 24, 32, 40, 48, 56, 64]
    ok = True
    for n in sizes:
        spectra = {
            "path": sorted(2.0 - 2.0 * math.cos(k * math.pi / n) for k in range(n)),
            "star": sorted([0.0] + [1.0] * (n - 2) + [float(n)]),
            "complete": sorted([0.0] + [float(n)] * (n - 1)),
        }
        if n >= 3:
            spectra["cycle"] = sorted(
                2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)
            )
        for kind, expected in spectra.items():
            lam = eig_sym(laplacian(gen_topology(kind, n))).eigenvalues
            ok &= bool(np.max(np.abs(lam - np.asarray(expected))) <= 1e-9)
        ok &= abs(spectral_info(gen_topology("complete", n)).chi - 1.0) <= 1e-9
        if n >= 3:  # a 2-node star is a single edge, chi = 1
            ok &= abs(spectral_info(gen_topology("star", n)).chi - n) <= 1e-9 * n
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(1, "Laplacian spectra match closed forms (n <= 64)", ok, f"{elapsed:.2f} s")


def test_criterion_02_gd_contraction():
    violations = checked = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 6))
        agg = random_quadratic_aggregate(rng, n, d, scale_hi=6.0)
        topo = gen_topology("erdos_renyi", n, {"p": 0.7}, seed=seed)
        sched = GraphSchedule(200, ((0, topo),))
        x_star = solve_dual_min_norm(agg, sched)
        dists = run_dual_gradient(agg, sched, max_iter=200, x_star=x_star).x_dist
        dc = dual_constants(agg, sched.theta)
        rho = (dc.l_f - dc.mu_f) / (dc.l_f + dc.mu_f)
        radius = fro_norm(x_star)  # the distance of the zero start
        checked += len(dists)
        for k, dist in enumerate(dists):
            if not dist <= rho**k * radius + 1e-10:  # a NaN distance violates too
                violations += 1
    ok = violations == 0 and checked == 20 * 201
    _report(2, "dual gradient descent contracts at ((L-mu)/(L+mu))^k", ok)


def test_criterion_03_nesterov_tv_bound():
    violations = 0
    for seed in range(20):
        n = 4 + seed % 3
        d = 2 + seed % 3
        agg, top_a, top_b, _ = common_minimizer_instance(n, d, seed, c_max=400.0)
        rng = np.random.default_rng(seed + 1000)
        m_changes = seed % 4
        starts = [0] + sorted(
            rng.choice(np.arange(10, 450), size=m_changes, replace=False).tolist()
        )
        tops = [top_a, top_b]
        sched = GraphSchedule(500, tuple((s, tops[i % 2]) for i, s in enumerate(starts)))
        xref = run_xspace_reference(agg, sched, max_iter=500)
        _, phi_star = centralized_solve(agg)
        residuals = xref.values - (-phi_star)
        l_f, mu_f, kappa, radius = xref.l_f, xref.mu_f, xref.kappa, xref.radius
        for k, res in enumerate(residuals):
            bound = (
                0.5
                * (l_f + mu_f)
                * radius**2
                * kappa ** sched.epoch_index(k)
                * (1.0 - 1.0 / math.sqrt(kappa)) ** k
            )
            if res > bound:
                violations += 1
    _report(3, "time-varying accelerated bound holds at every N <= 500", violations == 0)


def test_criterion_04_subspace_certificates():
    ok = True
    rng = np.random.default_rng(42)
    # gradient rows sum to zero
    agg = random_quadratic_aggregate(rng, 6, 3)
    topo = gen_topology("erdos_renyi", 6, {"p": 0.8}, seed=1)
    sched = GraphSchedule(10, ((0, topo),))
    xref = run_xspace_reference(agg, sched, max_iter=10)
    sw = xref.sqrt_ws[0]
    for _ in range(50):
        x = rng.standard_normal((3, 6))
        g = -(agg.conj_argmax_cols(-(x @ sw)) @ sw)
        ok &= bool(np.max(np.abs(g.sum(axis=1))) <= 1e-10)
    # agent-state column sums stay at zero over 1000 iterations
    agg2 = random_quadratic_aggregate(rng, 5, 3)
    sched2 = GraphSchedule(
        1000,
        ((0, gen_topology("complete", 5)), (500, gen_topology("cycle", 5))),
    )
    for runner in (run_distributed_nesterov, run_dual_gradient):
        trace = runner(agg2, sched2, max_iter=1000, record_every=25)
        # a record's z is the final z of the run cut at its iteration; z_0 = 0
        for k in trace.iter.tolist()[1:]:
            z = runner(agg2, sched2, max_iter=k).final_state.z
            ok &= bool(np.max(np.abs(z.sum(axis=1))) <= 1e-9)
    # trajectory displacement stays consensus-orthogonal
    xref2 = run_xspace_reference(agg2, sched2, max_iter=300)
    x0 = xref2.xs[0]
    for x in xref2.xs:
        shifted = x - x0
        ok &= fro_norm(project_consensus_orth(shifted) - shifted) <= 1e-9
    _report(4, "kernel-orthogonality certificates (gradients, states, trajectory)", ok)


def test_criterion_05_potential_diagnostics():
    ok = True
    for seed, epochs_at, horizon, c_max in (
        (3, (), 60, 49.0),
        (4, (25, 50), 80, 16.0),
        (5, (30,), 80, 25.0),
    ):
        n, d = 4 + seed % 2, 2 + seed % 2
        agg, top_a, top_b, _ = common_minimizer_instance(n, d, seed, c_max=c_max)
        tops = [top_a, top_b]
        epochs = tuple(
            (s, tops[i % 2]) for i, s in enumerate((0, *epochs_at))
        )
        sched = GraphSchedule(horizon, epochs)
        xref = run_xspace_reference(agg, sched, max_iter=horizon)
        _, phi_star = centralized_solve(agg)
        rows = potential_trace(xref, -phi_star)
        kappa = xref.l_f / xref.mu_f
        gamma = 1.0 / (math.sqrt(kappa) - 1.0)
        ok &= rows[0].psi <= 0.5 * (xref.l_f + xref.mu_f) * xref.radius**2 + 1e-9
        for r in rows[:-1]:
            if r.at_change:
                bound = (1.0 + gamma) ** r.iter * r.change_bound_scaled
                ok &= r.delta_psi <= bound + 1e-9
            else:
                ok &= r.delta_psi_scaled <= 1e-9 * r.psi_scaled
    _report(5, "potential falls between changes and jumps are bounded at changes", ok)


def nesterov_argmaxes(agg, sched, max_iter):
    """y_k = conj_argmax(z_k) at k = 0..max_iter of a static nesterov run, by its recursion."""
    dc = dual_constants(agg, sched.theta)
    beta = (math.sqrt(dc.kappa) - 1.0) / (math.sqrt(dc.kappa) + 1.0)
    w = laplacian(sched.epochs[0][1])
    z = zt = np.zeros((agg.dim, agg.n))
    ys = [agg.conj_argmax_cols(z)]
    for _ in range(max_iter):
        zt_next = z - (1.0 / dc.l_f) * (ys[-1] @ w)
        z, zt = (1.0 + beta) * zt_next - beta * zt, zt_next
        ys.append(agg.conj_argmax_cols(z))
    return ys


def test_criterion_06_primal_from_dual():
    violations = 0
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 5))
        agg = random_quadratic_aggregate(rng, n, d, scale_lo=1.0, scale_hi=100.0)
        topo = gen_topology("erdos_renyi", n, {"p": 0.7}, seed=seed)
        sched = GraphSchedule(140, ((0, topo),))
        dc = dual_constants(agg, sched.theta)
        x_star = solve_dual_min_norm(agg, sched)
        norm_xstar = fro_norm(x_star)
        _, phi_star = centralized_solve(agg)
        trace = run_distributed_nesterov(agg, sched, max_iter=140)
        rows = compute_metrics(trace, agg, (None, phi_star))
        ys = nesterov_argmaxes(agg, sched, 140)
        # the recursion is the run's: the same final argmax, bit for bit
        assert ys[-1].tobytes() == trace.final_state.y_tilde.tobytes()
        for y_tilde, eps in zip(ys, rows.dual_residual.tolist(), strict=True):
            if eps <= 0:
                continue
            checked += 1
            gap = agentwise_primal_gap(y_tilde, agg, phi_star)
            bound = 2.0 * dc.kappa * eps + dc.l_f * norm_xstar * math.sqrt(
                2.0 * eps / dc.mu_f
            )
            if gap > bound:
                violations += 1
    _report(
        6,
        "dual gap certifies the per-agent primal gap",
        violations == 0 and checked > 1000,
        f"{checked} records checked",
    )


def test_criterion_07_dual_curvature_envelope():
    ok = True
    rng = np.random.default_rng(7)
    for trial in range(4):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 5))
        agg = random_quadratic_aggregate(rng, n, d)
        topo = gen_topology("erdos_renyi", n, {"p": 0.8}, seed=trial)
        dc = dual_constants(agg, GraphSchedule(1, ((0, topo),)).theta)
        sw = sqrt_psd(laplacian(topo))

        def f(x):
            return agg.dual_value(-(x @ sw))

        x0 = rng.standard_normal((d, n))
        t = 0.5
        for _ in range(100):
            direction = project_consensus_orth(rng.standard_normal((d, n)))
            direction /= fro_norm(direction)
            curv = (f(x0 + t * direction) - 2.0 * f(x0) + f(x0 - t * direction)) / (t * t)
            ok &= dc.mu_f - 1e-8 <= curv <= dc.l_f + 1e-8
    _report(7, "sampled dual curvatures stay inside [mu_f, L_f]", ok)


def test_criterion_08_decentralization():
    ok = True
    rng = np.random.default_rng(8)
    agg = random_quadratic_aggregate(rng, 7, 2)
    sched = GraphSchedule(
        45,
        (
            (0, gen_topology("erdos_renyi", 7, {"p": 0.5}, 3)),
            (15, gen_topology("star", 7)),
            (30, gen_topology("cycle", 7)),
        ),
    )
    for runner in (run_distributed_nesterov, run_dual_gradient, run_diging):
        trace = runner(agg, sched, max_iter=45)
        ok &= len(trace.message_log) == 45
        for k, pairs in enumerate(trace.message_log.per_iteration):
            allowed = set()
            for i, j in sched.epochs[sched.epoch_index(k)][1].edges:
                allowed.add((i, j))
                allowed.add((j, i))
            for snd, rcv in map(tuple, pairs):
                if (snd, rcv) not in allowed:
                    ok = False
    _report(8, "every exchanged message follows a current-epoch edge", ok)


def test_criterion_09_formula_arithmetic():
    ok = True
    lam0, _ = diging_rates(4.0, 9)
    ok &= abs(lam0 - (1.0 - 1.0 / (12.0 * 4.0**1.5 * math.sqrt(9.0)))) <= 1e-12
    ok &= abs(lam0 - (1.0 - 1.0 / 288.0)) <= 1e-12
    lam0_p, _, _ = panda_rates(4.0)
    ok &= abs(lam0_p - (1.0 - 9.0 / 512.0)) <= 1e-12
    res = alg1_complexity(100.0, 0.0, log_term=10.0)
    ok &= abs(res.alpha_ceiling - 1.0 / (10.0 * math.log(100.0))) <= 1e-12
    ok &= res.n_iters == 100
    _report(9, "rate formulas match independent hand evaluation", ok)


def test_criterion_10_figure_reproduction():
    from dvopt.objectives import gen_ridge_instance

    t0 = time.monotonic()
    n, d, l, horizon = 20, 5, 10, 1000

    def final_and_initial(seed, kinds, period):
        agg = gen_ridge_instance(n, l, d, c=0.1, noise=0.1, seed=seed)
        sched = alternating_schedule(kinds, n, period, horizon, seed=seed + 500)
        trace = run_distributed_nesterov(agg, sched, max_iter=horizon, record_every=horizon)
        _, phi_star = centralized_solve(agg)
        residual = compute_metrics(trace, agg, (None, phi_star)).dual_residual
        return residual[0], residual[-1]

    finals = {5: [], 200: []}
    for period in (5, 200):
        for seed in range(20):
            finals[period].append(final_and_initial(seed, ("star", "cycle"), period)[1])
    slow_beats_fast = float(np.median(finals[200])) < float(np.median(finals[5]))

    stable = True
    for period in (50, 100, 200):
        for seed in range(5):
            first, last = final_and_initial(seed, ("complete", "path"), period)
            stable &= last <= 1e-2 * first
    elapsed = time.monotonic() - t0
    ok = slow_beats_fast and stable and elapsed < 120.0
    _report(
        10,
        "rare switching converges, rapid star/cycle switching does not",
        ok,
        f"median@200={np.median(finals[200]):.2e} median@5={np.median(finals[5]):.2e}, {elapsed:.0f} s",
    )


def test_criterion_11_hand_recursions():
    agg = AggregateObjective(
        (
            QuadraticObjective.from_offset(np.array([-1.0])),
            QuadraticObjective.from_offset(np.array([1.0])),
        )
    )
    sched = GraphSchedule(5, ((0, gen_topology("path", 2)),))
    ok = True
    for runner in (run_distributed_nesterov, run_dual_gradient):
        trace = runner(agg, sched, max_iter=1)
        ok &= bool(np.max(np.abs(trace.final_state.z - np.array([[1.0, -1.0]]))) <= 1e-12)
        # the last record's argmax, at z_1; only the nesterov state keeps it
        y_1 = agg.conj_argmax_cols(trace.final_state.z)
        if runner is run_distributed_nesterov:
            ok &= y_1.tobytes() == trace.final_state.y_tilde.tobytes()
        ok &= bool(np.max(np.abs(y_1)) <= 1e-12)
        ok &= abs(trace.dual_value[-1] - (-1.0)) <= 1e-12
    sched_c = GraphSchedule(5, ((0, gen_topology("complete", 2)),))
    trace = run_diging(agg, sched_c, stepsize=0.1, max_iter=1)
    ok &= bool(np.max(np.abs(trace.final_state.x - np.array([[-0.1, 0.1]]))) <= 1e-12)
    ok &= bool(np.max(np.abs(trace.final_state.u - np.array([[-0.1, 0.1]]))) <= 1e-12)
    _report(11, "two-agent hand recursions reproduced to 1e-12", ok)


def test_criterion_12_diging_rate_consistency():
    ok = True
    for n, d, seed in ((5, 3, 0), (8, 2, 1), (4, 4, 2)):
        rng = np.random.default_rng(seed)
        agg = random_quadratic_aggregate(rng, n, d, scale_lo=0.8, scale_hi=1.6)
        lam0, _ = diging_rates(agg.kappa_bar, n)
        horizon = math.ceil(math.log(0.1) / math.log(lam0))
        sched = GraphSchedule(horizon + 1, ((0, gen_topology("complete", n)),))
        y_star, _ = centralized_solve(agg)
        target = np.outer(y_star, np.ones(n))
        trace = run_diging(agg, sched, max_iter=horizon, record_every=1)
        # a record's x is the final x of the run cut at its iteration; x_0 = 0
        xs = [np.zeros((d, n))]
        xs += [run_diging(agg, sched, max_iter=k).final_state.x for k in trace.iter.tolist()[1:]]
        r0 = fro_norm(xs[0] - target)
        reached = any(fro_norm(x - target) <= 0.1 * r0 for x in xs)
        ok &= reached
        ok &= abs(trace.final_state.stepsize - default_diging_stepsize(agg)) == 0.0
    _report(12, "gradient tracking gains 10x within the rate-floor horizon", ok)
