"""Certify a run against its closed-form guarantees.

The matrix-space reference run replays the accelerated dynamics with
explicit Laplacian square roots, which makes three certificates
checkable per iteration:

* the residual bound (L+mu)/2 R^2 kappa^m (1 - 1/sqrt(kappa))^N,
* monotonicity of the potential between graph changes, and
* the primal gap certified from the dual gap.

The schedule below alternates a complete graph with a weight-n star;
those two Laplacians act identically on matrices whose rows vanish on
the star center and sum to zero across leaves, so their dual functions
share an exact common minimizer and the time-varying guarantees apply
as stated.
"""

import math

import numpy as np

from dvopt import (
    AggregateObjective,
    GraphSchedule,
    QuadraticObjective,
    Topology,
    agentwise_primal_gap,
    centralized_solve,
    gen_topology,
    nesterov_tv_bound,
    potential_trace,
    primal_from_dual_bound,
    run_xspace_reference,
)

n, d, seed = 5, 3, 2
rng = np.random.default_rng(seed)

star = gen_topology("star", n)
top_a = gen_topology("complete", n)
top_b = Topology(n, star.edges, (float(n),) * len(star.edges))

# build objectives whose dual minimizer is shared by both graphs
x_star = rng.standard_normal((d, n))
x_star[:, 0] = 0.0
x_star -= x_star[:, 1:].mean(axis=1, keepdims=True)
x_star[:, 0] = 0.0
y_star = rng.standard_normal(d)
needed_grad = -math.sqrt(n) * x_star
scales = rng.uniform(1.0, 60.0, size=n)
scales[0], scales[-1] = 1.0, 60.0  # pin the curvature spread
agg = AggregateObjective(
    tuple(
        QuadraticObjective.from_offset(y_star - needed_grad[:, i] / scales[i], scale=float(scales[i]))
        for i in range(n)
    )
)

sched = GraphSchedule(120, ((0, top_a), (40, top_b), (80, top_a)))
xref = run_xspace_reference(agg, sched, max_iter=120)
_, phi_star = centralized_solve(agg)
f_star = -phi_star

print(f"kappa = {xref.kappa:.1f}, R = {xref.radius:.3f}, changes at {sched.change_iterations}")
print(f"minimizer gradient norm per epoch: {[f'{r:.1e}' for r in xref.minimizer_residuals]}")
print()

residuals = xref.values - f_star
print(f"{'iter':>5} {'residual':>12} {'bound':>12}")
worst_margin = math.inf
for k in (0, 10, 39, 40, 60, 79, 80, 100, 120):
    bound = nesterov_tv_bound(xref.l_f, xref.mu_f, xref.radius, sched.epoch_index(k), k)
    worst_margin = min(worst_margin, bound / max(residuals[k], 1e-300))
    print(f"{k:>5} {residuals[k]:>12.3e} {bound:>12.3e}")
print(f"worst bound/measured margin at sampled iterations: {worst_margin:.1f}x")
print()

rows = potential_trace(xref, f_star)
grew = [r.iter for r in rows[:-1] if not r.at_change and r.delta_psi_scaled > 1e-9 * r.psi_scaled]
print(f"potential grew between changes at {len(grew)} iterations (expected: 0)")

eps = residuals[-1]
gap = agentwise_primal_gap(
    agg.conj_argmax_cols(-(xref.ys[-1] @ xref.sqrt_ws[xref.epoch_of[-1]])), agg, phi_star
)
cert = primal_from_dual_bound(max(eps, 0.0), xref.kappa, xref.l_f, xref.mu_f, xref.radius)
print(f"final dual gap {eps:.2e} certifies primal gap <= {cert:.2e} (measured {gap:.2e})")
