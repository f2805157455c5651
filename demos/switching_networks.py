"""What network switching does to the accelerated dual method.

Two experiments on 20 agents:

* complete <-> path: even fast switching keeps convergence, because the
  complete-graph epochs are so well conditioned;
* star <-> cycle: both graphs are badly conditioned, and switching every
  few iterations breaks the method, while rare switching leaves it time
  to make progress between changes.
"""

import numpy as np

from dvopt import (
    alternating_schedule,
    centralized_solve,
    compute_metrics,
    gen_ridge_instance,
    run_distributed_nesterov,
)

n, l, m, horizon = 20, 10, 5, 1000
agg = gen_ridge_instance(n, l, m, c=0.1, noise=0.1, seed=11)
oracle = centralized_solve(agg)


def final_residual(kinds, period):
    sched = alternating_schedule(kinds, n, period, horizon, seed=5)
    trace = run_distributed_nesterov(agg, sched, max_iter=horizon, record_every=horizon)
    rows = compute_metrics(trace, agg, oracle)
    return rows[0].dual_residual, rows[-1].dual_residual


print("complete <-> path alternation:")
for period in (50, 100, 500):
    first, last = final_residual(("complete", "path"), period)
    print(f"  switch every {period:>3}: residual {first:9.2e} -> {last:9.2e}")

print()
print("star <-> cycle alternation:")
for period in (5, 50, 200):
    first, last = final_residual(("star", "cycle"), period)
    verdict = "converged" if last < 1e-2 * first else "did not converge"
    print(f"  switch every {period:>3}: residual {first:9.2e} -> {last:9.2e}  ({verdict})")

print()
print("The admissible change fraction shrinks with the condition number:")
from dvopt import alg1_complexity, dual_constants

for kinds in (("complete", "path"), ("star", "cycle")):
    sched = alternating_schedule(kinds, n, 100, horizon, seed=5)
    dc = dual_constants(agg, sched.theta)
    ceiling = alg1_complexity(dc.kappa, 0.0, log_term=1.0).alpha_ceiling
    print(f"  {kinds[0]:>8} <-> {kinds[1]:<8} kappa = {dc.kappa:9.1f}, alpha ceiling = {ceiling:.2e}")
