"""Tour of the spectral quantities that drive every rate in the package.

For a connected graph, the Laplacian's extreme nonzero eigenvalues set
the dual step size and the graph condition number chi; over a schedule,
the worst epoch decides. The mixing parameter delta measures how far one
averaging round is from perfect consensus.
"""

import numpy as np

from dvopt import (
    GraphSchedule,
    gen_topology,
    mixing_delta,
    mixing_matrix,
    spectral_info,
)

n = 12
print(f"--- single-graph spectra (n = {n}) ---")
for kind in ("complete", "star", "cycle", "path", "erdos_renyi", "random_geometric"):
    topo = gen_topology(kind, n, seed=1)
    info = spectral_info(topo)
    print(
        f"{kind:>16}: lambda_max = {info.lambda_max:7.3f}  "
        f"lambda_min_pos = {info.lambda_min_pos:7.3f}  chi = {info.chi:9.2f}"
    )

print()
print("--- a schedule is only as good as its worst epoch ---")
sched = GraphSchedule(
    100,
    (
        (0, gen_topology("complete", n)),
        (50, gen_topology("path", n)),
    ),
)
theta_max, theta_min = sched.theta
print(f"complete-then-path schedule: theta_max = {theta_max:.2f}, theta_min = {theta_min:.6f}")
print(f"effective graph condition sqrt(theta_max/theta_min) = {np.sqrt(theta_max/theta_min):.1f}")

print()
print("--- averaging quality of one gossip round ---")
for kind in ("complete", "cycle", "path"):
    s = GraphSchedule(10, ((0, gen_topology(kind, n)),))
    print(f"{kind:>10}: delta = {mixing_delta(s, 1):.4f}  (0 is perfect averaging)")

v = mixing_matrix(gen_topology("path", 3))
print()
print("mixing matrix of the 3-path (doubly stochastic, edge-sparse):")
print(v)
