"""Decentralized convex optimization over time-varying communication graphs.

Agents jointly minimize a sum of private strongly convex objectives by
exchanging conjugate-argmax outputs along the edges of a graph that may
change between iterations.  The package provides the accelerated dual
method and baselines, spectral tooling for graph schedules, every
closed-form rate bound used to certify the runs, and a deterministic
experiment runner.
"""

from .algorithms import (
    DIGingState,
    GDState,
    MessageLog,
    NesterovState,
    RunTrace,
    XSpaceTrace,
    default_diging_stepsize,
    run_diging,
    run_distributed_nesterov,
    run_dual_gradient,
    run_xspace_reference,
    solve_dual_min_norm,
)
from .graphs import (
    GraphSchedule,
    SpectralInfo,
    Topology,
    alternating_schedule,
    change_stats,
    gen_topology,
    laplacian,
    mixing_delta,
    mixing_matrix,
    schedule_from_spec,
    spectral_info,
    theta_bounds,
)
from .linalg import (
    NotPSDError,
    Spectrum,
    eig_sym,
    fro_norm,
    frobenius,
    project_consensus_orth,
    sqrt_psd,
)
from .metrics import (
    CSV_HEADER,
    BoundCheckReport,
    MetricRow,
    PotentialRow,
    agentwise_primal_gap,
    bound_check,
    compute_metrics,
    emit,
    parse_csv,
    potential_trace,
)
from .objectives import (
    AggregateObjective,
    Dataset,
    DualConstants,
    LogisticObjective,
    QuadraticObjective,
    balance_strong_convexity,
    centralized_solve,
    dual_constants,
    gen_logistic_instance,
    gen_ridge_instance,
    load_sparse_labeled,
)
from .theory import (
    BoundReport,
    alg1_complexity,
    delta_bound_check,
    diging_rates,
    gd_iterations,
    nesterov_tv_bound,
    panda_rates,
    primal_from_dual_bound,
    static_nesterov_comparison,
)

__version__ = "0.1.0"
