"""Test instances shared by several test modules."""

import math

import numpy as np

from dvopt.graphs import Topology, gen_topology
from dvopt.objectives import AggregateObjective, QuadraticObjective


def common_minimizer_pair(n):
    """Complete graph and weight-n star: both map any matrix with rows
    vanishing on the star center and summing to zero over the leaves by
    the same factor sqrt(n), so schedules mixing them share an exact dual
    minimizer."""
    top_a = gen_topology("complete", n)
    star = gen_topology("star", n)
    top_b = Topology(n, star.edges, (float(n),) * len(star.edges))
    return top_a, top_b


def common_minimizer_instance(n, d, seed, c_max):
    """Quadratics whose dual over either topology of the pair has the minimizer x_star.

    Returns the aggregate, the complete graph, the weight-n star and
    x_star.  Local scales are drawn in [1, c_max], with the first 1 and
    the last c_max.
    """
    rng = np.random.default_rng(seed)
    top_a, top_b = common_minimizer_pair(n)
    x_star = rng.standard_normal((d, n))
    x_star[:, 0] = 0.0
    x_star -= x_star[:, 1:].mean(axis=1, keepdims=True)
    x_star[:, 0] = 0.0
    y_star = rng.standard_normal(d)
    g_star = -math.sqrt(n) * x_star
    cs = rng.uniform(1.0, c_max, size=n)
    cs[0], cs[-1] = 1.0, c_max
    locs = tuple(
        QuadraticObjective.from_offset(y_star - g_star[:, i] / cs[i], scale=float(cs[i]))
        for i in range(n)
    )
    return AggregateObjective(locs), top_a, top_b, x_star
