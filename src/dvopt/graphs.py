"""Topologies, graph Laplacians, spectral data, and time-varying schedules.

Nodes are labeled 1..n.  A :class:`Topology` checks its edges with array
operations, builds its Laplacian from their endpoint arrays in one
scatter, and walks its connectivity once.  A :class:`GraphSchedule` is
piecewise constant: the communication graph is fixed between change
events, and every epoch must be connected.  Spectral quantities feed the
dual step sizes and the closed-form rate bounds; they come from the
LAPACK-backed eigensolver in :mod:`dvopt.linalg`.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import _ZERO_EIG_REL_TOL, eig_sym

__all__ = [
    "ValidationError",
    "GenerationError",
    "Topology",
    "GraphSchedule",
    "SpectralInfo",
    "gen_topology",
    "laplacian",
    "spectral_info",
    "theta_bounds",
    "change_stats",
    "mixing_matrix",
    "mixing_delta",
    "schedule_from_spec",
    "alternating_schedule",
]

_MAX_GEN_ATTEMPTS = 100

TOPOLOGY_KINDS = (
    "path",
    "cycle",
    "star",
    "complete",
    "erdos_renyi",
    "random_geometric",
)
# the optional params of each kind; the other kinds take none
_TOPOLOGY_PARAMS = {"erdos_renyi": ("p",), "random_geometric": ("radius",)}


class GenerationError(RuntimeError):
    """Random topology generation failed to produce a connected graph."""


@dataclass(frozen=True)
class Topology:
    """Undirected graph on nodes 1..n with optional positive edge weights.

    ``edges`` is given as pairs or as an (m, 2) integer array and stored
    as a tuple of pairs (i, j) with i < j, in the given order.  The count
    and each endpoint given in pairs is an int or an integral float, never
    a bool or a string; only a faulty input is walked pair by pair, to
    name its first bad edge, and edges that are no sequence at all (a
    number, None, a 0-d array) are named as such.  When ``weights`` is
    None every edge has weight 1.  The 0-based endpoints are cached
    outside the fields, so equality and hashing are unchanged, as a
    read-only (2, m) array ``_ends`` (each edge's i, then its j), and
    connectivity is walked at the first :meth:`is_connected` only.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if type(self.n) is not int:
            object.__setattr__(self, "n", _number(self.n, "node count"))
        if self.n < 1:
            raise ValueError("node count must be >= 1")
        edges = self.edges
        if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,)):
            try:
                pairs = iter(edges)
            except TypeError:  # a number, None or a 0-d array
                raise ValidationError(f"edges must be a sequence of pairs, got {_shown(edges)!r}") from None
            # int64 would truncate 2.5 and take True or "1": check each endpoint
            edges = [[v if type(v) is int else _number(v, "edge endpoint") for v in _pair(e)] for e in pairs]
        try:
            given = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        except OverflowError:  # an endpoint beyond int64 is out of range
            _raise_first_fault(self.n, self.edges)
        lo, hi = np.minimum(given[:, 0], given[:, 1]), np.maximum(given[:, 0], given[:, 1])
        if len(lo) and not (lo.min() >= 1 and hi.max() <= self.n):
            _raise_first_fault(self.n, self.edges)
        i, j = ends = np.array([lo, hi]) - 1
        # a self-loop marks one entry and a repeated pair none, so 2m marks
        # mean m distinct edges (n x n bytes, an eighth of the Laplacian)
        marks = np.zeros((self.n, self.n), dtype=bool)
        marks[i, j] = marks[j, i] = True
        if np.count_nonzero(marks) != 2 * len(lo):
            _raise_first_fault(self.n, self.edges)
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist())))
        ends.flags.writeable = False
        object.__setattr__(self, "_ends", ends)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(lo),):
                raise ValueError("one weight per edge required")
            if not (w > 0).all():  # NaN fails too
                raise ValueError("edge weights must be positive")
            if not np.isfinite(w).all():
                raise ValueError("edge weights must be finite")
            object.__setattr__(self, "weights", tuple(w.tolist()))

    def directed_pairs(self) -> np.ndarray:
        """All (sender, receiver) pairs, both directions per edge."""
        e = self._ends.T + 1
        return np.vstack([e, e[:, ::-1]])

    def is_connected(self) -> bool:
        if "_connected" not in self.__dict__:
            object.__setattr__(self, "_connected", _n_components(self) == 1)
        return self._connected


def _shown(value):
    """``value`` as a message shows it: numpy values as Python ones."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _pair(edge):
    """``edge`` if it is a pair of endpoints (a sized sequence of two)."""
    if not (hasattr(edge, "__len__") and len(edge) == 2):
        raise ValidationError(f"each edge must be a pair of endpoints, got {_shown(edge)!r}")
    return edge


def _raise_first_fault(n: int, edges) -> None:
    """Raise the message of the first self-loop, out-of-range or repeated edge."""
    seen = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError(f"self-loop on node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) outside 1..{n}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate edge {pair}")
        seen.add(pair)


def _n_components(t: Topology) -> int:
    nbrs: list[list[int]] = [[] for _ in range(t.n + 1)]
    for i, j in t.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * (t.n + 1)
    comps = 0
    for start in range(1, t.n + 1):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps


@dataclass(frozen=True)
class SpectralInfo:
    """Laplacian spectral quantities of a connected topology.

    ``sigma_max`` and ``sigma_min_pos`` are the squares of the extreme
    Laplacian eigenvalues (the spectrum of W^T W = W^2); ``chi`` is the
    graph condition number lambda_max / lambda_min_pos.
    """

    lambda_max: float
    lambda_min_pos: float
    chi: float
    sigma_max: float
    sigma_min_pos: float


@dataclass(frozen=True)
class GraphSchedule:
    """Piecewise-constant sequence of topologies over a finite horizon.

    ``epochs`` is an ordered tuple of (start_iteration, Topology); the
    first epoch starts at 0 and start iterations increase strictly.
    Every epoch must be connected.  The horizon and the starts are kept as
    Python ints; each may be given as a Python or numpy int or an
    integral float, and anything else raises a ValueError naming it.

    ``distinct_topologies`` holds the topologies without repeats, in order
    of first use (matched first by object identity, then by equality), and
    ``topology_index[e]`` is epoch ``e``'s entry in it.  Both are built
    once, so per-topology work (connectivity, operators) is done once per
    distinct graph.

    ``spectra[j]`` is the :class:`SpectralInfo` of
    ``distinct_topologies[j]``, computed on first read (construction
    decomposes nothing), and ``theta`` is the schedule-wide
    (max sigma_max, min sigma_min_pos) over those spectra.
    """

    horizon: int
    epochs: tuple[tuple[int, Topology], ...]
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    distinct_topologies: tuple[Topology, ...] = field(init=False, repr=False, compare=False)
    topology_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        horizon = _number(self.horizon, "horizon")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.epochs:
            raise ValueError("schedule needs at least one epoch")
        # a Python int passes as it is, without building _number's field name
        starts = [
            s if type(s) is int else _number(s, f"epoch {idx}: start")
            for idx, (s, _) in enumerate(self.epochs)
        ]
        if starts[0] != 0:
            raise ValueError("first epoch must start at iteration 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("epoch starts must increase strictly")
        if starts[-1] >= horizon:
            raise ValueError("epoch start beyond the horizon")
        n0 = self.epochs[0][1].n
        distinct: list[Topology] = []
        by_id: dict[int, int] = {}
        by_value: dict[Topology, int] = {}
        index = []
        for idx, (_, topo) in enumerate(self.epochs):
            if topo.n != n0:
                raise ValueError("all epochs must share the same node set")
            j = by_id.get(id(topo))
            if j is None:
                j = by_value.setdefault(topo, len(distinct))
                if j == len(distinct):
                    if not topo.is_connected():
                        raise ValueError(f"epoch {idx} topology is disconnected")
                    distinct.append(topo)
                by_id[id(topo)] = j
            index.append(j)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "epochs", tuple(zip(starts, (t for _, t in self.epochs))))
        # Python ints, not an int64 array: a start may lie beyond 2**63
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "distinct_topologies", tuple(distinct))
        object.__setattr__(self, "topology_index", tuple(index))

    @property
    def n(self) -> int:
        return self.epochs[0][1].n

    @property
    def change_iterations(self) -> tuple[int, ...]:
        """Iterations at which a new epoch begins (excluding 0)."""
        return self._starts[1:]

    def epoch_index(self, k: int) -> int:
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        k = min(k, self.horizon - 1)
        return bisect.bisect_right(self._starts, k) - 1

    def topologies(self) -> list[Topology]:
        return [t for _, t in self.epochs]

    @functools.cached_property
    def spectra(self) -> tuple[SpectralInfo, ...]:
        return tuple(spectral_info(t) for t in self.distinct_topologies)

    @property
    def theta(self) -> tuple[float, float]:
        return _theta(self.spectra)


def _epoch_of_iteration(s: GraphSchedule, stop: int) -> list[int]:
    """Epoch of each iteration 0..stop-1 (at most to the horizon).

    Only the epochs that start before ``stop`` are read, so the cost
    follows ``stop``, not the horizon.
    """
    epochs: list[int] = []
    ends = s._starts[1:] + (s.horizon,)
    for e, (start, end) in enumerate(zip(s._starts, ends)):
        if start >= stop:
            break
        epochs += [e] * (min(end, stop) - start)
    return epochs


def laplacian(t: Topology) -> np.ndarray:
    """Weighted graph Laplacian: degrees on the diagonal, -w_ij off it."""
    w = np.zeros((t.n, t.n))
    i, j = t._ends
    w[i, j] = w[j, i] = -1.0 if t.weights is None else -np.array(t.weights)
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


def spectral_info(t: Topology) -> SpectralInfo:
    """Extreme Laplacian eigenvalues and the graph condition number."""
    spec = eig_sym(laplacian(t))
    lam = spec.eigenvalues
    lam_max = float(lam[-1])
    if lam_max <= 0:
        raise ValueError("graph has no edges")
    threshold = _ZERO_EIG_REL_TOL * lam_max
    positive = lam[lam > threshold]
    if len(positive) != t.n - 1:
        raise ValueError("graph is disconnected (Laplacian kernel is not 1-dimensional)")
    lam_min_pos = float(positive[0])
    return SpectralInfo(
        lambda_max=lam_max,
        lambda_min_pos=lam_min_pos,
        chi=lam_max / lam_min_pos,
        sigma_max=lam_max**2,
        sigma_min_pos=lam_min_pos**2,
    )


def _theta(infos) -> tuple[float, float]:
    return (
        max(i.sigma_max for i in infos),
        min(i.sigma_min_pos for i in infos),
    )


def theta_bounds(s: GraphSchedule) -> tuple[float, float]:
    """Schedule-wide (max of sigma_max, min of sigma_min_pos).

    Decomposes every epoch's Laplacian, repeats included; it equals
    ``s.theta``, which decomposes each distinct topology once.
    """
    return _theta([spectral_info(t) for t in s.topologies()])


def change_stats(s: GraphSchedule) -> tuple[int, float]:
    """Number of graph changes m and the change fraction m / horizon."""
    m = len(s.epochs) - 1
    return m, m / s.horizon


def mixing_matrix(t: Topology) -> np.ndarray:
    """Doubly stochastic averaging matrix I - W/n."""
    return np.eye(t.n) - laplacian(t) / t.n


def mixing_delta(s: GraphSchedule, b: int = 1) -> float:
    """Worst-case distance of the windowed mixing product from averaging.

    Computes ``sup_k sigma_max(V(k) V(k-1) ... V(k-b+1) - (1/n) 11^T)``
    over all windows of length ``b`` inside the schedule; the supremum of
    the largest singular value is evaluated via the symmetric
    eigendecomposition of M^T M.  Mixing matrices are built once per
    distinct topology, and each window of topologies is evaluated once.
    """
    b = _number(b, "window length")
    if b < 1:
        raise ValueError("window length must be >= 1")
    if s.horizon < b:
        raise ValueError("horizon shorter than the window")
    n = s.n
    vs = [mixing_matrix(t) for t in s.distinct_topologies]
    topo_of = [s.topology_index[e] for e in _epoch_of_iteration(s, s.horizon)]
    avg = np.full((n, n), 1.0 / n)
    best = 0.0
    seen: set[tuple[int, ...]] = set()
    for k in range(b - 1, s.horizon):
        window = tuple(topo_of[k - i] for i in range(b))
        if window in seen:
            continue
        seen.add(window)
        prod = vs[window[0]]
        for idx in window[1:]:
            prod = prod @ vs[idx]
        diff = prod - avg
        gram = diff.T @ diff
        sigma_sq = eig_sym(gram).eigenvalues[-1]
        best = max(best, math.sqrt(max(sigma_sq, 0.0)))
    return best


# ---------------------------------------------------------------------------
# Topology generation


def gen_topology(kind: str, n: int, params: dict | None = None, seed: int = 0) -> Topology:
    """Generate a connected topology of the requested kind.

    Parameters
    ----------
    kind : str
        One of ``path``, ``cycle``, ``star``, ``complete``,
        ``erdos_renyi``, ``random_geometric``.
    n : int
        Node count (>= 2; cycles need >= 3).
    params : dict, optional
        ``{"p": ...}`` for Erdos-Renyi (default ``2 ln(n)/n``),
        ``{"radius": ...}`` for random geometric (default
        ``sqrt(2 ln(n) / (pi n))``, grown by 1.1x until connected).
        Any other key raises :class:`ValidationError`.
    seed : int
        Seed for the random kinds; fixed seed gives a fixed topology.
        Erdos-Renyi draws are retried up to 100 times until connected.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")
    params = _fields(
        {} if params is None else params, f"{kind} params", optional=_TOPOLOGY_PARAMS.get(kind, ())
    )
    n = _number(n, "node count")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    nodes = np.arange(1, n + 1)
    if kind == "path":
        return Topology(n, np.array([nodes[:-1], nodes[1:]]).T)
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs at least 3 nodes")
        return Topology(n, np.array([nodes, nodes % n + 1]).T)  # (n, 1) closes it
    if kind == "star":
        return Topology(n, np.array([np.ones_like(nodes[1:]), nodes[1:]]).T)
    upper = np.triu_indices(n, 1)
    pairs = np.array(upper).T + 1  # every (i, j), i < j, row by row
    if kind == "complete":
        return Topology(n, pairs)
    if kind == "erdos_renyi":
        p = _number(params.get("p", min(1.0, 2.0 * math.log(n) / n)), "edge probability", float)
        if not (0.0 < p <= 1.0):
            raise ValueError("edge probability must be in (0, 1]")
        rng = np.random.default_rng(seed)
        for _ in range(_MAX_GEN_ATTEMPTS):
            t = Topology(n, pairs[rng.random(len(pairs)) < p])
            if t.is_connected():
                return t
        raise GenerationError(
            f"no connected Erdos-Renyi graph with n={n}, p={p:.4g} "
            f"in {_MAX_GEN_ATTEMPTS} attempts"
        )
    # random_geometric
    radius = _number(
        params.get("radius", math.sqrt(2.0 * math.log(n) / (math.pi * n))), "radius", float
    )
    if not radius > 0:
        raise ValueError("radius must be positive")
    pts = np.random.default_rng(seed).random((n, 2))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)[upper]
    # unit square: radius sqrt(2) connects everything, so this ends
    while True:
        t = Topology(n, pairs[d2 <= radius * radius])
        if t.is_connected():
            return t
        radius *= 1.1


# ---------------------------------------------------------------------------
# Schedule construction and the readers of outside JSON


class ValidationError(ValueError):
    """Bad config, bad arguments, or missing files."""


def _number(value, what: str, kind=int):
    """``value`` as ``kind``, never from a bool or a string; an int may be an integral float.

    Python and numpy ints count as ints, Python and numpy float64 values as floats.
    """
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    types = (int, np.integer, float) if kind is float else (int, np.integer)
    ok = not isinstance(value, bool) and isinstance(value, types)
    # a float must be finite: abs() also bounds an int, on which math.isfinite
    # raises OverflowError when it is beyond the float range (10**400)
    if ok and (kind is int or abs(value) <= sys.float_info.max):
        return kind(value)
    noun = "an integer" if kind is int else "a finite number"
    raise ValidationError(f"{what} must be {noun}, got {value!r}")


def _seed(value, what: str) -> int:
    """``value`` as a seed: an int >= 0, which is all numpy's generators take."""
    seed = _number(value, what)
    if seed < 0:
        raise ValidationError(f"{what} must be >= 0, got {seed}")
    return seed


def _fields(raw, what: str, required=(), optional=()) -> dict:
    """``raw`` if it is a JSON object with every ``required`` key and no key outside both lists."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object, got {raw!r}")
    valid = (*required, *optional)
    unknown = [key for key in raw if key not in valid]
    if unknown:
        raise ValidationError(f"unknown {what} field(s) {unknown}; valid fields: {list(valid)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError(f"{what} missing required field(s) {missing}")
    return raw


def schedule_from_spec(spec: dict) -> GraphSchedule:
    """Build a schedule from its file representation.

    Expected shape::

        {"horizon": N,
         "epochs": [{"start": k, "kind": "...", "n": n,
                     "params": {...}, "seed": s}, ...]}

    ``params`` and ``seed`` are optional per epoch.  Malformed input (not
    an object, a missing or unknown field, a number that is not strict)
    raises :class:`ValidationError`; a schedule that :class:`GraphSchedule`
    rejects, such as one with a disconnected epoch, raises its ValueError.
    The horizon and the starts are checked by :class:`GraphSchedule`.
    """
    _fields(spec, "schedule", ("horizon", "epochs"))
    if not isinstance(spec["epochs"], (list, tuple)):
        raise ValidationError("schedule 'epochs' must be a list")
    epochs = []
    for idx, raw in enumerate(spec["epochs"]):
        e = _fields(raw, f"epoch {idx}", ("start", "kind", "n"), ("params", "seed"))
        n = _number(e["n"], f"epoch {idx}: n")
        seed = _seed(e.get("seed", 0), f"epoch {idx}: seed")
        epochs.append((e["start"], gen_topology(e["kind"], n, e.get("params"), seed)))
    return GraphSchedule(spec["horizon"], tuple(epochs))


def alternating_schedule(
    kinds: tuple[str, str],
    n: int,
    period: int,
    horizon: int,
    params: tuple[dict | None, dict | None] = (None, None),
    seed: int = 0,
) -> GraphSchedule:
    """Schedule that switches between two topologies every ``period`` steps."""
    if len(kinds) != 2 or len(params) != 2:
        raise ValueError("kinds and params must be pairs")
    period = _number(period, "period")
    if period < 1:
        raise ValueError("period must be >= 1")
    horizon = _number(horizon, "horizon")
    topos = (
        gen_topology(kinds[0], n, params[0], seed),
        gen_topology(kinds[1], n, params[1], seed + 1),
    )
    epochs = [(start, topos[(start // period) % 2]) for start in range(0, horizon, period)]
    return GraphSchedule(horizon, tuple(epochs))
