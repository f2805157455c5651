"""Span tracing of dvopt from outside the package.

:class:`Tracer` replaces each public function of the dvopt modules at
every module attribute that binds it (``dvopt.graphs.eig_sym`` and
``dvopt.objectives.eig_sym`` are both the wrapper of
``dvopt.linalg.eig_sym``), and the public methods of
``AggregateObjective``, ``LogisticObjective`` and ``GraphSchedule``.
Each wrapper appends one span (label, start, end, parent) to in-memory
lists; nothing is written until the caller asks.  :meth:`Tracer.remove`
puts every original back, so an untraced run executes unmodified code.

Span labels read ``<module>.<function>``; methods of
``LogisticObjective`` are labelled ``objectives.logistic.<method>``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("linalg", "graphs", "objectives", "algorithms", "metrics", "theory", "cli")
CLASSES = (
    ("objectives", "AggregateObjective", "objectives"),
    ("objectives", "LogisticObjective", "objectives.logistic"),
    ("graphs", "GraphSchedule", "graphs"),
)
RUNNERS = ("run_distributed_nesterov", "run_dual_gradient", "run_diging")
# Span statistics reported per traced function; derived metrics are added
# in Tracer.layer_metrics.
LAYER_STATS = {
    "linalg.eig_sym": ("calls", "self_s"),
    "linalg.sqrt_psd": ("calls", "self_s"),
    "graphs.spectral_info": ("calls", "total_s"),
    "graphs.theta_bounds": ("calls", "total_s"),
    "graphs.laplacian": ("calls",),
    "graphs.epoch_index": ("calls", "self_s"),
    "objectives.conj_argmax_cols": ("calls", "self_s", "total_s"),
    "objectives.logistic.conj_argmax": ("calls", "self_s"),
    "objectives.centralized_solve": ("total_s",),
    "objectives.value_consensus": ("calls", "self_s"),
    "objectives.value_cols": ("self_s",),
    "objectives.dual_value": ("calls",),
    "metrics.compute_metrics": ("self_s", "total_s"),
    "metrics.emit": ("self_s",),
    **{f"algorithms.{r}": ("self_s",) for r in RUNNERS},
    "algorithms.solve_dual_min_norm": ("total_s",),
}


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans are recorded on one thread through a call stack, so the
    children of a span are disjoint and lie inside it.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=int)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def _matrix_key(m) -> bytes:
    a = np.ascontiguousarray(np.asarray(m, dtype=float))
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16).digest()


class Tracer:
    """Records spans and counters at the boundaries of dvopt's layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._seen: dict[str, set] = {"linalg.eig_sym": set(), "graphs.spectral_info": set()}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, label: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        label_id = self._label_ids.setdefault(label, len(self.labels))
        if label_id == len(self.labels):
            self.labels.append(label)
        observe = _OBSERVERS.get(label)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap dvopt's public functions and the traced classes' methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in MODULES:
            module = getattr(package, short)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for module in [package] + [getattr(package, short) for short in MODULES]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for short, cls_name, prefix in CLASSES:
            cls = getattr(getattr(package, short), cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self._patch(cls, attr, self.wrap(f"{prefix}.{attr}", value))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        names = np.asarray(self.names, dtype=int)
        parents = np.asarray(self.parents, dtype=int)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        stat = {
            "calls": np.ones_like(dur),
            "total_s": dur,
            "self_s": self_times(self.starts, self.ends, self.parents),
        }
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)

        def ids(label):
            return self._label_ids.get(label, -1)

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for label, stats in LAYER_STATS.items():
            picked = names == ids(label)
            for name in stats:
                value = stat[name][picked].sum()
                out[f"{label}.{name}"] = int(value) if name == "calls" else float(value)
        for label in self._seen:
            out[f"{label}.repeat_frac"] = ratio(self.counters.get(f"{label}.repeats", 0), out[f"{label}.calls"])

        def children(child, parent):
            return int(np.count_nonzero((names == ids(child)) & (parent_names == ids(parent))))

        argmax = "objectives.logistic.conj_argmax"
        out["objectives.logistic.grad_per_argmax"] = ratio(
            children("objectives.logistic.grad", argmax), out[f"{argmax}.calls"]
        )
        for key in ("metrics.emit.bytes", "algorithms.iters", "algorithms.records",
                    "algorithms.trace_bytes", "algorithms.messages"):
            out[key] = self.counters.get(key, 0)
        runner_self = sum(out[f"algorithms.{r}.self_s"] for r in RUNNERS)
        out["algorithms.iter_self_us"] = ratio(runner_self, out["algorithms.iters"]) * 1e6
        solve = "algorithms.solve_dual_min_norm"
        # One gradient (one conjugate argmax) before the loop, one per pass.
        out[f"{solve}.iters"] = children("objectives.conj_argmax_cols", solve) - int(
            np.count_nonzero(names == ids(solve))
        )
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON: labels plus (label, start, end, parent) rows."""
        rows = [list(r) for r in zip(self.names, self.starts, self.ends, self.parents)]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": rows}, fh, separators=(",", ":"))
        os.replace(tmp, path)


# -- observers: counters read from a call's arguments and result ----------------


def _observe_repeat(label, key_of):
    def observe(tracer, args, kwargs, result):
        key = key_of(args[0] if args else next(iter(kwargs.values())))
        seen = tracer._seen[label]
        if key in seen:
            tracer._count(f"{label}.repeats")
        else:
            seen.add(key)

    return observe


def _observe_emit(tracer, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer._count("metrics.emit.bytes", os.path.getsize(path))


def _observe_runner(tracer, args, kwargs, trace):
    tracer._count("algorithms.iters", trace.final_state.iter)
    tracer._count("algorithms.records", len(trace.records))
    # The message log may hold one array many times; count each array once.
    arrays = {}
    for rec in trace.records:
        for arr in (rec.z, rec.z_tilde, rec.y_tilde):
            if arr is not None:
                arrays[id(arr)] = arr.nbytes
    messages = 0
    for pairs in trace.message_log.per_iteration:
        arrays[id(pairs)] = pairs.nbytes
        messages += pairs.shape[0]
    tracer._count("algorithms.trace_bytes", sum(arrays.values()))
    tracer._count("algorithms.messages", messages)


_OBSERVERS = {
    "linalg.eig_sym": _observe_repeat("linalg.eig_sym", _matrix_key),
    "graphs.spectral_info": _observe_repeat("graphs.spectral_info", lambda topo: topo),
    "metrics.emit": _observe_emit,
    **{f"algorithms.{r}": _observe_runner for r in RUNNERS},
}
