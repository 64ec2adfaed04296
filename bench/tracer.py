"""Span tracing of quditpure's public functions, installed from outside.

The package itself carries no instrumentation.  :class:`Tracer` replaces
each traced function with a wrapper at every module binding that holds
it (``recurrence``, ``oracle`` and ``hashing`` each import their own
``CoeffMatrix`` and helpers), and wraps ``__init__`` for the two state
classes, so kernel outputs and ``transpose`` are caught too.  Spans
(name, start, end, parent) are kept in memory and turned into per-layer
metrics after the timed region; :meth:`Tracer.remove` restores every
original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

from layers import PASS_METRICS, SCANS, TRACED, TRAJ_DIMENSIONS
from workloads import stop_reason

PACKAGE = "quditpure"


def _first_arg_dimension(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return state.d


def _protocol_and_dimension(args, kwargs):
    protocol = args[0] if args else kwargs["protocol"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    return protocol, d


# Per-span tags kept for derived metrics: kernel time per dimension and
# the ROADMAP's noise_threshold(P1P2, 6) baseline.
TAGGERS = {
    "recurrence.p1_map": _first_arg_dimension,
    "recurrence.noise_threshold": _protocol_and_dimension,
}


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children of one parent never overlap (one thread, nested calls), so
    the subtraction leaves the time the span spent outside traced calls.
    """
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.tag: list = []
        self.trajectories: list[tuple] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every traced name at every quditpure module binding."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, fns in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in fns:
                qual = f"{module_name}.{fn_name}"
                obj = getattr(home, fn_name)
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(vars(obj)["__init__"], qual))
                    continue
                wrapper = self._wrap(obj, qual)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is obj:
                            self._patch(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, qual: str):
        name = len(self.names)
        self.names.append(qual)
        tagger = TAGGERS.get(qual)
        keep_result = qual == "recurrence.run_protocol"
        name_id, start, end, parent, tag = (
            self.name_id, self.start, self.end, self.parent, self.tag
        )
        stack, trajectories = self._stack, self.trajectories
        clock = time.perf_counter_ns
        max_iters_default = (
            inspect.signature(fn).parameters["max_iters"].default
            if keep_result else None
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(name)
            parent.append(stack[-1])
            tag.append(tagger(args, kwargs) if tagger else None)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep_result:
                trajectories.append(
                    (result, kwargs.get("max_iters", max_iters_default))
                )
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name_id, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Save the spans as a NumPy .npz archive."""
        np.savez(path, **self.spans())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        s = self.spans()
        name, parent = s["name"], s["parent"]
        duration = (s["end_ns"] - s["start_ns"]) / 1e9
        own = self_times(duration, parent)
        ids = {qual: i for i, qual in enumerate(self.names)}
        out: dict[str, float] = {}
        for qual, i in ids.items():
            mask = name == i
            out[f"{qual}.calls"] = int(mask.sum())
            out[f"{qual}.self_s"] = float(own[mask].sum())
            if qual in SCANS:
                out[f"{qual}.total_s"] = float(duration[mask].sum())

        p1 = ids["recurrence.p1_map"]
        p1_d = np.array([t if n == p1 else 0
                         for n, t in zip(self.name_id, self.tag)], dtype=np.int64)
        for d in TRAJ_DIMENSIONS:
            hits = duration[p1_d == d]
            out[f"recurrence.p1_map.mean_us.d{d}"] = (
                float(hits.mean() * 1e6) if hits.size else 0.0
            )
        nt = ids["recurrence.noise_threshold"]
        baseline = [i for i, (n, t) in enumerate(zip(self.name_id, self.tag))
                    if n == nt and t == ("P1P2", 6)]
        out["recurrence.noise_threshold.p1p2_d6.total_s"] = float(duration[baseline].sum())

        noisy = name == ids["recurrence.noisy_step"]
        out["recurrence.rounds"] = int(noisy.sum())
        stops = [stop_reason(t, m) for t, m in self.trajectories]
        out["recurrence.run_protocol.rounds"] = sum(t.iterations for t, _ in self.trajectories)
        for reason in ("target", "stall", "max_iters"):
            out[f"recurrence.run_protocol.stop_{reason}"] = stops.count(reason)

        under = self._under_scan()
        evals = int((under & (name == ids["states.make_preset"])).sum())
        scan_rounds = int((under & noisy).sum())
        out["recurrence.scan.predicate_evals"] = evals
        out["recurrence.scan.rounds_per_predicate"] = scan_rounds / evals if evals else 0.0
        out["oracle.comparisons"] = out["oracle.simulate_recurrence_step.calls"]
        return {k: out[k] for k in PASS_METRICS}

    def _under_scan(self) -> np.ndarray:
        """Whether each span has a scan span among its ancestors."""
        scan_ids = {i for i, qual in enumerate(self.names) if qual in SCANS}
        under = [False] * len(self.name_id)
        for i, p in enumerate(self.parent):
            if p >= 0:
                under[i] = under[p] or self.name_id[p] in scan_ids
        return np.array(under, dtype=bool)
