"""Span tracing of eventnet's layers, installed from outside the package.

A ``Tracer`` replaces named functions and methods of the ``eventnet``
modules with wrappers that record one span per call: name, start, end,
the enclosing span and the iteration (trace id) it belongs to.  Spans are
kept in flat arrays in memory and saved to disk when the run ends.

A span's self time is its duration minus the time its direct children
cover; since the package runs on one thread, children nest inside their
parent and never overlap, so the cover is the sum of their durations.
A layer's busy time counts only its outermost spans, so a layer that
calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from typing import Callable, Iterable, Mapping

import numpy as np


class Tracer:
    """Record spans for the ``targets``: (layer name, module, attribute path).

    An attribute path is a function name (``"enumerate_tree"``) or a class
    and method (``"State.__init__"``).  A module-level function is also
    replaced wherever another ``eventnet`` module imported it by name.
    ``hooks`` maps a layer name to a callable that turns each return value
    into work counts, run after the span has closed; the counts of the
    current iteration add up in ``counts``.
    """

    def __init__(self, targets: Iterable[tuple[str, str, str]],
                 hooks: Mapping[str, Callable[[object], Mapping[str, float]]] | None = None):
        self.targets = list(targets)
        self.names = [name for name, _, _ in self.targets]
        self.hooks = dict(hooks or {})
        self.missing: list[str] = []
        self.trace_id = -1
        self.counts: dict[str, float] = {}
        self._name = array("i")
        self._parent = array("q")
        self._trace = array("i")
        self._outer = array("b")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for nid, (name, module_name, path) in enumerate(self.targets):
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = self._wrap(nid, original, self.hooks.get(name))
            if owner is module:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "eventnet" and not mod_name.startswith("eventnet."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)
            else:
                self._replace(owner, attr, original, wrapped)

    def begin(self, trace_id: int) -> None:
        """Start a new iteration: later spans carry ``trace_id``; counts reset."""
        self.trace_id = trace_id
        self.counts = {}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, nid: int, fn, hook):
        names, parents, traces, outer = self._name, self._parent, self._trace, self._outer
        starts, ends, stack, active = self._start, self._end, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            outer.append(active[nid] == 0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                for key, value in hook(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._name)

    def _arrays(self):
        name = np.array(self._name, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int64)
        trace = np.array(self._trace, dtype=np.int32)
        outer = np.array(self._outer, dtype=bool)
        start = np.array(self._start, dtype=np.int64)
        end = np.array(self._end, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        child = parent >= 0
        cover = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name, parent, trace, outer, start, end, dur, dur - cover

    def layer_medians(self, trace_ids: Iterable[int]) -> dict[str, dict[str, float]]:
        """Per layer, the median over iterations of calls, busy and self seconds."""
        name, _, trace, outer, _, _, dur, self_t = self._arrays()
        k = len(self.names)
        per: dict[str, dict[str, list[float]]] = {
            n: {"calls": [], "busy_s": [], "self_s": []} for n in self.names}
        for tid in trace_ids:
            sel = trace == tid
            calls = np.bincount(name[sel], minlength=k)
            busy = np.bincount(name[sel & outer], weights=dur[sel & outer], minlength=k)
            own = np.bincount(name[sel], weights=self_t[sel], minlength=k)
            for nid, n in enumerate(self.names):
                per[n]["calls"].append(float(calls[nid]))
                per[n]["busy_s"].append(float(busy[nid]))
                per[n]["self_s"].append(float(own[nid]))
        return {n: {k: (statistics.median(v) if v else 0.0) for k, v in stats.items()}
                for n, stats in per.items()}

    def breakdown(self, root: str, trace_ids: Iterable[int]) -> dict[str, float]:
        """Self seconds per layer inside the outermost spans of ``root``.

        Taken from the iteration whose ``root`` busy time is the (lower)
        median.  The self times of a subtree sum to its root span's
        duration, so the entries add up to that busy time; ``root``'s own
        entry is the time spent there that no traced layer covers.
        """
        if root not in self.names:
            return {}
        name, _, trace, outer, _, _, dur, self_t = self._arrays()
        rid = self.names.index(root)
        inside: list[bool] = []
        for nid, par in zip(self._name, self._parent):
            inside.append(nid == rid or (par >= 0 and inside[par]))
        inside = np.array(inside, dtype=bool)
        busy = {tid: float(dur[(trace == tid) & (name == rid) & outer].sum())
                for tid in trace_ids}
        if not busy:
            return {}
        tid = sorted(busy, key=busy.get)[(len(busy) - 1) // 2]
        sel = inside & (trace == tid)
        own = np.bincount(name[sel], weights=self_t[sel], minlength=len(self.names))
        return {n: float(own[nid]) for nid, n in enumerate(self.names) if own[nid]}

    def save(self, path) -> None:
        """Write every span (with the layer names) as an uncompressed ``.npz``."""
        name, parent, trace, outer, start, end, _, _ = self._arrays()
        np.savez(path, layer_names=np.array(self.names), name=name, parent=parent,
                 trace=trace, outer=outer, start_ns=start, end_ns=end)
