"""Span recording for traced runs, from outside the program.

A traced run installs wrappers around the public functions at each layer
boundary (see ``LAYER_BOUNDARIES``). While the tracer is active, each call
records a span — name, start,
end, parent span and request id — into an in-memory list that is written out
when the run ends. Nothing under ``src/`` is changed; the wrappers replace the
attributes callers look up and are removed again by ``uninstall``.

Spans of one thread nest through a thread-local stack; the benchmark opens the
root span of each request (``Tracer.request``) so every layer span below it
carries that request's id.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name) of every wrapped layer boundary.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine", "build_instance", "core.build_instance"),
    ("repro.core.instance", "induced_subgraph", "network.window"),
    ("repro.textindex.columnar", "WeightPipeline.node_weights", "textindex.sigma"),
    ("repro.textindex.columnar", "WeightPipeline.node_weights_sampled", "textindex.sampled"),
    ("repro.service.generations", "DeltaOverlay.node_weights", "generations.overlay_sigma"),
    ("repro.core.dense", "DenseInstance.from_graph", "core.dense"),
    ("repro.core.tgen", "TGENSolver.solve", "core.solve.tgen"),
    ("repro.core.tgen", "TGENSolver.solve_topk", "core.solve.topk"),
    ("repro.core.app", "APPSolver.solve", "core.solve.app"),
    ("repro.core.greedy", "GreedySolver.solve", "core.solve.greedy"),
    ("repro.service.sharding", "ShardRouter.route", "sharding.route"),
    ("repro.service.bundle", "IndexBundle.load", "persist.load"),
    ("repro.engine", "LCMSREngine.from_artifact", "engine.from_artifact"),
    ("repro.service.generations", "Compactor.compact", "generations.compact"),
    ("repro.service.generations", "apply_op", "generations.apply"),
    ("repro.service.generations", "append_delta_ops", "generations.log_append"),
)

QUERY_PATH_SPANS = (
    "core.build_instance", "network.window", "textindex.sigma", "textindex.sampled",
    "generations.overlay_sigma", "core.dense", "core.solve.tgen", "core.solve.topk",
    "core.solve.app", "core.solve.greedy", "sharding.route",
)
"""Layers a request passes through. Only these follow ``Tracer.active``; set-up,
writes and compactions are always recorded."""


def _attrs_for(name: str, result) -> Optional[dict]:
    """Counts read off a layer's return value at the boundary."""
    if name == "network.window":
        return {"nodes": result.num_nodes}
    if name in ("textindex.sigma", "generations.overlay_sigma"):
        return {"relevant_nodes": len(result)}
    if name == "textindex.sampled":
        return {"relevant_nodes": len(result.weights)}
    if name.startswith("core.solve.") and name != "core.solve.topk":
        return dict(result.stats)
    if name == "generations.log_append":
        return {"pending": result}
    return None


class Tracer:
    """In-memory span store shared by every thread of one run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._installed: List[Tuple[object, str, object]] = []
        self.active = True
        """Query-path wrappers record spans only while this is true; toggling
        it (rather than re-installing) leaves the patched classes untouched."""

    # ------------------------------------------------------------------ spans
    def new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, parent: Optional[int],
               request: Optional[int], attrs: Optional[dict] = None,
               span_id: Optional[int] = None) -> int:
        """Append a finished span (under a pre-allocated id, if given)."""
        if span_id is None:
            span_id = self.new_id()
        self.spans.append((span_id, parent, name, start, end, request, attrs))
        return span_id

    def request(self, request_id: int, name: str = "request"):
        """Context manager: the root span of one benchmark request."""
        return _RootSpan(self, request_id, name)

    def push(self, span_id: int, request_id: Optional[int]) -> None:
        self._stack().append((span_id, request_id))

    def pop(self) -> None:
        self._stack().pop()

    def current(self) -> Tuple[Optional[int], Optional[int]]:
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        toggled = name in QUERY_PATH_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if toggled and not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer.new_id()
            parent, request = tracer.current()
            tracer.push(span_id, request)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.pop()
            tracer.spans.append((span_id, parent, name, start, end, request,
                                 _attrs_for(name, result)))
            return result

        return traced

    # ------------------------------------------------------------------ wrappers
    def install(self) -> None:
        """Wrap every layer boundary (idempotent)."""
        if self._installed:
            return
        for module_name, path, name in LAYER_BOUNDARIES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # A class's own __dict__ holds classmethods unbound.
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------ output
    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "request", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def by_name(self) -> Dict[str, list]:
        grouped: Dict[str, list] = defaultdict(list)
        for span in self.spans:
            grouped[span[2]].append(span)
        return grouped

    def self_times(self) -> Dict[int, float]:
        """Self time of every span: its duration minus its children's."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        return {span[0]: (span[4] - span[3]) - child_time[span[0]] for span in self.spans}

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total and self time (ms), median duration."""
        selfs = self.self_times()
        out: Dict[str, dict] = {}
        for name, spans in sorted(self.by_name().items()):
            durations = sorted((s[4] - s[3]) * 1000.0 for s in spans)
            out[name] = {
                "calls": len(spans),
                "total_ms": sum(durations),
                "self_ms": sum(selfs[s[0]] for s in spans) * 1000.0,
                "median_ms": durations[len(durations) // 2],
            }
        return out

    def uncovered_frac(self, root: str = "request") -> float:
        """Share of root-span time that no layer span below it covers."""
        selfs = self.self_times()
        total = uncovered = 0.0
        for span in self.spans:
            if span[2] == root:
                total += span[4] - span[3]
                uncovered += selfs[span[0]]
        return uncovered / total if total > 0 else 0.0


class _RootSpan:
    def __init__(self, tracer: Tracer, request_id: int, name: str) -> None:
        self._tracer = tracer
        self._request = request_id
        self._name = name

    def __enter__(self) -> "_RootSpan":
        self.span_id = self._tracer.new_id()
        self._tracer.push(self.span_id, self._request)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._tracer.pop()
        self._tracer.spans.append((self.span_id, None, self._name, self.start, end,
                                   self._request, None))
