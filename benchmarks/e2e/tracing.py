"""The benchmark's own spans around each layer's public functions.

``install`` replaces every layer point listed in :data:`POINTS` with a
timing wrapper — class attributes for methods, and for module functions
every ``repro`` module global that holds the original (``from x import f``
copies the reference, so patching the defining module alone would miss the
callers).  ``remove`` restores all of them.  The program is not edited.

A span is ``[name, start, end, parent, trace_id, attrs]``.  The current
span lives in a ``ContextVar``; the program hands its pool threads a copy
of the caller's context, so spans opened on a shard or executor thread get
the right parent and trace id without any thread bookkeeping here.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass

NAME, START, END, PARENT, TRACE, ATTRS = range(6)

#: Spans kept in memory per recorder; more are counted in ``dropped``.
MAX_SPANS = 4_000_000

_CURRENT: ContextVar[tuple[int, int] | None] = ContextVar(
    "e2e_current_span", default=None
)


class Recorder:
    """In-memory span store."""

    def __init__(self):
        self.spans: list[list] = []
        self.dropped = 0
        self.warnings: list[str] = []
        self._trace_ids = 0
        # Shard legs open spans from pool threads side by side: taking an
        # index and appending must be one step.
        self._lock = threading.Lock()

    def begin(self, name: str):
        """Open a span; returns ``(index, token)`` for :meth:`end`."""
        current = _CURRENT.get()
        with self._lock:
            if len(self.spans) >= MAX_SPANS:
                self.dropped += 1
                return -1, None
            if current is None:
                self._trace_ids += 1
                current = -1, self._trace_ids
            parent, trace_id = current
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, trace_id, None])
        return index, _CURRENT.set((index, trace_id))

    def end(self, index: int, token, attrs: dict | None = None) -> None:
        if index < 0:
            return
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        _CURRENT.reset(token)


@dataclass(frozen=True)
class Point:
    """One layer point: where it lives and what to note about each call."""

    span: str
    module: str
    #: ``Class.method`` or a module-level function name.
    target: str
    #: ``attrs(args, result) -> dict | None`` recorded on the span.
    attrs: object = None
    generator: bool = False


def _plan_attrs(args, result):
    plan = args[0]
    return {"nodes": len(plan.nodes), "planned_cost": plan.planned_cost}


def _cells_attrs(args, result):
    return {"cells": int(args[0].size)} if args else None


def _range_attrs(args, result):
    return {"cells_read": result.cells_read}


def _hit_attrs(args, result):
    return {"hit": result is not None}


def _patched_attrs(args, result):
    return {"patched": bool(result)}


_KERNELS = ("fused_cascade", "fused_partial_sum_k", "fused_aggregate", "fused_synthesize")
_OPERATORS = (
    "partial_sum", "partial_residual", "synthesize", "partial_sum_k",
    "total_sum", "total_aggregate",
)

POINTS: tuple[Point, ...] = (
    *(
        Point(f"server.{m}", "repro.server", f"OLAPServer.{m}")
        for m in (
            "view", "query_batch", "rollup_batch", "range_sum", "update_many",
            "reconfigure", "snapshot", "restore",
        )
    ),
    Point("cache.get", "repro.obs.cache", "LRUCache.get", _hit_attrs),
    Point("cache.put", "repro.obs.cache", "LRUCache.put"),
    Point("cache.patch", "repro.obs.cache", "LRUCache.patch", _patched_attrs),
    Point("adaptive.record", "repro.core.adaptive", "AccessTracker.record"),
    Point("adaptive.population", "repro.core.adaptive", "AccessTracker.population"),
    Point("element.aggregated_view", "repro.core.element", "CubeShape.aggregated_view"),
    Point("element.rollup_element", "repro.cube.hierarchy", "rollup_element"),
    *(
        Point(f"materialize.{m}", "repro.core.materialize", f"MaterializedSet.{m}")
        for m in ("assemble", "assemble_batch", "apply_updates")
    ),
    *(
        Point(f"shard.{m}", "repro.shard.sets", f"ShardedSet.{m}")
        for m in ("assemble", "assemble_batch", "apply_updates")
    ),
    Point("exec.plan_batch", "repro.core.exec", "plan_batch"),
    Point("exec.fuse_plan", "repro.core.exec", "fuse_plan"),
    Point("exec.execute_plan", "repro.core.exec", "execute_plan", _plan_attrs),
    *(Point(f"kernels.{f}", "repro.core.kernels", f, _cells_attrs) for f in _KERNELS),
    *(Point(f"operators.{f}", "repro.core.operators", f, _cells_attrs) for f in _OPERATORS),
    Point("range.range_sum", "repro.core.range_query", "RangeQueryEngine.range_sum", _range_attrs),
    Point("range.apply_updates", "repro.core.range_query", "RangeQueryEngine.apply_updates"),
    Point("delta.patch_array", "repro.core.delta", "patch_array"),
    Point("select.basis", "repro.core.select_basis", "select_minimum_cost_basis"),
    Point("wal.append", "repro.durability.wal", "WriteAheadLog.append"),
    Point("wal.sync", "repro.durability.wal", "WriteAheadLog.sync"),
    Point("wal.replay", "repro.durability.wal", "WriteAheadLog.replay", generator=True),
    Point("snapshot.write", "repro.durability.snapshot", "write_snapshot"),
    Point("snapshot.load", "repro.durability.snapshot", "load_snapshot"),
)


def _wrap(recorder: Recorder, point: Point, fn):
    name, attrs_of = point.span, point.attrs

    if point.generator:

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            index, token = recorder.begin(name)
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                recorder.end(index, token, {"records": count})

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, token = recorder.begin(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, result)
            return result
        finally:
            recorder.end(index, token, attrs)

    return wrapper


class Installation:
    """The set of patched attributes, so they can all be put back."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(recorder: Recorder, points=POINTS) -> Installation:
    """Wrap every point that still exists; a missing one is a warning."""
    installation = Installation()
    for point in points:
        try:
            module = importlib.import_module(point.module)
            if "." in point.target:
                cls_name, attr = point.target.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
            else:
                owner, attr = module, point.target
                raw = module.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            recorder.warnings.append(
                f"layer point {point.module}:{point.target} not found; "
                f"span {point.span} will be absent"
            )
            continue
        if owner is module:
            wrapped = _wrap(recorder, point, raw)
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        installation.patch(other, key, wrapped)
        elif isinstance(raw, classmethod):
            installation.patch(
                owner, attr, classmethod(_wrap(recorder, point, raw.__func__))
            )
        elif isinstance(raw, staticmethod):
            installation.patch(
                owner, attr, staticmethod(_wrap(recorder, point, raw.__func__))
            )
        else:
            installation.patch(owner, attr, _wrap(recorder, point, raw))
    return installation


# ----------------------------------------------------------------------
# Span arithmetic


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it its children cover.

    Children on pool threads can overlap each other, so coverage is the
    union of the child intervals clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            lo, hi = max(span[START], parent[START]), min(span[END], parent[END])
            if hi > lo:
                children.setdefault(span[PARENT], []).append((lo, hi))
    return [
        (span[END] - span[START]) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict[str, dict]:
    """``{span name: {count, total_s, self_s}}``."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        row = out.setdefault(span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return out
