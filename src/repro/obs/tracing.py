"""Hierarchical span-based tracing with contextvar propagation.

A :class:`Tracer` records :class:`Span` trees: each span has a name, wall
time (``time.perf_counter``), free-form attributes, timestamped events, and
a parent — the span that was open when it started.  Every span also carries
a **trace id**: a root span (no open parent) starts a new trace and every
descendant inherits it, so all the work one query triggers — planning,
DAG-node execution on pool workers, cache lookups, retries — shares one id
and can be reassembled into a single connected tree (:meth:`Tracer.trace`).

Propagation uses :mod:`contextvars`, so nesting works across ordinary
calls, generators, and threads started with a copied context (the DAG
executor copies its context into every pool submission), without threading
a tracer argument through every function.

Each span records the thread and process it ran on, which is what lets the
Chrome trace exporter (:mod:`repro.obs.export`) draw scheduler and worker
lanes under the serving process.

Instrumented library code calls the module-level :func:`span` helper, which
records into the *currently active* tracer and is a cheap no-op when none is
active — importing an instrumented module never forces tracing on.

The tracer keeps a bounded ring of finished spans (oldest overwritten);
overwrites are counted (``dropped_spans``, and the ``tracer_dropped_spans``
counter, which catches up with it whenever its registry is read), so a
long-running server can stay instrumented without growing memory and
still report how much history it shed.  Overwriting is
*retention*, not loss: every span was recorded and handed to the listeners
before it aged out.

Listeners (the flight recorder, the site profiler) are fed per *trace*, not
per span: a finished child is parked on its root, and when the root
finishes the listeners get the whole trace in one call — so a span below
the root costs one ring append, whatever is listening.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .metrics import current_registry

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_tracer",
    "current_span",
    "add_span_event",
    "tracing_active",
]


@dataclass(slots=True)
class Span:
    """One timed, attributed operation; part of a tree via ``parent_id``.

    ``trace_id`` groups every span descending from one root; ``events`` is
    a list of timestamped point annotations (retries, fault injections,
    degradation re-routes) attached while the span was active.
    """

    name: str
    span_id: int
    trace_id: int = 0
    parent_id: int | None = None
    start: float = 0.0
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    thread_id: int = 0
    thread_name: str = ""
    process_id: int = 0
    #: Tracer bookkeeping for the per-trace listener feed: a child points
    #: at its trace's root; an open root parks its finished descendants in
    #: ``_parked`` (``None`` once delivered, or with nothing listening).
    _root: "Span | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _parked: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def duration(self) -> float:
        """Elapsed seconds (to "now" while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set(self, **attributes) -> None:
        """Attach or overwrite attributes."""
        self.attributes.update(attributes)

    def add_event(self, event_name: str, /, **attributes) -> None:
        """Attach a timestamped point event to this span."""
        self.events.append(
            {"name": event_name, "ts": time.perf_counter(), **attributes}
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (durations in milliseconds)."""
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "duration_ms": self.duration * 1e3,
            "attributes": dict(self.attributes),
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "process_id": self.process_id,
        }
        if self.events:
            out["events"] = [dict(e) for e in self.events]
        return out


class _NullSpan:
    """Shared do-nothing span for when no tracer is active."""

    __slots__ = ()

    def set(self, **attributes) -> None:
        pass

    def add_event(self, event_name: str, /, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records finished spans into a bounded, lock-guarded ring buffer.

    One tracer may be written from the scheduler thread and every pool
    worker of a batch execution concurrently; id allocation and the
    finished ring take an internal lock.
    """

    def __init__(self, max_spans: int = 4096):
        self.max_spans = max_spans
        self.finished: deque[Span] = deque(maxlen=max_spans)
        self.dropped_spans = 0
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Trace listeners (flight recorder, site profiler), stored as an
        #: immutable tuple so the hot path reads it without the lock.
        self._listeners: tuple = ()
        #: ``tracer_dropped_spans`` on the registry current at the first
        #: overwrite, and how many drops it has been told of: a pre-read
        #: hook there folds the rest in (:meth:`_fold_drops`).
        self._dropped_series = None
        self._drops_folded = 0

    # ------------------------------------------------------------------
    # Recording

    def add_listener(self, listener) -> None:
        """Call ``listener(spans)`` for every trace this tracer finishes.

        ``spans`` is the finished trace — descendants in finish order, the
        root last — handed over once, when the root finishes.  A span that
        finishes after its root (a pool worker outliving a timed-out
        query), or whose trace began with nothing listening, arrives alone
        as a one-span tuple.  Listeners run on whatever thread finished
        the root and outside the tracer lock; they must be fast and are
        isolated — a raising listener is dropped from the notification,
        never propagated into the instrumented call.
        """
        with self._lock:
            self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener) -> None:
        """Detach a listener added with :meth:`add_listener` (idempotent)."""
        with self._lock:
            # Equality, not identity: each ``obj.method`` access builds a
            # fresh bound-method object, so identity would never match.
            self._listeners = tuple(
                fn for fn in self._listeners if fn != listener
            )

    def _watch_drops(self) -> None:
        """Bind ``tracer_dropped_spans`` on the current registry (the first
        overwrite's) and fold :attr:`dropped_spans` into it whenever that
        registry is read; an overwrite itself writes no metric."""
        registry = current_registry()
        series = registry.counter(
            "tracer_dropped_spans",
            "finished spans evicted from the tracer ring buffer",
        ).labels()
        with self._lock:
            if self._dropped_series is not None:
                return
            self._dropped_series = series
        registry.add_pre_read(self._fold_drops)

    def _fold_drops(self) -> None:
        """Registry pre-read hook: count the drops since the last read."""
        with self._lock:
            drops = self.dropped_spans - self._drops_folded
            self._drops_folded = self.dropped_spans
        if drops:
            self._dropped_series.inc(drops)

    def _finish(self, span: Span) -> None:
        root = span._root
        with self._lock:
            finished = self.finished
            overwrote = len(finished) == finished.maxlen
            if overwrote:
                self.dropped_spans += 1
            finished.append(span)
            listeners = self._listeners
            if root is not None and root._parked is not None:
                root._parked.append(span)
                trace = None
            else:
                trace = (*(span._parked or ()), span)
                span._parked = None
        if overwrote and self._dropped_series is None:
            self._watch_drops()
        if trace is not None:
            for listener in listeners:
                try:
                    listener(trace)
                except Exception:
                    pass

    def span(self, name: str, **attributes) -> "_OpenSpan":
        """Open a child span of whatever span is currently active.

        A span opened with no active parent starts a new trace.  The
        :class:`Span` starts when the ``with`` block is entered.
        """
        return _OpenSpan(self, name, attributes)

    # ------------------------------------------------------------------
    # Reading

    @contextmanager
    def activate(self):
        """Route the module-level :func:`span` helper here inside the block."""
        token = _ACTIVE_TRACER.set(self)
        try:
            yield self
        finally:
            _ACTIVE_TRACER.reset(token)

    def spans(self, name: str | None = None) -> tuple[Span, ...]:
        """Finished spans, optionally filtered by name, oldest first."""
        with self._lock:
            snapshot = tuple(self.finished)
        if name is None:
            return snapshot
        return tuple(s for s in snapshot if s.name == name)

    def trace_ids(self) -> tuple[int, ...]:
        """Distinct trace ids among finished spans, oldest first."""
        seen: dict[int, None] = {}
        for s in self.spans():
            seen.setdefault(s.trace_id, None)
        return tuple(seen)

    def trace(self, trace_id: int | None = None) -> tuple[Span, ...]:
        """All finished spans of one trace (default: the newest trace)."""
        spans = self.spans()
        if trace_id is None:
            if not spans:
                return ()
            trace_id = spans[-1].trace_id
        return tuple(s for s in spans if s.trace_id == trace_id)

    def clear(self) -> None:
        """Drop all finished spans (keeps the dropped-span count)."""
        with self._lock:
            self.finished.clear()

    def summary(self) -> dict[str, dict]:
        """Per-name aggregates: count, total/mean duration, summed ops.

        ``operations`` sums the ``operations`` attribute over spans that
        carry one — the per-stage op-count view of a traced query path.
        """
        out: dict[str, dict] = {}
        for s in self.spans():
            agg = out.setdefault(
                s.name,
                {"count": 0, "total_ms": 0.0, "operations": 0},
            )
            agg["count"] += 1
            agg["total_ms"] += s.duration * 1e3
            ops = s.attributes.get("operations")
            if ops is not None:
                agg["operations"] += int(ops)
        for agg in out.values():
            agg["mean_ms"] = agg["total_ms"] / agg["count"]
        return out


class _OpenSpan:
    """The ``with`` block of one :meth:`Tracer.span` call.

    A plain slotted context manager: the executor opens one per DAG node,
    where a generator-based one costs more than the bookkeeping it wraps.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token")

    def __init__(self, tracer: Tracer, name: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = _ACTIVE_SPAN.get()
        thread = threading.current_thread()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(tracer._trace_ids), None
        # Positional, in field order: one span per served call makes the
        # keyword-argument parse a measurable share of opening it.
        self._span = current = Span(
            self._name,
            next(tracer._ids),
            trace_id,
            parent_id,
            time.perf_counter(),
            None,
            self._attributes,
            [],
            thread.ident or 0,
            thread.name,
            _process_id,
        )
        if parent is not None:
            current._root = parent._root or parent
        elif tracer._listeners:
            current._parked = []
        self._token = _ACTIVE_SPAN.set(current)
        return current

    def __exit__(self, exc_type, exc, traceback) -> bool:
        current = self._span
        if exc_type is not None:
            # Self-recorded failure: a span that ended in an exception
            # carries the exception type, so tail-biased consumers (the
            # flight recorder) can keep failed traces without the serving
            # code annotating every error path by hand.
            current.attributes.setdefault("error", exc_type.__name__)
        current.end = time.perf_counter()
        _ACTIVE_SPAN.reset(self._token)
        self._tracer._finish(current)
        return False


#: ``os.getpid()``, read once per process instead of once per span; a
#: forked child re-reads it before it can open a span.
_process_id = os.getpid()


def _refresh_process_id() -> None:
    global _process_id
    _process_id = os.getpid()


os.register_at_fork(after_in_child=_refresh_process_id)


_ACTIVE_TRACER: ContextVar[Tracer | None] = ContextVar(
    "repro_obs_tracer", default=None
)
_ACTIVE_SPAN: ContextVar[Span | None] = ContextVar(
    "repro_obs_span", default=None
)


def current_tracer() -> Tracer | None:
    """The innermost activated tracer, or ``None``."""
    return _ACTIVE_TRACER.get()


def current_span() -> Span | None:
    """The innermost open span in this context, or ``None``."""
    return _ACTIVE_SPAN.get()


def tracing_active() -> bool:
    """Whether a tracer is currently receiving spans.

    Hot paths use this to skip building expensive span attributes
    (``element.describe()`` strings, per-node counters) when tracing is
    off, keeping the untraced cost of instrumentation to one contextvar
    read.
    """
    return _ACTIVE_TRACER.get() is not None


def span(name: str, **attributes):
    """Open a span on the active tracer; a no-op when tracing is off."""
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return _OpenSpan(tracer, name, attributes)


def add_span_event(event_name: str, /, **attributes) -> None:
    """Attach an event to the innermost open span (no-op when none).

    This is how out-of-band machinery — fault injection, retry loops,
    degradation re-routes — annotates the query span it happened inside
    without holding a span reference.
    """
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.add_event(event_name, **attributes)
