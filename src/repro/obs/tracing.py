"""Hierarchical span-based tracing with contextvar propagation.

A :class:`Tracer` records :class:`Span` trees: each span has a name, wall
time (``time.perf_counter``), free-form attributes, timestamped events, a
parent (the span open when it started) and a **trace id**: a root span
starts a new trace and every descendant inherits it, so all the work one
query triggers — planning, DAG-node execution on pool workers, cache
lookups, retries — is one connected tree (:meth:`Tracer.trace`).  Each
span records the thread and process it ran on, which is what lets the
Chrome trace exporter (:mod:`repro.obs.export`) draw worker lanes.

Propagation uses :mod:`contextvars`, so nesting works across ordinary
calls, generators, and threads started with a copied context (the DAG
executor copies its context into every pool submission).  Instrumented
code calls the module-level :func:`span` helper, which records into the
*currently active* tracer and is a cheap no-op when none is active.

A span's close takes no lock and calls nothing: it appends the span to
the bounded ring of retained spans (the oldest are overwritten, counted in
``dropped_spans`` and ``tracer_dropped_spans``) and, while a reader is
attached (:meth:`Tracer.add_reader`: the flight recorder, the site
profiler), to the tracer's **inbox**: each reader folds it from its own
cursor when read, and a closing root folds all every :data:`FOLD_AT` traces.
Overwriting is *retention*, not loss: every span reaches every reader.
Listeners (:meth:`Tracer.add_listener`) are fed per *trace*.
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
from time import perf_counter

from .metrics import current_registry

__all__ = [
    "InboxReader", "Span", "Tracer", "span", "current_tracer", "current_span",
    "add_span_event", "tracing_active",
]

#: Traces finished before the closing root folds every reader itself: a
#: fold's spans fit the ring, so a span it overwrites is freed at once.
FOLD_AT = 256


@dataclass(slots=True)
class Span:
    """One timed, attributed operation; part of a tree via ``parent_id``.

    ``trace_id`` groups every span descending from one root; ``events`` is
    a list of timestamped point annotations (retries, fault injections,
    degradation re-routes) attached while the span was active — on a span
    a tracer opened, an empty tuple until the first one.
    """

    name: str
    span_id: int
    trace_id: int = 0
    parent_id: int | None = None
    start: float = 0.0
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    events: list | tuple = field(default_factory=list)
    thread_id: int = 0
    thread_name: str = ""
    process_id: int = 0

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
        event = {"name": event_name, "ts": time.perf_counter(), **attributes}
        if self.events:
            self.events.append(event)
        else:
            self.events = [event]

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
    """Records finished spans into a ring and an inbox its readers fold.

    One tracer may be written from the scheduler thread and every pool
    worker of a batch execution concurrently: ids come from counters and a
    close appends without a lock; reading takes an internal lock.
    """

    def __init__(self, max_spans: int = 4096):
        self.max_spans = max_spans
        #: The ring of retained spans: a close appends to it, overwriting
        #: the oldest; ``_cleared`` counts what :meth:`clear` dropped.
        self.finished: deque[Span] = deque(maxlen=max_spans)
        self._cleared = 0
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Finished spans in finish order, for the readers: ``_inbox[0]`` is
        #: the ``_base``-th span the tracer finished.  Each reader reads from
        #: its cursor (an absolute index); what all have read is trimmed.
        self._inbox: list[Span] = []
        self._base = 0
        self._cursors: dict = {}
        self._roots = 0
        #: Spans finished with no reader, counted lock-free; reading it
        #: advances it too, so reads are counted (``_peeks``) and subtracted.
        self._unread = itertools.count()
        self._peeks = 0
        #: Trace listeners (read lock-free), and the finished children of
        #: each open trace that began while one listened.
        self._listeners: tuple = ()
        self._parked: dict[int, list[Span]] = {}
        #: ``tracer_dropped_spans``, bound when the first span the ring
        #: cannot hold opens, and the drops it has been told of.
        self._dropped_series = None
        self._drops_folded = 0

    # ------------------------------------------------------------------
    # Recording

    def add_listener(self, listener) -> None:
        """Call ``listener(spans)`` for every trace this tracer finishes.

        ``spans`` is the finished trace — descendants in finish order, the
        root last — handed over when the root finishes.  A span finishing
        after its root (a pool worker outliving a timed-out query), or
        whose trace began with nothing listening, arrives alone.  Listeners
        run outside the tracer lock on the finishing thread; one that
        raises is skipped, never propagated into the instrumented call.
        """
        with self._lock:
            self._listeners = self._listeners + (listener,)

    def add_reader(self, fold) -> None:
        """Keep the spans finished from now on for the reader whose fold is
        ``fold`` (it takes them with :meth:`read`); a root's close runs
        every reader's fold once :data:`FOLD_AT` traces wait."""
        with self._lock:
            self._cursors[fold] = self._base + len(self._inbox)

    def remove_reader(self, fold) -> None:
        """Detach a reader added with :meth:`add_reader` (idempotent)."""
        with self._lock:
            self._cursors.pop(fold, None)
            self._trim()

    def read(self, fold) -> list[Span]:
        """The spans finished since the reader ``fold`` last read."""
        # Length before base: a trim moves the base first, so a lock-free
        # look can only over-count what waits, never miss it.
        at = self._cursors.get(fold)
        if at is None or at >= len(self._inbox) + self._base:
            return []
        with self._lock:
            at = self._cursors.get(fold)
            if at is None:
                return []
            spans = self._inbox[at - self._base :]
            self._cursors[fold] = at + len(spans)
            self._trim()
        return spans

    def fold(self) -> None:
        """Run every reader's fold (a full inbox does, inside a span's
        close: like a listener, a raising reader is skipped there)."""
        self._roots = 0
        for fold in tuple(self._cursors):
            try:
                fold()
            except Exception:
                pass
        with self._lock:
            self._trim()

    def _trim(self) -> None:
        """Drop what every reader has read (lock held)."""
        low = min(self._cursors.values(), default=self._base + len(self._inbox))
        if low > self._base:
            drop = low - self._base
            self._base = low
            del self._inbox[:drop]

    @property
    def dropped_spans(self) -> int:
        """Finished spans the ring overwrote (every reader still had them)."""
        with self._lock:
            unread = next(self._unread) - self._peeks
            self._peeks += 1
            finished = self._base + len(self._inbox) + unread
        return max(0, finished - self._cleared - len(self.finished))

    def _watch_drops(self) -> None:
        """Bind ``tracer_dropped_spans`` on the current registry, folded
        from :attr:`dropped_spans` whenever that registry is read."""
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
        dropped = self.dropped_spans
        with self._lock:
            drops = dropped - self._drops_folded
            if drops > 0:
                self._drops_folded = dropped
        if drops > 0:
            self._dropped_series.inc(drops)

    def _open(self, name: str, attributes: dict) -> Span:
        """A started span, child of the active one; the caller makes it
        active (``_ACTIVE_SPAN``) and closes it with :meth:`_close`."""
        parent = _ACTIVE_SPAN.get()
        try:
            thread_id, thread_name = _lane.value
        except AttributeError:
            thread_id, thread_name = _thread_lane()
        if parent is None:
            trace_id, parent_id = next(self._trace_ids), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span_id = next(self._ids)
        if span_id > self.max_spans and self._dropped_series is None:
            self._watch_drops()  # this span will overwrite one
        # Positional, in field order: the keyword parse is a measurable
        # share of opening a span.
        current = Span(
            name, span_id, trace_id, parent_id, perf_counter(), None,
            attributes, (), thread_id, thread_name, _process_id,
        )
        if parent is None and self._listeners:
            self._parked[trace_id] = []
        return current

    def _close(self, span: Span, exc_type) -> None:
        """End ``span`` and append it to the ring and, while a reader is
        attached, the inbox.  A span that ended in an exception carries its
        type (``error``), so the flight recorder keeps failed traces with no
        annotation by hand."""
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        span.end = perf_counter()
        self.finished.append(span)
        if not self._cursors:
            next(self._unread)
        else:
            self._inbox.append(span)
            if span.parent_id is None:
                # A bound, not an account: an increment lost to a race
                # only delays the fold.
                self._roots += 1
                if self._roots >= FOLD_AT:
                    self.fold()
        if self._listeners:
            self._deliver(span)

    def _deliver(self, span: Span) -> None:
        """Park a finished child while its root is open; hand a finished
        root's trace (or a span whose root is gone) to the listeners."""
        with self._lock:
            if span.parent_id is None:
                trace = (*self._parked.pop(span.trace_id, ()), span)
            elif span.trace_id in self._parked:
                self._parked[span.trace_id].append(span)
                return
            else:
                trace = (span,)
            listeners = self._listeners
        for listener in listeners:
            try:
                listener(trace)
            except Exception:
                pass

    def span(self, name: str, **attributes) -> "_OpenSpan":
        """Open a child of the active span (none: a new trace) when the
        ``with`` block is entered."""
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
            self._cleared += len(self.finished)
            self.finished.clear()

    def summary(self) -> dict[str, dict]:
        """Per-name aggregates: count, total/mean duration, and summed
        ``operations`` attributes (the per-stage op counts of a query)."""
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


class InboxReader:
    """A reader of one tracer's inbox (the flight recorder, the profiler):
    :meth:`fold` hands :meth:`_take` every span finished since the last
    fold, in finish order, under the reader's lock, then the traces handed
    to :meth:`on_trace`, which wait in a queue of the reader's own until
    ``fold_at`` do."""

    def __init__(self, tracer: "Tracer", fold_at: int):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._fold_at = fold_at
        self._given: list[tuple[Span, ...]] = []
        tracer.add_reader(self.fold)

    def _take(self, spans: list[Span]) -> None:
        raise NotImplementedError

    def on_trace(self, spans: tuple[Span, ...]) -> None:
        """Queue one finished trace (root last), or a lone span."""
        given = self._given
        given.append(spans)
        if len(given) >= self._fold_at:
            self.fold()

    def fold(self) -> None:
        """Account every span waiting for this reader, in arrival order."""
        with self._lock:
            spans = self.tracer.read(self.fold)
            given = self._given
            if given:
                # Only what is there now: a trace queued meanwhile stays.
                count = len(given)
                for trace in given[:count]:
                    spans += trace
                del given[:count]
            if spans:
                self._take(spans)

    def close(self) -> None:
        """Fold what is waiting and detach from the tracer (idempotent)."""
        self.fold()
        self.tracer.remove_reader(self.fold)


class _OpenSpan:
    """The ``with`` block of one :meth:`Tracer.span` call (slotted, not a
    generator: the executor opens one per DAG node)."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token")

    def __init__(self, tracer: Tracer, name: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._span = current = self._tracer._open(self._name, self._attributes)
        self._token = _ACTIVE_SPAN.set(current)
        return current

    def __exit__(self, exc_type, exc, traceback) -> bool:
        _ACTIVE_SPAN.reset(self._token)
        self._tracer._close(self._span, exc_type)
        return False


#: ``os.getpid()``, read once per process instead of once per span, and
#: each thread's ``(ident, name)``, read once per thread (``_lane.value``);
#: a forked child reads both afresh before it can open a span.
_process_id = os.getpid()
_lane = threading.local()


def _thread_lane() -> tuple[int, str]:
    thread = threading.current_thread()
    _lane.value = lane = (thread.ident or 0, thread.name)
    return lane


def _after_fork() -> None:
    global _process_id, _lane
    _process_id = os.getpid()
    _lane = threading.local()


os.register_at_fork(after_in_child=_after_fork)


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
    """Whether a tracer is receiving spans: hot paths skip building costly
    span attributes (``describe()`` strings) when not."""
    return _ACTIVE_TRACER.get() is not None


def span(name: str, **attributes):
    """Open a span on the active tracer; a no-op when tracing is off."""
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return _OpenSpan(tracer, name, attributes)


def add_span_event(event_name: str, /, **attributes) -> None:
    """Attach an event to the innermost open span (no-op when none): how
    fault injection, retries and re-routes annotate the query's span."""
    active = _ACTIVE_SPAN.get()
    if active is not None:
        active.add_event(event_name, **attributes)
