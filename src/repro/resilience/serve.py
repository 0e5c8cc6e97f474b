"""The serve envelope of :class:`~repro.server.OLAPServer`.

Every view, batch and range the server answers runs inside one
:class:`_Serve`: admission, deadline, one span, one call-log record.  Its
assembly goes through :func:`assemble_resilient`, which retries transient
faults on the server's budget (:func:`with_retries`, over
:func:`~repro.resilience.retry.retry_transient`) and degrades a
quarantine-incomplete set to the base cube (:func:`note_degraded` counts
it and marks the call).  Each function takes the server it serves; the
server owns the admission slots, the retry budget and the bound series
they write.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from numbers import Real

import numpy as np

from ..core.element import ElementId
from ..core.materialize import MaterializedSet, compute_element
from ..core.operators import OpCounter
from ..errors import (
    AdmissionRejected, IncompleteSetError, InvalidQueryError, QueryTimeout,
    TransientFault,
)
from ..obs import add_span_event, log_event
from ..obs.events import _ACTIVE_EVENT_LOG
from ..obs.metrics import _ACTIVE_REGISTRY
from ..obs.tracing import _ACTIVE_SPAN, _ACTIVE_TRACER
from .deadline import SERVING, Deadline, deadline_scope
from .retry import retry_transient

__all__ = ["assemble_resilient", "note_degraded", "with_retries"]


class _Serve:
    """The one envelope every view, batch and range is served in.

    Entering makes the server's registry, tracer and event log the ambient
    ones and this call the one being served (:data:`SERVING`), takes an
    admission slot (always released on exit, also when the query times
    out or fails), opens the deadline scope — when there is a deadline, a
    real number of milliseconds — and the call's one span, made active.
    It sets those contextvars itself, with no nested context manager.
    The body reads ``state`` and ``counter``, leaves span attributes in
    ``attrs``, which is the span's attribute dict, and sets ``queries``
    (1 until it does) and the ``tracked`` elements once its requests
    resolve.

    A served call appends one record to the server's
    :class:`~repro.calllog.CallLog` (its queries, operations, ``tracked``
    elements, latency and alert sample), and writes nothing else; the log
    is folded when read.  A call that times out, is rejected, invalid
    (:class:`InvalidQueryError`) or fails is written at once, labelled by
    its outcome (:meth:`CallLog.failed`) — counted as asked once it was
    admitted and its deadline parsed, traced or not — and so is an alert
    sample some rule counts bad (:meth:`~repro.obs.alerts.AlertEngine.defer`).  The
    span is one append to the tracer's inbox; its readers fold it.

    A slotted class, not a generator: the envelope is most of what a
    cache hit costs, and every metric it writes is a series bound in
    :func:`repro.obs.incident.declare_metrics`.
    """

    __slots__ = (
        "server", "kind", "deadline_ms", "tracked", "queries", "attrs",
        "state", "counter", "degraded", "_span_name", "_tokens", "_start",
        "_admitted", "_asked", "_deadline", "_tracer", "_span", "_span_token",
    )

    def __init__(
        self, server, span_name: str, kind: str, deadline_ms: float | None
    ):
        self.server = server
        self.kind = kind
        self.deadline_ms = deadline_ms
        self.tracked = ()
        self.queries = 1
        self.attrs = {"kind": kind}
        self.degraded = False
        self._span_name = span_name
        self._admitted = self._asked = False
        self._deadline = self._span = None

    def __enter__(self) -> "_Serve":
        server = self.server
        obs = server.obs
        if obs.tracing:
            tracer = obs.tracer
            tracer_token = _ACTIVE_TRACER.set(tracer)
        else:
            tracer, tracer_token = _ACTIVE_TRACER.get(), None
        self._tokens = (
            _ACTIVE_REGISTRY.set(obs.registry),
            tracer_token,
            _ACTIVE_EVENT_LOG.set(obs.events),
            SERVING.set(self),
        )
        self._start = time.perf_counter()
        try:
            admission = server._admission
            if admission is not None:
                if not admission.acquire(blocking=False):
                    limit = server.max_in_flight
                    server._m.admission_rejected.inc(kind=self.kind)
                    log_event("admission_rejected", kind=self.kind, limit=limit)
                    raise AdmissionRejected(
                        f"server at capacity ({limit} in flight)", limit=limit
                    )
                server._m.in_flight.inc(1)
                self._admitted = True
            deadline_ms = self.deadline_ms
            if deadline_ms is not None:
                if not isinstance(deadline_ms, Real):
                    raise InvalidQueryError(
                        "deadline_ms must be a number of milliseconds, got "
                        f"{type(deadline_ms).__name__} {deadline_ms!r}"
                    )
                self._deadline = deadline_scope(Deadline.after(deadline_ms / 1e3))
                self._deadline.__enter__()
            # Admitted, its deadline parsed: from here the call counts as
            # asked, whether or not a span opens for it.
            self._asked = True
            if tracer is not None:
                self._tracer = tracer
                self._span = tracer._open(self._span_name, self.attrs)
                self._span_token = _ACTIVE_SPAN.set(self._span)
            self.state = server._state
            self.counter = OpCounter()
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        server, kind = self.server, self.kind
        m = server._m
        try:
            try:
                if exc_type is None:
                    self.attrs["operations"] = self.counter.total
                if self._span is not None:
                    _ACTIVE_SPAN.reset(self._span_token)
                    self._tracer._close(self._span, exc_type)
                if self._deadline is not None:
                    self._deadline.__exit__(exc_type, exc, traceback)
            finally:
                if self._admitted:
                    server._admission.release()
                    m.in_flight.inc(-1)
        except BaseException as failure:
            exc_type = type(failure)
            raise
        finally:
            if exc_type is None:
                outcome = "ok"
            elif issubclass(exc_type, QueryTimeout):
                outcome = "timeout"
                m.timeouts.inc(kind=kind)
                log_event(
                    "deadline_missed", kind=kind, deadline_ms=self.deadline_ms
                )
            elif issubclass(exc_type, AdmissionRejected):
                outcome = "rejected"
            elif issubclass(exc_type, InvalidQueryError):
                outcome = "invalid"
            else:
                outcome = "error"
            latency_ms = (time.perf_counter() - self._start) * 1e3
            alerts = server.alerts
            if outcome == "ok":
                now = None
                if alerts is not None:
                    now = alerts.defer(latency_ms, self.degraded)
                server._log.append(
                    (kind, self.queries, self.attrs["operations"],
                     self.tracked, latency_ms, now)
                )
            else:
                server._log.failed(
                    kind, self.queries, self._asked, outcome, latency_ms
                )
            if alerts is not None and (outcome != "ok" or now is None):
                alerts.record(outcome, latency_ms, degraded=self.degraded)
            registry, tracer, events, serving = self._tokens
            SERVING.reset(serving)
            _ACTIVE_EVENT_LOG.reset(events)
            if tracer is not None:
                _ACTIVE_TRACER.reset(tracer)
            _ACTIVE_REGISTRY.reset(registry)
        return False

    def note_degraded(self, target: str, targets: int) -> None:
        """``targets`` answers of this call fell back to ``target``; safe
        from a scatter leg's thread (see :data:`SERVING`)."""
        note_degraded(self.server, target, targets)


def with_retries(server, attempt, counter: OpCounter, *, fatal: bool = True):
    """:func:`retry_transient` on ``server``'s budget, with telemetry.

    Every fault is counted and emits a ``retry`` span / log event.
    Exhaustion is flagged and counted only when ``fatal`` — the re-raised
    fault fails the call; a caller whose fallback still serves the answer
    passes ``False``."""
    m, max_retries = server._m, server.max_retries

    def note(faults: int) -> None:
        m.retries.inc()
        exhausted = fatal and faults > max_retries
        add_span_event("retry", attempt=faults, exhausted=exhausted)
        log_event("retry", attempt=faults, exhausted=exhausted)
        if exhausted:
            m.retry_exhausted.inc()

    return retry_transient(
        attempt, counter, max_retries=max_retries, on_retry=note
    )


def note_degraded(server, target: str = "base_cube", targets: int = 1) -> None:
    """Count ``targets`` answers served from ``target`` (the base cube, or
    a shard's base slab) and mark the call being served degraded."""
    server._m.degraded.inc(targets)
    add_span_event("fallback", target=target)
    log_event("fallback", target=target)
    serving = SERVING.get()
    if serving is not None:
        serving.degraded = True


def assemble_resilient(
    server, materialized: MaterializedSet, elements: Sequence[ElementId],
    counter: OpCounter, max_workers: int = 1, warm=None,
) -> dict[ElementId, np.ndarray]:
    """``{element: values}`` for ``elements``, distinct (from a ``warm``
    ancestor where cheaper), with retries and base-cube degradation.

    Several elements first try one shared plan under the retry budget.
    That execution is all-or-nothing and a retry re-rolls every node's
    fault dice, so its failure probability does not shrink with the
    batch's size: once the budget is spent (or the set went incomplete
    mid-plan), and at once for one element, each element is a retried
    batch of one with its own budget.  A quarantine-induced incomplete set
    falls back to the perfect reconstruction route from ``server``'s base
    cube (its read-only view, which is the root's answer itself;
    bit-identical for the integer-valued measures the chaos gate
    replays); its scratch counter, like the retry loop's, is merged only
    once it served."""
    if len(elements) > 1:
        try:
            return with_retries(
                server,
                lambda s: materialized.assemble_batch(
                    elements, counter=s, max_workers=max_workers, warm=warm
                ),
                counter,
                fatal=False,
            )
        except (TransientFault, IncompleteSetError):
            pass
    answers = {}
    for element in elements:
        try:
            answers[element] = with_retries(
                server,
                lambda s: materialized.assemble_batch(
                    [element], counter=s, max_workers=max_workers, warm=warm
                )[element],
                counter,
            )
        except IncompleteSetError:
            scratch = OpCounter()
            answers[element] = compute_element(
                server.cube.readonly, element, counter=scratch
            )
            counter.merge(scratch)
            note_degraded(server)
    return answers
