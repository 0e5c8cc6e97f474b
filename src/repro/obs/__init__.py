"""Observability: metrics, hierarchical tracing, events, and exporters.

The reproduction's hot path — :meth:`MaterializedSet.assemble
<repro.core.materialize.MaterializedSet.assemble>`, the shared-plan DAG
executor (:mod:`repro.core.exec`), the
:class:`~repro.core.engine.SelectionEngine` level sweeps,
:class:`~repro.core.range_query.RangeQueryEngine`, and the
:class:`~repro.server.OLAPServer` query surface — is instrumented against
this package:

- :mod:`repro.obs.metrics` — counter/gauge/histogram registry with
  bucketed quantile estimation (p50/p95/p99);
- :mod:`repro.obs.tracing` — hierarchical span tracing (trace/span/parent
  ids, span events, thread/process lanes) with contextvar propagation
  across the thread pool;
- :mod:`repro.obs.events` — a bounded structured event log (admissions,
  deadline misses, retries, quarantines, epoch bumps) exportable as JSONL;
- :mod:`repro.obs.cache` — the bounded LRU cache (hit/miss/eviction
  metrics) backing the server's assembled-view result cache;
- :mod:`repro.obs.profile` — planned-vs-measured query profiles joined
  from one trace (the cost-model feedback signal);
- :mod:`repro.obs.export` — Chrome trace-event JSON and Prometheus text
  exposition;
- :mod:`repro.obs.http` — the stdlib ``/metrics`` + ``/health`` endpoint;
- :mod:`repro.obs.incident` — a server's ``server_*`` series, ``health()``
  payload, alert callbacks and diagnostic bundles;
- :mod:`repro.obs.reporting` — ASCII tables and plots (the experiment
  reports) and the text/JSON export of the ``repro stats`` CLI.

Instrumentation is *ambient*: library code writes to whatever registry,
tracer, and event log are currently activated (see :class:`Observability`),
and tracing no-ops entirely when nothing is active, so standalone use of
the core modules costs one contextvar read per instrumented call.
"""

from __future__ import annotations

from contextlib import contextmanager

from .alerts import AlertEngine, BurnRateRule, ManualClock, default_rules
from .cache import LRUCache
from .events import _ACTIVE_EVENT_LOG, EventLog, current_event_log, log_event
from .fingerprint import FingerprintTracker, SiteProfiler, WorkloadFingerprint
from .flight import (
    FlightRecorder, KeptTrace, load_bundle, validate_bundle, write_bundle,
)
from .metrics import (
    _ACTIVE_REGISTRY, DEFAULT_BUCKETS, MAX_LABEL_SETS, Counter, Gauge,
    Histogram, MetricsRegistry, current_registry, default_registry,
)
from .tracing import (
    _ACTIVE_TRACER, Span, Tracer, add_span_event, current_span, current_tracer,
    span, tracing_active,
)

__all__ = [
    "AlertEngine", "BurnRateRule", "Counter", "DEFAULT_BUCKETS", "EventLog",
    "FingerprintTracker", "FlightRecorder", "Gauge", "Histogram", "KeptTrace",
    "LRUCache", "MAX_LABEL_SETS", "ManualClock", "MetricsRegistry",
    "Observability", "SiteProfiler", "Span", "Tracer", "WorkloadFingerprint",
    "add_span_event", "current_event_log", "current_registry", "current_span",
    "current_tracer", "default_registry", "default_rules", "load_bundle",
    "log_event", "span", "tracing_active", "validate_bundle", "write_bundle",
]


class Observability:
    """A registry + tracer + event log triple owned by one serving component.

    ``with obs.activate():`` routes all ambient instrumentation (the
    module-level :func:`span` / :func:`log_event` helpers and
    :func:`current_registry`) into this triple for the duration of the
    block, nesting correctly with other activations on the stack.

    ``tracing=False`` keeps the tracer object (so reporting surfaces stay
    uniform) but leaves it out of activation: the ambient :func:`span`
    helper then no-ops, which is the untraced baseline the
    tracing-overhead benchmark compares against.
    """

    def __init__(
        self,
        max_spans: int = 4096,
        max_events: int = 4096,
        tracing: bool = True,
    ):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_spans=max_spans)
        self.events = EventLog(max_events=max_events)
        self.tracing = tracing

    @contextmanager
    def activate(self):
        """Make this triple the ambient instrumentation target."""
        registry = _ACTIVE_REGISTRY.set(self.registry)
        tracer = _ACTIVE_TRACER.set(self.tracer) if self.tracing else None
        events = _ACTIVE_EVENT_LOG.set(self.events)
        try:
            yield self
        finally:
            _ACTIVE_EVENT_LOG.reset(events)
            if tracer is not None:
                _ACTIVE_TRACER.reset(tracer)
            _ACTIVE_REGISTRY.reset(registry)

    def reset(self) -> None:
        """Clear all metrics, finished spans, and logged events."""
        self.registry.clear()
        self.tracer.clear()
        self.events.clear()
