"""A high-level OLAP server facade over the whole reproduction.

:class:`OLAPServer` is the "downstream user" entry point: it owns a data
cube built from records, tracks the observed workload, selects and
materializes view element sets (Algorithm 1, optionally Algorithm 2 under a
storage budget), and serves aggregated views, roll-ups, and range queries —
with per-query operation accounting throughout.

Every answer it gives can also be computed with the public pieces
(``repro.cube``, ``repro.core``) directly; what exists only here is the
serving machinery around them.  Each mechanism exists once: one serve
envelope that every view, batch and range passes through (:class:`_Serve`
— admission, deadline, one span, one accounting), one retry loop shared
with the shards (:func:`repro.resilience.retry.retry_transient`), one
routine that publishes a serving state, one migration that builds a new
stored set from an old one (:meth:`OLAPServer._migrate`), one workload
table (:class:`~repro.core.adaptive.AccessTracker`), and the ``server_*``
metrics declared once at construction.

- **Observability** — every server owns a :class:`~repro.obs.Observability`
  triple; query, reconfiguration and update paths run with it activated,
  so the ambient instrumentation in ``repro.core`` lands in the server's
  own registry.  ``python -m repro stats`` renders it with :meth:`health`.
- **Result cache** — the range engine's intermediates first, then a bounded
  LRU keyed by ``(ElementId, selection epoch)``; a miss aggregates its
  smallest warm ancestor where that is cheaper than storage.
  :meth:`reconfigure` bumps the epoch; updates *patch* warm answers in place.
- **Resilience** — ``(materialized, range_engine, epoch, cache)`` live in
  one immutable :class:`_ServingState` swapped in a single assignment, so
  a query sees one selection, never a mix.  Admission control, deadlines,
  transient-fault retries and graceful degradation (quarantined elements
  re-route to surviving ancestors, or to the base cube, which perfect
  reconstruction guarantees can answer anything) are constructor knobs.
- **Durability** — one attribute, a :class:`~repro.durability.Lineage`,
  holds the WAL, sequence state and snapshotter.  :meth:`snapshot` takes
  the consistent cut; :meth:`restore` installs a snapshot written on the
  same layout and rebuilds any other through :meth:`reconfigure`'s
  migration, then replays the WAL into the in-memory half of ingest.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import exec as batch_exec
from .core.adaptive import AccessTracker
from .core.delta import DeltaBatch
from .core.element import ElementId
from .core.engine import SelectionEngine
from .core.materialize import MaterializedSet, compute_element
from .core.operators import OpCounter
from .core.population import QueryPopulation
from .core.range_query import RangeQueryEngine, range_sum_direct
from .core.select_basis import select_minimum_cost_basis
from .cube.builder import build_cube
from .cube.datacube import DataCube
from .cube.hierarchy import rollup_element
from .durability import DurabilityConfig, Lineage
from .durability.lineage import restored_layout, write_cut
from .errors import (
    AdmissionRejected,
    IncompleteSetError,
    QueryTimeout,
    TransientFault,
)
from .obs import LRUCache, Observability, add_span_event, log_event, span
from .obs.alerts import FAST_WINDOW_S, SLOW_WINDOW_S, AlertEngine
from .obs.export import prometheus_text
from .obs.fingerprint import QUERY_KINDS, FingerprintTracker, SiteProfiler
from .obs.flight import (
    BUNDLE_FORMAT,
    HEAD_SAMPLE,
    MAX_TRACES,
    FlightRecorder,
    write_bundle,
)
from .obs.http import TelemetryServer
from .obs.profile import query_profile
from .resilience.deadline import Deadline, deadline_scope
from .resilience.faults import fault_point
from .resilience.retry import retry_transient
from .shard.partition import CubePartition
from .shard.sets import ShardedSet

__all__ = ["OLAPServer", "ServerStats"]

#: Result-cache entry bound when the constructor is given none.
CACHE_ENTRIES = 128
#: Executor workers a batch call asks for when it passes no ``max_workers``
#: (cost-aware dispatch demotes to serial when no node is worth a thread).
MAX_WORKERS = 4
#: Transient-fault retries before a query fails, and the base of their
#: exponential backoff, when the constructor is given none.
MAX_RETRIES = 2
RETRY_BACKOFF_MS = 5.0
#: The result cache's slab label, and the label its patch additions are
#: charged under.
CACHE_PATCH = "cache patch"

#: The :class:`_Serve` envelope of the call being served: resilience paths
#: mark it (``degraded``) and the alert feed reads it — without threading a
#: handle through every serve method.
_SERVING: ContextVar["_Serve | None"] = ContextVar(
    "repro_serving", default=None
)


@dataclass
class ServerStats:
    """Cumulative service statistics."""

    queries: int = 0
    operations: int = 0
    reconfigurations: int = 0
    last_expected_cost: float = float("nan")

    @property
    def operations_per_query(self) -> float:
        """Mean scalar operations per served query."""
        return self.operations / self.queries if self.queries else 0.0


@dataclass(frozen=True)
class _ServingState:
    """One consistent serving configuration, swapped atomically.

    Queries read ``server._state`` exactly once; :meth:`OLAPServer._publish`
    replaces it with one reference assignment (atomic under the GIL).  The
    range engine's ``slabs`` also hold the result cache's warm arrays once
    the server ingests, and order what readers cache against update bursts.
    """

    materialized: MaterializedSet
    range_engine: RangeQueryEngine
    epoch: int
    cache: LRUCache


class _Serve:
    """The one envelope every view, batch and range is served in.

    Entering activates the server's observability, takes an admission
    slot (always released on exit, also when the query times out or
    fails), opens the deadline scope — when there is a deadline — and the
    call's one span, and counts ``queries`` requests of ``kind``.  The body
    reads ``state`` and ``counter`` and leaves span attributes in
    ``attrs``; they are set on the span once, when it closes.  When the
    body returns, the call is accounted once: ``stats``, one tracker
    record per ``tracked`` element, the operations counter, the quarantine
    gauge when the count moved.  Every call — served, timed out, rejected
    or failed — lands one observation in the ``server_latency_ms``
    histogram (labelled by kind and outcome), which is where
    :meth:`OLAPServer.health`'s SLO quantiles come from, and one
    alert-engine record.

    A slotted class, not a generator: the envelope is most of what a
    cache hit costs, and every metric it writes is a series bound in
    :meth:`OLAPServer._declare_metrics`.
    """

    __slots__ = (
        "server",
        "kind",
        "deadline_ms",
        "tracked",
        "queries",
        "attrs",
        "state",
        "counter",
        "degraded",
        "_span_name",
        "_activation",
        "_token",
        "_start",
        "_admitted",
        "_deadline",
        "_open_span",
        "_span",
    )

    def __init__(
        self,
        server: "OLAPServer",
        span_name: str,
        kind: str,
        deadline_ms: float | None,
        tracked: Sequence[ElementId] = (),
        queries: int = 1,
        **attrs,
    ):
        self.server = server
        self.kind = kind
        self.deadline_ms = deadline_ms
        self.tracked = tracked
        self.queries = queries
        self.attrs = attrs
        self.degraded = False
        self._span_name = span_name
        self._admitted = False
        self._deadline = self._span = None

    def __enter__(self) -> "_Serve":
        server, kind = self.server, self.kind
        self._activation = server.obs.activate()
        self._activation.__enter__()
        self._start = time.perf_counter()
        self._token = _SERVING.set(self)
        try:
            if server._admission is not None:
                server._acquire_slot(kind)
                self._admitted = True
            ms = self.deadline_ms
            if ms is None:
                ms = server.default_deadline_ms
            if ms is not None:
                self._deadline = deadline_scope(Deadline.after(ms / 1e3))
                self._deadline.__enter__()
            self._open_span = span(self._span_name)
            self._span = self._open_span.__enter__()
            server._m.queries_of[kind].inc(self.queries)
            server.fingerprints.note_query(kind, self.queries)
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
                if self._span is not None:
                    if exc_type is None:
                        self._account()
                    self._span.set(kind=kind, **self.attrs)
                    self._open_span.__exit__(exc_type, exc, traceback)
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
            _SERVING.reset(self._token)
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
            else:
                outcome = "error"
            latency_ms = (time.perf_counter() - self._start) * 1e3
            if outcome == "ok":
                m.latency_ok_of[kind].observe(latency_ms)
            else:
                m.latency.observe(latency_ms, kind=kind, outcome=outcome)
            if server.alerts is not None:
                server.alerts.record(
                    outcome, latency_ms, degraded=self.degraded
                )
            self._activation.__exit__(None, None, None)
        return False

    def _account(self) -> None:
        """The served call's one accounting (the body returned)."""
        server = self.server
        m = server._m
        total = self.counter.total
        with server._stats_lock:
            server.stats.queries += self.queries
            server.stats.operations += total
            for element in self.tracked:
                server.tracker.record(element)
        m.operations.inc(total)
        quarantined = len(self.state.materialized.quarantined)
        if quarantined != server._quarantined_reported:
            server._quarantined_reported = quarantined
            m.quarantined.set(quarantined)
        self.attrs["operations"] = total


class OLAPServer:
    """Serve OLAP queries from a dynamically selected view element set."""

    def __init__(
        self,
        cube: DataCube,
        storage_budget: int | None = None,
        decay: float = 0.98,
        smoothing: float = 0.01,
        cache_entries: int = CACHE_ENTRIES,
        cache_cells: int | None = None,
        observability: Observability | None = None,
        max_in_flight: int | None = None,
        admission_wait_ms: float = 0.0,
        default_deadline_ms: float | None = None,
        max_retries: int = MAX_RETRIES,
        retry_backoff_ms: float = RETRY_BACKOFF_MS,
        degrade_to_base: bool = True,
        shards: int = 1,
        shard_axis: int | None = None,
        durability: DurabilityConfig | str | Path | None = None,
        alerts: AlertEngine | bool = True,
        flight: bool = True,
        diagnostics_dir: str | Path | None = None,
    ):
        """``storage_budget`` (cells) enables Algorithm 2 redundancy when it
        exceeds the cube volume; ``decay``/``smoothing`` configure workload
        tracking.  ``cache_entries``/``cache_cells`` bound the assembled-view
        result cache (entries and total cached cells); ``observability``
        supplies a shared metrics registry + tracer (one is created
        otherwise).

        Performance constants are module constants beside the code that
        reads them, not arguments: :data:`repro.core.exec.DISPATCH_THRESHOLD`,
        the plan caches' ``_PLAN_CACHE_ENTRIES``, the flight recorder's ``MAX_TRACES`` /
        ``HEAD_SAMPLE``, the alert windows and :data:`MAX_WORKERS`.
        :meth:`health` reports every value in effect under ``"tuning"``.

        Resilience knobs: ``max_in_flight`` bounds admitted queries
        (``None`` = unbounded) with ``admission_wait_ms`` of bounded wait
        before :class:`AdmissionRejected` (0 = fail-fast);
        ``default_deadline_ms`` applies to calls that pass no deadline;
        ``max_retries``/``retry_backoff_ms`` govern
        :class:`TransientFault` retries; ``degrade_to_base`` allows
        falling back to recomputation from the base cube when quarantine
        leaves the stored set incomplete.

        ``shards > 1`` (a power of two) partitions the cube into slabs
        along ``shard_axis`` (default: the largest extent, ties last) and
        serves every query scatter–gather over per-shard materialized
        sets — see :mod:`repro.shard`.  Answers are bit-identical to
        monolithic serving for integer-valued cubes on any axis, and for
        float cubes when the shard axis is the last dimension.

        ``durability`` (a :class:`~repro.durability.DurabilityConfig` or a
        bare directory path) starts a new lineage there: every update batch
        is logged before it returns, and an initial snapshot makes
        recovery possible from the first update.  The directory must be
        fresh; reopen an existing one with :meth:`restore`.

        Incident observability: ``alerts`` enables the multi-window SLO
        burn-rate engine (pass an :class:`~repro.obs.alerts.AlertEngine`
        to control rules/clock, ``False`` to disable); ``flight`` attaches
        the always-on flight recorder + continuous site profiler when the
        observability triple traces; ``diagnostics_dir`` lets firing
        alerts auto-dump diagnostic bundles (without it, only
        :meth:`dump_diagnostics` writes, explicitly)."""
        if cache_cells is not None and cache_cells <= 0:
            raise ValueError(
                f"cache_cells must be positive or None, got {cache_cells!r}"
            )
        if max_retries < 0 or retry_backoff_ms < 0:
            raise ValueError(
                "max_retries and retry_backoff_ms must be non-negative, got "
                f"{max_retries!r} / {retry_backoff_ms!r}"
            )
        self.cube = cube
        self.shape = cube.shape_id
        self.storage_budget = storage_budget
        self.smoothing = smoothing
        self.tracker = AccessTracker(decay=decay)
        self.stats = ServerStats()
        #: Guards ``stats`` and ``tracker`` so concurrent queries (client
        #: threads, or :meth:`query_batch` callers) account exactly.  The
        #: metrics registry and the result cache carry their own locks.
        self._stats_lock = threading.Lock()
        #: Serializes reconfigurations (queries are never blocked by it).
        self._reconfigure_lock = threading.Lock()
        self.obs = observability if observability is not None else Observability()
        self.metrics = self.obs.registry
        self.tracer = self.obs.tracer
        self._m = self._declare_metrics()
        #: What ``server_quarantined_elements`` last said: the gauge is
        #: written when the count changes, not once per query.
        self._quarantined_reported: int | None = None
        # Incident observability: flight recorder + site profiler ride the
        # tracer's per-trace listener feed, so they attach only when this
        # server actually traces (the telemetry-off baseline pays nothing).
        self.flight: FlightRecorder | None = None
        self.profiler: SiteProfiler | None = None
        if flight and self.obs.tracing:
            self.flight = FlightRecorder(self.tracer, registry=self.metrics)
            self.profiler = SiteProfiler(self.tracer)
        self.fingerprints = FingerprintTracker()
        if isinstance(alerts, AlertEngine):
            self.alerts: AlertEngine | None = alerts
        elif alerts:
            self.alerts = AlertEngine()
        else:
            self.alerts = None
        self.diagnostics_dir = (
            Path(diagnostics_dir) if diagnostics_dir is not None else None
        )
        self.max_auto_dumps = 8
        self._dump_lock = threading.Lock()
        self._dump_count = 0
        if self.alerts is not None:
            self.alerts.on_fire.append(self._on_alert_fire)
            self.alerts.on_resolve.append(self._on_alert_resolve)
        self.max_in_flight = max_in_flight
        self.admission_wait_ms = admission_wait_ms
        self.default_deadline_ms = default_deadline_ms
        self.max_retries = int(max_retries)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.degrade_to_base = degrade_to_base
        self._admission = (
            threading.BoundedSemaphore(max_in_flight)
            if max_in_flight is not None
            else None
        )
        self._cache_entries = int(cache_entries)
        self._cache_cells = cache_cells
        self._engine: SelectionEngine | None = None
        self.shards = int(shards)
        self._partition = (
            CubePartition.for_shape(self.shape, self.shards, axis=shard_axis)
            if self.shards > 1
            else None
        )
        # Start with the trivial selection: the cube itself.
        materialized = self._new_materialized()
        materialized.store(self.shape.root(), cube.values)
        self._publish(materialized, epoch=0)
        # Durability: a new lineage, started last so its first snapshot
        # captures a fully constructed server.
        self._lineage: Lineage | None = None
        if durability is not None:
            self._lineage = Lineage.create(durability)
            self.snapshot()
            self._lineage.start_snapshotter(
                self.snapshot, self.obs, self._m.snapshot_failures
            )

    def _declare_metrics(self) -> SimpleNamespace:
        """Every metric this class writes, declared once: the serving paths
        and :meth:`health` use these handles, not by-name lookups.  What a
        served call writes every time is bound down to its series
        (``*_of[kind]``, ``operations``, ``in_flight``), so the envelope
        builds no label key per query."""
        counter, gauge = self.metrics.counter, self.metrics.gauge
        queries = counter("server_queries_total", "queries served, by kind")
        batches = counter(
            "server_batches_total", "batch requests served, by kind"
        )
        latency = self.metrics.histogram(
            "server_latency_ms", "wall milliseconds per served call"
        )
        return SimpleNamespace(
            queries_of={k: queries.labels(kind=k) for k in QUERY_KINDS},
            batches_of={k: batches.labels(kind=k) for k in QUERY_KINDS},
            operations=counter(
                "server_operations_total", "scalar operations spent serving"
            ).labels(),
            latency=latency,
            latency_ok_of={
                k: latency.labels(kind=k, outcome="ok") for k in QUERY_KINDS
            },
            in_flight=gauge(
                "server_in_flight", "queries currently admitted"
            ).labels(),
            admission_rejected=counter(
                "server_admission_rejected_total",
                "queries rejected at the admission bound",
            ),
            timeouts=counter(
                "server_timeouts_total", "queries cancelled by their deadline"
            ),
            retries=counter(
                "server_retries_total", "transient-fault retries performed"
            ),
            retry_exhausted=counter(
                "server_retry_exhausted_total",
                "queries failed after exhausting retries",
            ),
            degraded=counter(
                "server_degraded_total",
                "queries answered from the base cube after quarantine",
            ),
            cache_bypass=counter(
                "server_cache_bypass_total",
                "cache lookups degraded to a recompute by a cache fault",
            ),
            quarantined=gauge(
                "server_quarantined_elements",
                "stored elements currently quarantined by integrity checks",
            ),
            epoch=gauge(
                "server_epoch", "current selection epoch of the result cache"
            ),
            reconfigurations=counter(
                "server_reconfigurations_total", "re-selections performed"
            ),
            migration_operations=self.metrics.histogram(
                "reconfigure_migration_operations",
                "scalar operations spent migrating the materialized set",
            ),
            snapshots=counter(
                "server_snapshots_total", "serving-state snapshots taken"
            ),
            snapshot_failures=counter(
                "server_snapshot_failures_total",
                "background snapshots that raised",
            ),
            alerts=counter(
                "server_alerts_total", "burn-rate alerts fired, by rule"
            ),
            diag_dump_failures=counter(
                "server_diag_dump_failures_total",
                "diagnostic bundle dumps that raised",
            ),
            updates=counter(
                "server_updates_total", "incremental cell updates applied"
            ),
            update_cache_patched=counter(
                "server_update_cache_patched_total",
                "cached entries repaired in place by update deltas",
            ),
            update_cache_cleared=counter(
                "server_update_cache_cleared_total",
                "coarse warm-state invalidations performed by updates",
            ),
        )

    def _publish(self, materialized, epoch: int) -> _ServingState:
        """Build the serving state around ``materialized`` (fresh range
        engine, empty result cache, the engine's empty slabs shared with
        the cache — in use from the start once this server has ingested)
        and publish it, with its epoch gauge, in one reference
        assignment."""
        previous = getattr(self, "_state", None)
        engine = RangeQueryEngine(materialized)
        cache = LRUCache(
            max_entries=self._cache_entries,
            max_weight=self._cache_cells,
            weigh=lambda values: values.size,
            registry=self.metrics,
            name="view_cache",
        )
        slabs = engine.slabs
        if previous is not None:
            slabs.active = previous.range_engine.slabs.active
        slabs.track(
            CACHE_PATCH, lambda: set(map(id, map(itemgetter(1), cache.items())))
        )
        state = _ServingState(
            materialized=materialized,
            range_engine=engine,
            epoch=epoch,
            cache=cache,
        )
        self._state = state
        self._m.epoch.set(epoch)
        return state

    def _new_materialized(self):
        """A fresh storage backend: monolithic, or sharded slabs."""
        if self._partition is None:
            return MaterializedSet(self.shape)
        return ShardedSet(
            self._partition,
            base_values=self.cube.values,
            max_retries=self.max_retries,
            retry_backoff_ms=self.retry_backoff_ms,
        )

    # ------------------------------------------------------------------
    # Serving-state accessors: each reads the *current* state; hold
    # ``self._state`` yourself for a consistent multi-field view.

    @property
    def materialized(self) -> MaterializedSet:
        """The currently serving materialized element set."""
        return self._state.materialized

    @property
    def epoch(self) -> int:
        """Current selection epoch (bumped by every reconfiguration)."""
        return self._state.epoch

    @property
    def _view_cache(self) -> LRUCache:
        return self._state.cache

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping],
        dimension_names: Sequence[str],
        measure: str,
        domains: Mapping[str, Sequence] | None = None,
        **kwargs,
    ) -> "OLAPServer":
        """Build the cube from relational records and wrap it."""
        cube = build_cube(records, dimension_names, measure, domains=domains)
        return cls(cube, **kwargs)

    # ------------------------------------------------------------------
    # The serve envelope: admission, deadline, span, accounting, retries

    def _acquire_slot(self, kind: str) -> None:
        """Take one admission slot or raise :class:`AdmissionRejected`.

        At capacity, waits up to ``admission_wait_ms`` (0 = fail-fast)."""
        wait = self.admission_wait_ms / 1e3
        if not self._admission.acquire(
            blocking=wait > 0, timeout=wait if wait > 0 else None
        ):
            self._m.admission_rejected.inc(kind=kind)
            log_event(
                "admission_rejected", kind=kind, limit=self.max_in_flight
            )
            raise AdmissionRejected(
                f"server at capacity ({self.max_in_flight} in flight)",
                limit=self.max_in_flight,
            )
        self._m.in_flight.inc(1)

    def _retry(self, attempt, counter: OpCounter, *, fatal: bool = True):
        """:func:`retry_transient` on this server's budget, with telemetry.

        Every fault is counted and emits a ``retry`` span / log event.
        Exhaustion is flagged and counted only when ``fatal`` — the
        re-raised fault fails the call; a caller whose fallback still
        serves the answer passes ``False``."""

        def note(faults: int) -> None:
            self._m.retries.inc()
            exhausted = fatal and faults > self.max_retries
            add_span_event("retry", attempt=faults, exhausted=exhausted)
            log_event("retry", attempt=faults, exhausted=exhausted)
            if exhausted:
                self._m.retry_exhausted.inc()

        return retry_transient(
            attempt,
            counter,
            max_retries=self.max_retries,
            backoff_ms=self.retry_backoff_ms,
            on_retry=note,
        )

    def _note_degraded(self) -> None:
        self._m.degraded.inc()
        add_span_event("fallback", target="base_cube")
        log_event("fallback", target="base_cube")
        serving = _SERVING.get()
        if serving is not None:
            serving.degraded = True

    def _assemble_resilient(
        self,
        materialized: MaterializedSet,
        element: ElementId,
        counter: OpCounter,
        warm=None,
    ) -> np.ndarray:
        """Assemble one element (from a ``warm`` ancestor where cheaper)
        with retries and base-cube degradation.

        A quarantine-induced incomplete set falls back to the perfect
        reconstruction route from the base cube (bit-identical for the
        integer-valued measures the chaos gate replays); its scratch
        counter, like the retry loop's, is merged only once it served."""
        try:
            return self._retry(
                lambda s: materialized.assemble(element, counter=s, warm=warm),
                counter,
            )
        except IncompleteSetError:
            if not self.degrade_to_base:
                raise
            scratch = OpCounter()
            values = compute_element(
                self.cube.values, element, counter=scratch
            )
            counter.merge(scratch)
            self._note_degraded()
            return values

    def _assemble_batch_resilient(
        self,
        state: _ServingState,
        missing: Sequence[ElementId],
        counter: OpCounter,
        max_workers: int,
    ) -> dict[ElementId, np.ndarray]:
        """Batch analogue of :meth:`_assemble_resilient` over ``state``.

        A shared-plan execution is all-or-nothing, and retrying the whole
        batch re-rolls every node's fault dice — under a per-node fault
        rate the batch-level failure probability does not shrink with the
        batch's size.  So after the batch retry budget is spent (or the
        set went incomplete mid-plan), recovery proceeds per element, where
        each target gets its own independent retry/degradation budget.
        """
        materialized, warm = state.materialized, state.range_engine.warm_ancestor
        try:
            return self._retry(
                lambda scratch: materialized.assemble_batch(
                    missing, counter=scratch, max_workers=max_workers, warm=warm
                ),
                counter,
                fatal=False,
            )
        except TransientFault:
            pass
        except IncompleteSetError:
            if not self.degrade_to_base:
                raise
        return {
            e: self._assemble_resilient(materialized, e, counter, warm)
            for e in dict.fromkeys(missing)
        }

    # ------------------------------------------------------------------
    # Query surface

    def _element_for(self, retained_dims: Iterable[str]) -> ElementId:
        dims = self.cube.dimensions
        aggregated = set(range(len(dims)))
        unknown = set()
        for name in retained_dims:
            try:
                aggregated.discard(dims.axis_of(name))
            except KeyError:
                unknown.add(name)
        if unknown:
            raise KeyError(f"unknown dimensions {sorted(unknown)}")
        return self.shape.aggregated_view(aggregated)

    def view(
        self,
        retained_dims: Iterable[str],
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Aggregated view retaining the named dimensions (SUM)."""
        return self._serve_element(
            self._element_for(retained_dims), "view", deadline_ms
        )

    def rollup(
        self,
        levels: Mapping[str, str | int],
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Roll-up to named or numeric hierarchy levels per dimension."""
        return self._serve_element(
            rollup_element(self.cube, levels), "rollup", deadline_ms
        )

    def query_batch(
        self,
        requests: Sequence[Iterable[str]],
        max_workers: int | None = None,
        deadline_ms: float | None = None,
    ) -> list[np.ndarray]:
        """Serve several aggregated views as one shared assembly plan.

        ``requests`` is a sequence of retained-dimension sets (one per
        query, as :meth:`view` takes).  Stored and epoch-cached targets are
        answered from the result cache; the remaining distinct elements are
        assembled together (:meth:`MaterializedSet.assemble_batch`), so
        intermediates shared between queries are computed once.  Answers
        come back in request order, bit-identical to individual
        :meth:`view` calls, and land in the result cache.  The whole batch
        holds one admission slot and shares one deadline.

        ``max_workers`` defaults to :data:`MAX_WORKERS`.
        """
        elements = [self._element_for(dims) for dims in requests]
        return self._serve_batch(elements, "view", max_workers, deadline_ms)

    def rollup_batch(
        self,
        levels_list: Sequence[Mapping[str, str | int]],
        max_workers: int | None = None,
        deadline_ms: float | None = None,
    ) -> list[np.ndarray]:
        """Serve several roll-ups as one shared assembly plan.

        Batch analogue of :meth:`rollup`; ``max_workers`` as in
        :meth:`query_batch`.
        """
        elements = [rollup_element(self.cube, levels) for levels in levels_list]
        return self._serve_batch(elements, "rollup", max_workers, deadline_ms)

    def _cache_get(self, state: _ServingState, elements) -> list:
        """Per element, its warm answer or ``None``: the range engine's
        intermediate (a roll-up or view is one, PAPER §6; a cached copy
        holds the same bytes), never cached twice; else the result cache's,
        where a cache fault degrades the lookup to a miss."""
        answers = state.range_engine.warm(elements)
        for i, values in enumerate(answers):
            if values is None:
                key = (elements[i], state.epoch)
                try:
                    fault_point("server.cache_lookup", key=key)
                    answers[i] = state.cache.get(key)
                except TransientFault:
                    self._m.cache_bypass.inc()
        return answers

    def _admit(
        self,
        state: _ServingState,
        mark: int,
        assembled: dict[ElementId, np.ndarray],
    ) -> dict[ElementId, np.ndarray]:
        """Cache answers assembled since the slab sequence read ``mark``;
        returns the arrays to serve.

        Once the server ingests, an answer that does not alias storage is
        adopted into the cache's slabs as it is cached: the caller gets
        the slab view, which every burst patches while the entry lives.
        If a burst began after ``mark`` the answers are served uncached —
        they were read from storage before it, and the burst repaired
        everything warm without them.
        """
        slabs = state.range_engine.slabs
        with slabs.lock:
            if not slabs.settled(mark):
                return assembled
            if not slabs.active:
                for element, values in assembled.items():
                    state.cache.put((element, state.epoch), values)
                return assembled
            storage = self._storage_ids(state)
            for element, values in assembled.items():
                if element.is_intermediate and id(values) not in storage:
                    values = assembled[element] = slabs.adopt(
                        element, values, CACHE_PATCH
                    )
                state.cache.put((element, state.epoch), values)
            # Drop the slots of what the puts evicted: slab memory stays
            # bounded by the live set.
            slabs.sweep(CACHE_PATCH)
        return assembled

    def _storage_ids(self, state: _ServingState) -> set[int]:
        """Identities of the arrays serving hands out by reference: stored
        arrays and, on the degraded path, the base cube itself."""
        ids = {id(self.cube.values)}
        ids.update(map(id, state.materialized.array_refs().values()))
        return ids

    def _serve_element(
        self,
        element: ElementId,
        kind: str,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Serve one element: warm (:meth:`_cache_get`), else assembled.

        A warm answer is the array a cold assembly produced (the assemble
        contract already says "treat as read-only"), so it is bit-identical
        to a miss and costs zero scalar operations.
        """
        with _Serve(
            self,
            "server.query",
            kind,
            deadline_ms,
            tracked=(element,),
            element=element.describe(),
        ) as call:
            state = call.state
            values = self._cache_get(state, (element,))[0]
            if values is not None:
                call.attrs["cache"] = "hit"
                return values
            engine = state.range_engine
            mark = engine.slabs.sequence
            values = self._assemble_resilient(
                state.materialized, element, call.counter, engine.warm_ancestor
            )
            call.attrs["cache"] = "miss"
            return self._admit(state, mark, {element: values})[element]

    def _serve_batch(
        self,
        elements: Sequence[ElementId],
        kind: str,
        max_workers: int | None,
        deadline_ms: float | None = None,
    ) -> list[np.ndarray]:
        """Serve a batch of elements through one shared plan.

        Warm targets (:meth:`_cache_get`) are pruned before planning (and
        stored targets cost the plan nothing), so only genuinely missing
        work reaches the executor.
        """
        if max_workers is None:
            max_workers = MAX_WORKERS
        with _Serve(
            self,
            "server.query_batch",
            kind,
            deadline_ms,
            tracked=elements,
            queries=len(elements),
            requests=len(elements),
        ) as call:
            state = call.state
            distinct = list(dict.fromkeys(elements))
            answers = dict(zip(distinct, self._cache_get(state, distinct)))
            missing = [e for e, values in answers.items() if values is None]
            hits = len(answers) - len(missing)
            if missing:
                mark = state.range_engine.slabs.sequence
                assembled = self._assemble_batch_resilient(
                    state, missing, call.counter, max_workers
                )
                answers.update(self._admit(state, mark, assembled))
            self._m.batches_of[kind].inc()
            call.attrs.update(cache_hits=hits, assembled=len(missing))
            return [answers[element] for element in elements]

    def range_sum(self, ranges, deadline_ms: float | None = None) -> float:
        """SUM over a multi-dimensional half-open coordinate range."""
        with _Serve(self, "server.query", "range", deadline_ms) as call:
            state, counter = call.state, call.counter
            # The engine parses the bounds (once; a non-integer one is an
            # ``InvalidQueryError`` there, before anything is resolved).
            ranges = tuple(ranges)
            try:
                answer = self._retry(
                    lambda scratch: state.range_engine.range_sum(
                        ranges, counter=scratch
                    ),
                    counter,
                )
                value, cells_read = answer.value, answer.cells_read
            except IncompleteSetError:
                if not self.degrade_to_base:
                    raise
                value = range_sum_direct(
                    self.cube.values, ranges, counter=counter
                )
                cells_read = 0
                self._note_degraded()
            call.attrs["cells_read"] = cells_read
            return value

    def cell(self, **coordinates) -> float:
        """One cube cell, addressed by dimension values."""
        return self.cube.cell(**coordinates)

    # ------------------------------------------------------------------
    # Reconfiguration

    def observed_population(self) -> QueryPopulation:
        """The tracked workload, smoothed over all aggregated views."""
        return self.tracker.population(
            smoothing=self.smoothing,
            universe=list(self.shape.aggregated_views()),
        )

    def reconfigure(
        self, population: QueryPopulation | None = None
    ) -> tuple[int, float]:
        """Re-select and re-materialize; returns ``(storage, expected cost)``.

        Uses the observed workload by default.  :meth:`_migrate` builds the
        new set from the current one (assembly, not a cube rescan), and the
        whole serving state is swapped in atomically; the epoch bump
        invalidates every cached answer.
        """
        with self._reconfigure_lock, self.obs.activate(), span(
            "server.reconfigure"
        ) as sp:
            state = self._state
            if population is None:
                population = self.observed_population()
            select_start = time.perf_counter()
            selection = select_minimum_cost_basis(self.shape, population)
            selected_by = dict(
                selector=selection.selector,
                states=selection.states,
                select_ms=(time.perf_counter() - select_start) * 1e3,
            )
            elements = list(selection.elements)
            expected = selection.cost
            if (
                self.storage_budget is not None
                and self.storage_budget > self.shape.volume
            ):
                if self._engine is None:
                    self._engine = SelectionEngine(self.shape)
                result = self._engine.greedy_redundant_selection(
                    elements, population, storage_budget=self.storage_budget
                )
                elements = list(result.selected)
                expected = result.final_cost

            migration = OpCounter()
            new_set = self._migrate(elements, state.materialized, migration)
            new_state = self._publish(new_set, state.epoch + 1)
            # Release the superseded cache's arrays promptly; in-flight
            # queries holding the old state at worst recompute on a miss.
            state.cache.clear()
            self.stats.reconfigurations += 1
            self.stats.last_expected_cost = float(expected)
            self._m.reconfigurations.inc()
            log_event(
                "epoch_bump",
                epoch=new_state.epoch,
                stored_elements=len(new_set),
                expected_cost=float(expected),
                **selected_by,
            )
            self._m.migration_operations.observe(migration.total)
            sp.set(
                operations=migration.total,
                epoch=new_state.epoch,
                storage=new_set.storage,
                expected_cost=float(expected),
                **selected_by,
            )
            return new_set.storage, float(expected)

    def _migrate(self, elements, source, counter: OpCounter):
        """A new set of ``elements``, each assembled from ``source``,
        ancestors first: :meth:`reconfigure`'s migration, and the rebuild
        of a snapshot restored onto another layout."""
        ordered = sorted(set(elements), key=lambda e: e.depth)
        new_set = self._new_materialized()
        if self._partition is not None:
            # Shard-local: each shard assembles its slab of every element
            # from the old shard's storage; no global array is built.
            new_set.migrate_selection(ordered, source, counter)
            return new_set
        for element in ordered:
            new_set.store(
                element, self._assemble_resilient(source, element, counter)
            )
        return new_set

    # ------------------------------------------------------------------
    # Durability: snapshot, restore and close over the lineage

    def snapshot(self, directory: str | Path | None = None) -> Path:
        """Atomically persist the current serving state; returns its path.

        Runs under the reconfigure lock, as updates and re-selections do, so
        the cube, stored arrays, selection, epoch and last-applied WAL
        sequence written are one consistent cut.  With no ``directory`` it
        is the lineage's own snapshot (covered WAL segments are pruned); an
        explicit ``directory`` writes an export copy.
        """
        with self._reconfigure_lock, self.obs.activate(), span(
            "server.snapshot"
        ) as sp:
            state = self._state
            path, last_seq, pruned = write_cut(
                self._lineage,
                directory,
                cube=self.cube,
                materialized=state.materialized,
                partition=self._partition,
                epoch=state.epoch,
            )
            self._m.snapshots.inc()
            sp.set(last_seq=last_seq, epoch=state.epoch, pruned=pruned)
            return path

    @classmethod
    def restore(
        cls,
        durability: DurabilityConfig | str | Path,
        *,
        shards: int | None = None,
        shard_axis: int | None = None,
        **kwargs,
    ) -> "OLAPServer":
        """Rebuild a server from its durability directory.

        Installs the newest complete snapshot, then replays the WAL suffix
        past it through the in-memory half of ingest, so the server holds
        **every acknowledged update** and keeps appending where the log
        left off.  The snapshot's own layout installs as written; another
        ``shards`` / ``shard_axis`` rebuilds its selection with
        :meth:`reconfigure`'s migration from the restored root-only set —
        exact, because every element is a pure function of the cube.
        Remaining ``kwargs`` go to the constructor.
        """
        lineage, loaded = Lineage.reopen(durability)
        shards, shard_axis, same_layout = restored_layout(
            loaded["manifest"], shards, shard_axis
        )
        try:
            server = cls(
                loaded["cube"], shards=shards, shard_axis=shard_axis, **kwargs
            )
            server._install_snapshot(loaded, same_layout=same_layout)
        except BaseException:
            lineage.close()
            raise
        server._lineage = lineage
        with server._reconfigure_lock, server.obs.activate():
            lineage.replay(server.shape, server._absorb)
        # Only now: a snapshot during replay would claim records the
        # in-memory state does not hold yet, and prune them.
        lineage.start_snapshotter(
            server.snapshot, server.obs, server._m.snapshot_failures
        )
        return server

    def _install_snapshot(self, loaded: dict, *, same_layout: bool) -> None:
        """Swap in a snapshot's serving state (selection, arrays, epoch):
        the loaded arrays on the same layout, else :meth:`_migrate` from
        this server's root-only set."""
        manifest = loaded["manifest"]
        with self._reconfigure_lock, self.obs.activate(), span(
            "server.restore_install", same_layout=same_layout
        ):
            if not same_layout:
                new_set = self._migrate(
                    loaded["elements"], self._state.materialized, OpCounter()
                )
            elif self._partition is None:
                new_set = loaded["sets"][0]
            else:
                new_set = self._new_materialized()
                new_set.install_restored(
                    loaded["elements"], loaded["sets"], manifest["shard_epochs"]
                )
            self._publish(new_set, int(manifest["epoch"]))

    def close(self) -> None:
        """Stop the snapshotter, close the WAL (final sync) and the flight
        recorder; idempotent."""
        if self._lineage is not None:
            self._lineage.close()
        if self.flight is not None:
            self.flight.close()
        if self.profiler is not None:
            self.profiler.close()

    def __enter__(self) -> "OLAPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Health

    def health(self) -> dict:
        """A JSON-friendly snapshot of the server's serving condition.

        ``status`` is ``"ok"`` when no stored element is quarantined and
        ``"degraded"`` otherwise (answers stay exact either way — see
        module docs).  The ``slo`` section carries unified SLO accounting:
        per-kind latency quantiles (from the ``server_latency_ms``
        histogram's bucket interpolation), error-budget rates per served
        query, and telemetry loss (tracer ring drops, event-log drops).
        Rendered by ``python -m repro stats`` and the ``/health`` endpoint.
        """
        state = self._state
        quarantined = state.materialized.quarantined

        def _total(name: str) -> float:
            metric = self.metrics.get(name)
            total = getattr(metric, "total", None)
            return float(total()) if callable(total) else 0.0

        with self._stats_lock:
            queries = self.stats.queries
            reconfigurations = self.stats.reconfigurations
        m = self._m
        latency = m.latency
        latency_by_kind: dict[str, dict] = {}
        for key in latency.labelsets():
            labels = dict(key)
            if labels.get("outcome") != "ok":
                continue
            stats = latency.stats(**labels)
            latency_by_kind[labels.get("kind", "?")] = {
                "count": stats["count"],
                "p50_ms": round(stats["p50"], 3),
                "p95_ms": round(stats["p95"], 3),
                "p99_ms": round(stats["p99"], 3),
                "max_ms": round(stats["max"], 3),
            }
        denominator = max(1, queries)
        slo = {
            "latency_ms": latency_by_kind,
            "timeout_rate": m.timeouts.total() / denominator,
            "rejection_rate": m.admission_rejected.total() / denominator,
            "retry_rate": m.retries.total() / denominator,
            "degraded_rate": m.degraded.total() / denominator,
            "tracer_dropped_spans": self.tracer.dropped_spans,
            "events_dropped": self.obs.events.dropped_events,
            "telemetry_loss": self._telemetry_loss(),
        }
        payload = {
            "status": "degraded" if quarantined else "ok",
            "epoch": state.epoch,
            "stored_elements": len(state.materialized),
            "quarantined_elements": len(quarantined),
            "quarantined": [e.describe() for e in quarantined],
            "in_flight": m.in_flight.value(),
            "max_in_flight": self.max_in_flight,
            "queries": queries,
            "reconfigurations": reconfigurations,
            "admission_rejected": m.admission_rejected.total(),
            "timeouts": m.timeouts.total(),
            "retries": m.retries.total(),
            "degraded_serves": m.degraded.total(),
            "updates": m.updates.total(),
            "updates_cache_patched": m.update_cache_patched.total(),
            "updates_cache_cleared": m.update_cache_cleared.total(),
            "cache_bypasses": m.cache_bypass.total(),
            "cache_warm_reads": _total("range_intermediate_served_total"),
            "integrity_failures": _total("integrity_failures_total"),
            "faults_injected": _total("faults_injected_total"),
            "tuning": {
                "dispatch_threshold": batch_exec.DISPATCH_THRESHOLD,
                "cache_entries": self._cache_entries,
                "cache_cells": self._cache_cells,
                "max_workers": MAX_WORKERS,
                "max_retries": self.max_retries,
                "retry_backoff_ms": self.retry_backoff_ms,
                "plan_cache_entries": MaterializedSet._PLAN_CACHE_ENTRIES,
                "flight_max_traces": MAX_TRACES,
                "flight_head_sample": HEAD_SAMPLE,
                "alert_fast_window_s": FAST_WINDOW_S,
                "alert_slow_window_s": SLOW_WINDOW_S,
            },
            "slo": slo,
        }
        if self.alerts is not None:
            payload["alerts"] = self.alerts.snapshot()
        # Key skew comes from the one per-element table the server keeps:
        # the tracker the serve envelope feeds (ranges record no element).
        with self._stats_lock:
            tracked = self.tracker.weights()
        weights = sorted(tracked.values(), reverse=True)
        total = sum(weights)
        hot = sum(weights[: self.fingerprints.hot_top])
        fingerprint = self.fingerprints.snapshot(
            hot_share=hot / total if total > 0.0 else 0.0
        )
        fingerprint["tracked_elements"] = len(weights)
        payload["fingerprint"] = fingerprint
        if self.flight is not None:
            payload["flight"] = self.flight.snapshot()
        if self._partition is not None:
            payload["shards"] = {
                **state.materialized.shards_health(),
                "scatters": _total("shard_scatters_total"),
                "shard_retries": _total("shard_retries_total"),
                "shard_degraded": _total("shard_degraded_total"),
            }
        if self._lineage is not None:
            payload["durability"] = self._lineage.health(_total)
        if self.flight is not None:
            # Each health poll leaves a compact SLO snapshot in the
            # recorder's bounded ring, so a diag bundle shows how the
            # scalar rates evolved up to the incident, not just the
            # instant of the dump.
            self.flight.note_health(
                {
                    "epoch": self.epoch,
                    "queries": queries,
                    "timeout_rate": slo["timeout_rate"],
                    "rejection_rate": slo["rejection_rate"],
                    "retry_rate": slo["retry_rate"],
                    "degraded_rate": slo["degraded_rate"],
                    "firing": (
                        payload["alerts"]["firing_now"]
                        if self.alerts is not None
                        else []
                    ),
                }
            )
        return payload

    # ------------------------------------------------------------------
    # Telemetry surfaces

    def serve_telemetry(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> TelemetryServer:
        """Start a ``/metrics`` + ``/health`` HTTP endpoint for this server.

        Returns the started :class:`~repro.obs.http.TelemetryServer` (its
        ``.port`` is the bound port when 0 was requested); the caller owns
        its lifetime — ``stop()`` it, or use it as a context manager.
        """
        return TelemetryServer(
            metrics_fn=lambda: prometheus_text(self.metrics),
            health_fn=self.health,
            host=host,
            port=port,
        ).start()

    def query_profile(self, trace_id: int | None = None) -> dict:
        """Planned-vs-measured profile of one traced query.

        Joins the newest trace (or ``trace_id``) recorded by this server's
        tracer — see :func:`repro.obs.profile.query_profile`.
        """
        return query_profile(self.tracer, trace_id)

    def note_divergence(self, divergence: float) -> None:
        """Feed a planned-vs-measured cost divergence observation.

        A caller that measures cost-model divergence (e.g. from
        :meth:`query_profile`) reports it here; it becomes the
        fingerprint's ``divergence_norm`` coordinate.
        """
        self.fingerprints.note_divergence(divergence)

    def _telemetry_loss(self) -> dict:
        """Every bounded-telemetry shed, so evidence is self-describing."""
        loss = {
            "tracer_dropped_spans": self.tracer.dropped_spans,
            "events_dropped": self.obs.events.dropped_events,
            "metrics_dropped_series": self.metrics.dropped_series_total(),
        }
        if self.flight is not None:
            loss["flight"] = self.flight.loss()
        return loss

    def _on_alert_fire(self, event: dict) -> None:
        """Burn-rate alert fired: count, log, and auto-dump a bundle."""
        self._m.alerts.inc(rule=event["rule"])
        with self.obs.activate():
            log_event(
                "alert_firing",
                rule=event["rule"],
                fast_burn=event["fast_burn"],
                slow_burn=event["slow_burn"],
            )
        if self.diagnostics_dir is None:
            return
        with self._dump_lock:
            if self._dump_count >= self.max_auto_dumps:
                return
            self._dump_count += 1
            count = self._dump_count
        path = self.diagnostics_dir / f"diag-{event['rule']}-{count:03d}.json"
        try:
            self.dump_diagnostics(path, trigger=event)
        except Exception:
            self._m.diag_dump_failures.inc()

    def _on_alert_resolve(self, event: dict) -> None:
        with self.obs.activate():
            log_event(
                "alert_resolved",
                rule=event["rule"],
                duration_s=round(event.get("duration_s", 0.0), 3),
            )

    def dump_diagnostics(
        self,
        path: str | Path | None = None,
        trigger: dict | None = None,
        events_tail: int = 64,
        exemplars: int = 8,
    ) -> Path:
        """Write a self-contained diagnostic bundle and return its path.

        The bundle (see :mod:`repro.obs.flight`) holds the triggering
        event, exemplar Chrome traces the flight recorder kept, metrics /
        health / tuning snapshots, the recent event-log tail, telemetry
        loss, and WAL/snapshot sequence state.  ``path`` ending in
        ``.json`` writes one file; any other path writes a directory
        layout.  With no ``path``, a numbered file lands in
        ``diagnostics_dir``.
        """
        if path is None:
            if self.diagnostics_dir is None:
                raise ValueError(
                    "no path given and the server has no diagnostics_dir"
                )
            with self._dump_lock:
                self._dump_count += 1
                count = self._dump_count
            path = self.diagnostics_dir / f"diag-manual-{count:03d}.json"
        health = self.health()
        kept = (
            self.flight.exemplars(limit=exemplars)
            if self.flight is not None
            else ()
        )
        flight_section = None
        if self.flight is not None:
            flight_section = self.flight.snapshot()
            # The ring of recent health() polls: how the SLO rates
            # evolved *up to* the incident, not just at dump time.
            flight_section["health_ring"] = list(
                self.flight.health_snapshots()
            )
        durability = health.get("durability")
        bundle = {
            "trigger": dict(trigger) if trigger is not None else {
                "kind": "manual"
            },
            "health": health,
            "tuning": health["tuning"],
            "metrics": self.metrics.snapshot(),
            "events_tail": [
                dict(e) for e in self.obs.events.events()[-events_tail:]
            ],
            "telemetry_loss": self._telemetry_loss(),
            "exemplar_traces": [t.to_dict() for t in kept],
            "flight": flight_section,
            "alerts": (
                self.alerts.snapshot() if self.alerts is not None else None
            ),
            "fingerprint": health["fingerprint"],
            "profiler": (
                self.profiler.snapshot() if self.profiler is not None else None
            ),
            "durability": durability,
        }
        bundle["manifest"] = {
            "bundle_format": BUNDLE_FORMAT,
            "created_unix": time.time(),
            "trigger": bundle["trigger"].get("rule")
            or bundle["trigger"].get("kind", "manual"),
            "contents": sorted((*bundle, "manifest")),
        }
        with self.obs.activate():
            log_event(
                "diag_bundle",
                path=str(path),
                trigger=bundle["manifest"]["trigger"],
                exemplars=len(bundle["exemplar_traces"]),
            )
        return write_bundle(bundle, path)

    # ------------------------------------------------------------------
    # Maintenance

    def update(self, delta: float, **coordinates) -> None:
        """A one-row :meth:`update_many`: ``coordinates`` name one domain
        value per dimension, as :meth:`cell` takes them."""
        self.update_many([coordinates], [delta])

    def update_many(self, coordinates, deltas) -> None:
        """Bulk streaming ingest: apply a batch of cell deltas at once.

        ``coordinates`` is either an ``(n, d)`` array of already-encoded
        integer cell indices or a sequence of ``{dimension: value}``
        mappings (encoded as :meth:`cell` encodes its arguments: a missing
        or unknown dimension, or an unknown value, is a :class:`KeyError`);
        ``deltas`` is the matching ``(n,)`` batch of values added.  The
        burst is validated once, where its
        :class:`~repro.core.delta.DeltaBatch` is built: a cell outside the
        cube, a non-integral coordinate or a non-finite delta raises
        :class:`~repro.errors.InvalidUpdateError`.  Either way nothing is
        logged or changed, and an empty batch is a no-op.

        One call takes the reconfiguration ordering guarantee once: the
        batch is logged (with durability), applied to storage (sharded: only
        owning shards re-seal and bump epochs) and the base cube, and every
        warm answer and range intermediate is patched in place
        (:meth:`_propagate_updates`) — exact for integer cubes.  Any failure
        there clears the warm state: cold, never a wrong answer.
        """
        if len(coordinates) and isinstance(coordinates[0], Mapping):
            encode = self.cube.dimensions.encode
            coordinates = np.array(
                [encode(record) for record in coordinates], dtype=np.int64
            )
        batch = DeltaBatch(self.shape, coordinates, deltas)
        if len(batch):
            self._apply_updates(batch)

    def _apply_updates(self, batch: DeltaBatch) -> None:
        """Live ingest: the WAL append, then the in-memory half
        (:meth:`_absorb`), under ``_reconfigure_lock`` — so a concurrent
        :meth:`reconfigure` either completes first (and its new set is
        patched) or builds from a cube that already carries the delta, and
        no delta can miss the next snapshot.  ``batch`` was validated where
        it was built, so a refused batch is never made durable.
        """
        with self._reconfigure_lock, self.obs.activate(), span(
            "server.update", cells=len(batch)
        ):
            lineage = self._lineage
            if lineage is None:
                self._absorb(batch)
                return
            # Write-ahead: the record is durable (flushed, fsynced per
            # policy) before any in-memory state changes, so returning from
            # update()/update_many() — the acknowledgement — is covered by
            # the log.
            seq = lineage.wal.append(
                batch.coordinates, batch.deltas, epoch=self._state.epoch
            )
            self._absorb(batch)
            # Only now does the record count as applied: a snapshot must
            # not claim (and prune) a record the state never absorbed
            # because the apply above raised.
            lineage.applied_seq = seq

    def _absorb(self, batch: DeltaBatch) -> None:
        """The in-memory half of an update — storage, base cube, warm
        state — for a live batch or a replayed WAL record.  The caller
        holds ``_reconfigure_lock``."""
        state = self._state
        counter = OpCounter()
        # Readers that read storage from here on cache nothing they
        # assembled (``SlabStore.settled``).
        state.range_engine.slabs.begin_burst()
        try:
            state.materialized.apply_updates(batch, counter=counter)
            np.add.at(
                self.cube.values, tuple(batch.coordinates.T), batch.deltas
            )
            patched, cleared = self._propagate_updates(state, batch, counter)
        finally:
            state.range_engine.slabs.end_burst()
        self.fingerprints.note_ingest(len(batch))
        self._m.updates.inc(len(batch))
        self._m.operations.inc(counter.total)
        log_event("update", cells=len(batch), patched=patched, cleared=cleared)

    def _propagate_updates(
        self, state: _ServingState, batch: DeltaBatch, counter: OpCounter
    ) -> tuple[int, int]:
        """Repair the snapshot's warm state for a delta batch; returns
        ``(entries patched, coarse invalidations)``.

        Every cached answer and range intermediate lives in the engine's
        slabs (:class:`~repro.core.delta.SlabStore`), under one label
        each, and one compiled scatter repairs both labels
        (:meth:`RangeQueryEngine.apply_updates`).  Answers cached before
        the server first ingested join the slabs at its first burst, in
        place; later ones were adopted as they were cached (:meth:`_admit`).
        Serving hands out stored arrays (and, on the degraded path, the
        base cube's own root) by reference, so a cache entry may *be* the
        storage that ``apply_updates`` already repaired — those are
        recognised by object identity and never join.  Any failure takes
        the coarse path, which clears the cache and drops the
        intermediates — correct for *any* change, just cold.
        """
        slabs = state.range_engine.slabs
        counts: dict[str, int] = {}

        def repair() -> int:
            with slabs.lock:
                if not slabs.active:
                    storage = self._storage_ids(state)
                    cached = state.cache.items()
                    slabs.join(
                        CACHE_PATCH,
                        [(k[0], v) for k, v in cached if id(v) not in storage],
                    )
                counts.update(state.range_engine.apply_updates(batch, counter))
            return counts[CACHE_PATCH]

        with span("update.propagate", cells=len(batch)) as sp:
            try:
                state.cache.patch(repair)
            except Exception:
                state.cache.clear()
                state.range_engine.invalidate()
                self._m.update_cache_cleared.inc()
                sp.set(mode="fallback", patched=0)
                return 0, 1
            patched = sum(counts.values())
            self._m.update_cache_patched.inc(patched)
            sp.set(mode="patch", patched=patched)
            return patched, 0
