"""The OLAP server: the paper's serving loop behind one facade.

:class:`OLAPServer` owns a data cube built from records and does the
paper's three jobs: it serves an element from a warm array or from a
Procedure 3 plan over the stored set, re-selects that set with
Algorithms 1 and 2 (:meth:`~OLAPServer.reconfigure`), and keeps it current
by linearity (:meth:`~OLAPServer.update_many`).  The stored set, range
engine, epoch and result cache live in one immutable
:class:`_ServingState`, swapped in one assignment, so a query sees one
selection, never a mix.

The rest lives in the package that owns it, and the server calls it: the
serve envelope (admission, deadline, span, call-log record, retries,
base-cube degradation) in :mod:`repro.resilience.serve`; the ``server_*``
series, :meth:`~OLAPServer.health`, the alert callbacks and the bundles in
:mod:`repro.obs.incident`; snapshot and restore in
:mod:`repro.durability.lineage`, around one
:class:`~repro.durability.Lineage`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral
from operator import itemgetter
from pathlib import Path

import numpy as np

from .calllog import CallLog, ServerStats
from .core.adaptive import AccessTracker, CostModelMonitor
from .core.delta import DeltaBatch
from .core.element import ElementId
from .core.materialize import MaterializedSet
from .core.operators import OpCounter
from .core.population import QueryPopulation
from .core.range_query import RangeQueryEngine, range_sum_direct
from .core.select_redundant import check_storage_budget, reselect
from .cube.builder import build_cube
from .cube.datacube import DataCube
from .cube.hierarchy import rollup_element
from .durability import DurabilityConfig, Lineage
from .durability.lineage import restore as restore_lineage, write_cut
from .errors import IncompleteSetError, InvalidQueryError, TransientFault
from .obs import LRUCache, Observability, incident, log_event, span
from .obs.alerts import AlertEngine
from .obs.export import prometheus_text
from .obs.fingerprint import FingerprintTracker, SiteProfiler
from .obs.flight import FlightRecorder
from .obs.http import TelemetryServer
from .obs.profile import query_profile
from .resilience.faults import fault_point
from .resilience.serve import (
    _Serve, assemble_resilient, note_degraded, with_retries,
)
from .shard.partition import CubePartition
from .shard.sets import ShardedSet

__all__ = ["OLAPServer", "ServerStats"]

#: Result-cache entry bound when the constructor is given none.
CACHE_ENTRIES = 128
#: Executor workers a batch call asks for when it passes no ``max_workers``
#: (cost-aware dispatch demotes to serial when no node is worth a thread).
MAX_WORKERS = 4
#: Transient-fault retries before a query fails when the constructor is
#: given none (the backoff between them is
#: :data:`repro.resilience.retry.BACKOFF_MS`).
MAX_RETRIES = 2
#: The workload tracker's per-access forgetting factor, and the smoothing
#: mass :meth:`OLAPServer.observed_population` spreads over every
#: aggregated view so none is priced as never queried.
DECAY = 0.98
SMOOTHING = 0.01
#: The result cache's slab label, and the label its patch additions are
#: charged under.
CACHE_PATCH = "cache patch"


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


class OLAPServer:
    """Serve OLAP queries from a dynamically selected view element set."""

    def __init__(
        self,
        cube: DataCube,
        storage_budget: int | None = None,
        cache_entries: int = CACHE_ENTRIES,
        cache_cells: int | None = None,
        observability: Observability | None = None,
        max_in_flight: int | None = None,
        max_retries: int = MAX_RETRIES,
        shards: int = 1,
        shard_axis: int | None = None,
        durability: DurabilityConfig | str | Path | None = None,
        alerts: AlertEngine | bool = True,
        flight: bool = True,
        diagnostics_dir: str | Path | None = None,
    ):
        """``storage_budget`` (cells) enables Algorithm 2 redundancy when it
        exceeds the cube volume (NaN or negative: :class:`ValueError`).
        ``cache_entries``/``cache_cells`` bound the result cache (entries
        and cached cells); ``observability`` supplies a shared registry +
        tracer (one is created otherwise).  Values with one setting are
        module constants beside their readers (:data:`DECAY`,
        :data:`SMOOTHING`, :data:`MAX_WORKERS`, the executor's, retry's,
        flight recorder's, alerts' and bundles'); :meth:`health` reports
        the serving ones under ``"tuning"``.

        Resilience: ``max_in_flight`` bounds admitted queries (``None`` =
        unbounded; past it a query raises :class:`AdmissionRejected` at
        once), ``max_retries`` bounds :class:`TransientFault` retries, and
        deadlines are per call (``deadline_ms=``).  When quarantine leaves
        the stored set incomplete, answers are recomputed from the base
        cube.

        ``shards`` above 1 (a power of two) partitions the cube into slabs
        along ``shard_axis`` (default: the largest extent, ties last) and
        serves every query scatter–gather (:mod:`repro.shard`):
        bit-identical to one shard for integer cubes on any axis, and for
        float cubes when the shard axis is the last dimension.

        ``durability`` (a :class:`~repro.durability.DurabilityConfig` or a
        fresh directory) starts a new lineage: every update batch is logged
        before it returns, and an initial snapshot makes recovery possible
        from the first update; reopen it with :meth:`restore`.

        ``alerts`` enables the SLO burn-rate engine (an
        :class:`~repro.obs.alerts.AlertEngine` to control rules/clock,
        ``False`` to disable); ``flight`` attaches the flight recorder and
        site profiler when the triple traces; ``diagnostics_dir`` is where
        firing alerts auto-dump bundles and :meth:`dump_diagnostics` numbers
        its own."""
        if cache_cells is not None and cache_cells <= 0:
            raise ValueError(
                f"cache_cells must be positive or None, got {cache_cells!r}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {max_retries!r}"
            )
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards!r}")
        check_storage_budget(storage_budget)
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(
                "max_in_flight must be at least 1 or None, got "
                f"{max_in_flight!r}"
            )
        self.cube = cube
        self.shape = cube.shape_id
        self.storage_budget = storage_budget
        self.tracker = AccessTracker(decay=DECAY)
        #: Guards the call log's fold (so ``stats`` and ``tracker``) and
        #: ``cost_monitor``; re-entrant (see :class:`CallLog`).  The
        #: metrics registry and the result cache carry their own locks.
        self._stats_lock = threading.RLock()
        #: Serializes reconfigurations (queries are never blocked by it).
        self._reconfigure_lock = threading.Lock()
        self.obs = observability if observability is not None else Observability()
        self.metrics = self.obs.registry
        self.tracer = self.obs.tracer
        self._m = incident.declare_metrics(self.metrics)
        # Incident observability: flight recorder + site profiler read the
        # tracer's inbox, so they attach only when this server actually
        # traces (the telemetry-off baseline pays nothing).
        self.flight: FlightRecorder | None = None
        self.profiler: SiteProfiler | None = None
        if flight and self.obs.tracing:
            self.flight = FlightRecorder(self.tracer, self.metrics)
            self.profiler = SiteProfiler(self.tracer)
        self.fingerprints = FingerprintTracker()
        if not isinstance(alerts, AlertEngine):
            alerts = AlertEngine() if alerts else None
        self.alerts: AlertEngine | None = alerts
        self._log = CallLog(
            self._m, self.tracker, self.fingerprints, alerts, self._stats_lock
        )
        self.stats: ServerStats = self._log.stats
        self.metrics.add_pre_read(self._log.fold)
        #: Planned-vs-measured feedback, fed by :meth:`observe_profile`.
        self.cost_monitor = CostModelMonitor()
        self._dumps = (
            incident.Diagnostics(diagnostics_dir)
            if diagnostics_dir is not None
            else None
        )
        if alerts is not None:
            incident.watch_alerts(self)
        self.max_in_flight = max_in_flight
        self.max_retries = int(max_retries)
        self._admission = (
            threading.BoundedSemaphore(max_in_flight)
            if max_in_flight is not None
            else None
        )
        self._cache_entries = int(cache_entries)
        self._cache_cells = cache_cells
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
        self.metrics.add_pre_read(partial(incident.report_quarantine, self))
        # Durability: a new lineage, started last so its first snapshot
        # captures a fully constructed server.
        self._lineage: Lineage | None = None
        if durability is not None:
            self._lineage = Lineage.create(durability)
            self.snapshot()
            self._lineage.start_snapshotter(
                self.snapshot, self.obs, self._m.snapshot_failures
            )

    def _publish(self, materialized, epoch: int) -> _ServingState:
        """Build the serving state around ``materialized`` (fresh range
        engine, empty result cache, the engine's empty slabs shared with
        the cache — in use from the start once this server has ingested)
        and publish it, with its epoch gauge, in one reference
        assignment.  The set already serving keeps its warm engine and cache.
        """
        previous = getattr(self, "_state", None)
        if previous is not None and previous.materialized is materialized:
            self._state = state = replace(previous, epoch=epoch)
            self._m.epoch.set(epoch)
            return state
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
        self._state = state = _ServingState(materialized, engine, epoch, cache)
        self._m.epoch.set(epoch)
        return state

    def _new_materialized(self):
        """A fresh storage backend: monolithic, or sharded slabs."""
        if self._partition is None:
            return MaterializedSet(self.shape)
        return ShardedSet(
            self._partition, self.cube.values, max_retries=self.max_retries
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
    # Query surface

    def _element_for(self, retained_dims: Iterable[str]) -> ElementId:
        if isinstance(retained_dims, (str, bytes)):
            raise InvalidQueryError(
                "retained dimensions must be a collection of names, not "
                f"{type(retained_dims).__name__} {retained_dims!r}"
            )
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

        ``requests`` is a collection of retained-dimension sets (one per
        query, as :meth:`view` takes).  Stored and epoch-cached targets are
        answered from the result cache; the remaining distinct elements are
        assembled together (:meth:`MaterializedSet.assemble_batch`), so
        intermediates shared between queries are computed once.  Answers
        come back in request order, bit-identical to individual
        :meth:`view` calls, and land in the result cache.  The whole batch
        holds one admission slot and shares one deadline.

        ``max_workers`` defaults to :data:`MAX_WORKERS`; a non-integer one
        or one below 1, like a ``requests`` that is not a collection, is an
        :class:`InvalidQueryError` before any work.
        """
        return self._serve_batch(
            requests, self._element_for, "view", max_workers, deadline_ms
        )

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
        resolve = partial(rollup_element, self.cube)
        return self._serve_batch(
            levels_list, resolve, "rollup", max_workers, deadline_ms
        )

    def _cache_get(self, state: _ServingState, elements) -> list:
        """Per element, its warm answer or ``None``: the range engine's
        intermediate (a roll-up or view is one, PAPER §6; a cached copy
        holds the same bytes), never cached twice; else the result cache's,
        where a cache fault degrades the lookup to a miss.  Each state has
        its own cache, keyed by element (the fault site sees the epoch)."""
        answers = state.range_engine.warm(elements)
        for i, values in enumerate(answers):
            if values is None:
                key = (elements[i], state.epoch)
                try:
                    fault_point("server.cache_lookup", key=key)
                    answers[i] = state.cache.get(key[0])
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
                    state.cache.put(element, values)
                return assembled
            storage = self._storage_ids(state)
            for element, values in assembled.items():
                if element.is_intermediate and id(values) not in storage:
                    values = assembled[element] = slabs.adopt(
                        element, values, CACHE_PATCH
                    )
                state.cache.put(element, values)
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
        self, element: ElementId, kind: str, deadline_ms: float | None = None
    ) -> np.ndarray:
        """Serve one element: warm (:meth:`_cache_get`), else assembled.

        A warm answer is the array a cold assembly produced (the assemble
        contract already says "treat as read-only"), so it is bit-identical
        to a miss and costs zero scalar operations.
        """
        with _Serve(
            self, "server.query", kind, deadline_ms, tracked=(element,),
            element=element.describe(),
        ) as call:
            state = call.state
            values = self._cache_get(state, (element,))[0]
            if values is not None:
                call.attrs["cache"] = "hit"
                return values
            engine = state.range_engine
            mark = engine.slabs.sequence
            assembled = assemble_resilient(
                self, state.materialized, [element], call.counter, 1,
                engine.warm_ancestor,
            )
            call.attrs["cache"] = "miss"
            return self._admit(state, mark, assembled)[element]

    def _serve_batch(
        self, requests: Iterable, resolve, kind: str, max_workers, deadline_ms
    ) -> list[np.ndarray]:
        """Serve the elements ``resolve`` names for ``requests`` through one
        shared plan.

        Warm targets (:meth:`_cache_get`) are pruned before planning (and
        stored targets cost the plan nothing), so only genuinely missing
        work reaches the executor.
        """
        if max_workers is None:
            max_workers = MAX_WORKERS
        elif not (isinstance(max_workers, Integral) and max_workers >= 1):
            raise InvalidQueryError(
                f"max_workers must be an integer of at least 1, got "
                f"{max_workers!r}"
            )
        if not isinstance(requests, Iterable):
            raise InvalidQueryError(
                f"a batch takes a collection of requests, got {requests!r}"
            )
        elements = [resolve(request) for request in requests]
        with _Serve(
            self, "server.query_batch", kind, deadline_ms, tracked=elements,
            queries=len(elements), requests=len(elements),
        ) as call:
            state = call.state
            distinct = list(dict.fromkeys(elements))
            answers = dict(zip(distinct, self._cache_get(state, distinct)))
            missing = [e for e, values in answers.items() if values is None]
            hits = len(answers) - len(missing)
            if missing:
                engine = state.range_engine
                mark = engine.slabs.sequence
                assembled = assemble_resilient(
                    self, state.materialized, missing, call.counter,
                    max_workers, engine.warm_ancestor,
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
            if not isinstance(ranges, Iterable):
                raise InvalidQueryError(
                    f"ranges must be (start, stop) pairs, got {ranges!r}"
                )
            ranges = tuple(ranges)
            try:
                answer = with_retries(
                    self,
                    lambda scratch: state.range_engine.range_sum(
                        ranges, counter=scratch
                    ),
                    counter,
                )
                value, cells_read = answer.value, answer.cells_read
            except IncompleteSetError:
                value = range_sum_direct(
                    self.cube.values, ranges, counter=counter
                )
                cells_read = 0
                note_degraded(self)
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
            smoothing=SMOOTHING,
            universe=list(self.shape.aggregated_views()),
        )

    def reconfigure(
        self, population: QueryPopulation | None = None
    ) -> tuple[int, float]:
        """Re-select and re-materialize; returns ``(storage, expected cost)``.

        Uses the observed workload by default.  :meth:`_migrate` builds the
        new set from the current one (assembly, not a cube rescan), and the
        whole serving state is swapped in atomically with a fresh result
        cache — unless the selection keeps the stored set (none quarantined;
        epoch 0's root copy is the constructor's, not a selection): then the
        next epoch keeps the set, range engine and cache, warm as they are.
        """
        with self._reconfigure_lock, self.obs.activate(), span(
            "server.reconfigure"
        ) as sp:
            self._log.fold()
            state = self._state
            if population is None:
                population = self.observed_population()
            select_start = time.perf_counter()
            elements, expected, states = reselect(
                self.shape, population, self.storage_budget
            )
            selected_by = dict(
                states=states,
                select_ms=(time.perf_counter() - select_start) * 1e3,
            )

            migration = OpCounter()
            new_set = state.materialized
            if not state.epoch or new_set.quarantined or (
                set(elements) != set(new_set.elements)
            ):
                new_set = self._migrate(elements, new_set, migration)
            new_state = self._publish(new_set, state.epoch + 1)
            if new_state.cache is not state.cache:
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
            values = assemble_resilient(self, source, [element], counter)
            new_set.store(element, values[element])
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
        return write_cut(self, directory)

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
        return restore_lineage(cls, durability, shards, shard_axis, **kwargs)

    def close(self) -> None:
        """Stop the snapshotter, close the WAL (final sync) and the flight
        recorder; idempotent.  The call log stays a reader's to fold (its
        registry hook stays too), so closing serves and counts nothing."""
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
    # Telemetry surfaces (:mod:`repro.obs.incident`)

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
        return incident.health(self, MAX_WORKERS)

    def serve_telemetry(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> TelemetryServer:
        """Start a ``/metrics`` + ``/health`` HTTP endpoint for this server.

        Returns the started :class:`~repro.obs.http.TelemetryServer` (its
        ``.port`` is the bound port when 0 was requested); the caller owns
        its lifetime — ``stop()`` it, or use it as a context manager.
        """
        metrics = partial(prometheus_text, self.metrics)
        return TelemetryServer(metrics, self.health, host, port).start()

    def query_profile(self, trace_id: int | None = None) -> dict:
        """Planned-vs-measured profile of one traced query.

        Joins the newest trace (or ``trace_id``) recorded by this server's
        tracer — see :func:`repro.obs.profile.query_profile`.
        """
        return query_profile(self.tracer, trace_id)

    def observe_profile(self, profile: dict) -> bool:
        """Fold one planned-vs-measured profile (:meth:`query_profile`)
        into :attr:`cost_monitor`, whose divergence is also the
        fingerprint's ``divergence_norm``.  When it trips, a fresh monitor
        judges the selection :meth:`reconfigure` installs.  Returns whether
        it re-selected."""
        with self._stats_lock, self.obs.activate():
            monitor = self.cost_monitor
            monitor.ingest(profile)
            tripped = monitor.should_reconfigure()
            if tripped:  # swapped under the lock: one caller re-selects
                self.cost_monitor = CostModelMonitor()
        self._log.fold()
        self.fingerprints.note_divergence(monitor.divergence)
        if tripped:
            self.reconfigure()
        return tripped

    def dump_diagnostics(
        self, path: str | Path | None = None, trigger: dict | None = None
    ) -> Path:
        """Write a self-contained diagnostic bundle and return its path.

        The bundle (see :mod:`repro.obs.flight`) holds the triggering
        event, exemplar Chrome traces the flight recorder kept, metrics /
        health / tuning snapshots, the recent event-log tail, telemetry
        loss, and WAL/snapshot sequence state.  ``path`` ending in
        ``.json`` writes one file; any other path writes a directory
        layout.  With no ``path``, a numbered file lands in
        ``diagnostics_dir``, outside the alerts' auto-dump budget.
        """
        return incident.dump_diagnostics(self, path, trigger)

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
        self._log.fold()
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
                        [(k, v) for k, v in cached if id(v) not in storage],
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
