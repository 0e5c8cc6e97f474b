"""Sharded materialized storage with scatter–gather assembly.

:class:`ShardedSet` speaks the :class:`~repro.core.materialize.
MaterializedSet` protocol the server and range engine consume — ``store``
/ ``assemble`` / ``assemble_batch`` / ``apply_updates`` / ``quarantined``
/ ``pool_stats`` — but holds the cube as ``S`` slabs (one
:class:`MaterializedSet` and epoch per shard, see
:class:`~repro.shard.partition.CubePartition`).

A batch is served in three phases:

1. **Plan** — every global target is projected onto the slab shape;
   shards whose healthy storage exposes the same element signature share
   *one* :func:`~repro.core.exec.plan_batch` CSE DAG (the common case:
   all shards store the same projected selection, so planning cost is
   paid once, not ``S`` times).
2. **Scatter** — one buffer per gathered element is taken first; each
   shard runs the plan against its own snapshot with
   :func:`~repro.core.exec.execute_plan` (shard-tagged span lanes,
   per-shard ``OpCounter``), writing its local targets into its own slab
   of those buffers (``out=``).  A shard whose signature cannot reach the
   targets — a quarantined array, a mid-migration divergence — recomputes
   them from its base slab into the same slabs: degradation is *per shard*.
3. **Gather** — nothing is concatenated: only the cross-shard merge
   cascade (:meth:`CubePartition.merge_steps`) runs, as one fused kernel
   on the gathered buffer.  The merge is exact by distributivity; for
   integer-valued cubes the results are bit-identical to monolithic
   assembly on any axis, for float data on the last-dimension axis
   (canonical step order is preserved).

A target the caller's warm arrays reach more cheaply than storage does
(``warm=``) skips all three: it is aggregated from its smallest warm
ancestor on the whole array, as :class:`MaterializedSet` does.

Fault sites: ``materialize.assemble`` fires once per shard leg (with a
``shard=`` context) and once before the warm derivations of a batch,
``exec.compute_node`` fires per DAG node per shard
inside the executors, ``materialize.store`` fires per shard store, and
``shard.gather`` fires once per gathered target.  Deadlines are checked
at scatter entry, inside every executor, and before the gather.

Constants: each leg dispatches against
:data:`repro.core.exec.DISPATCH_THRESHOLD`, and the shared-plan cache keeps
``_PLAN_CACHE_ENTRIES`` (this module) target sets.  Gather buffers come
from ``np.empty``; the shards' sets pin the allocator
(:func:`repro.core.kernels.pin_allocator_thresholds`), so a freed answer's
pages are reused by the next batch's buffers.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.delta import DeltaBatch
from ..core.element import CubeShape, ElementId
from ..core.exec import PlanCache, execute_plan
from ..core.kernels import fused_cascade
from ..core.materialize import (
    MaterializedSet,
    compute_element,
    derive,
    warm_routes,
)
from ..core.operators import OpCounter
from ..core.select_redundant import generation_cost
from ..errors import IncompleteSetError, TransientFault
from ..obs import current_registry, log_event, span
from ..resilience import check_deadline, fault_point, retry_transient
from .partition import CubePartition

__all__ = ["ShardedSet"]

_PLAN_CACHE_ENTRIES = 32


class ShardedSet:
    """``S`` shard-local :class:`MaterializedSet`\\ s behind one facade."""

    def __init__(
        self,
        partition: CubePartition,
        base_values: np.ndarray | None = None,
        *,
        max_retries: int = 2,
        retry_backoff_ms: float = 5.0,
    ):
        self.partition = partition
        self.shape: CubeShape = partition.shape
        self.max_retries = int(max_retries)
        self.retry_backoff_ms = float(retry_backoff_ms)
        s = partition.num_shards
        self._shards = [
            MaterializedSet(partition.local_shape) for _ in range(s)
        ]
        # Views, not copies: the server mutates the base cube in place on
        # update(), and the degraded path must see those writes.
        self._base_slabs = (
            [partition.slab(base_values, i) for i in range(s)]
            if base_values is not None
            else [None] * s
        )
        self._epochs = [0] * s
        self._stored: dict[ElementId, None] = {}
        self._plan_cache = PlanCache(_PLAN_CACHE_ENTRIES)
        #: Per storage signature, the stored tuple every shard exposing it
        #: plans against and the Procedure 3 cost memo (prices and route
        #: table) of that tuple: both depend only on a shard's stored
        #: element-id set, so new target combinations against an
        #: already-seen signature are a merge of routes already resolved.
        #: Cleared with the plan cache whenever shard storage changes.
        self._cost_memos: dict[frozenset, tuple[tuple, dict]] = {}
        #: Procedure 3 prices over the *global* elements (:meth:`_price`),
        #: replaced whenever they change.
        self._global_memo: dict = {}
        self._plan_lock = threading.Lock()
        self.last_scatter_stats: dict = {}

    # ------------------------------------------------------------------
    # MaterializedSet protocol: introspection

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    @property
    def epochs(self) -> tuple[int, ...]:
        """Per-shard storage epochs (bumped by store/migrate/update)."""
        return tuple(self._epochs)

    @property
    def elements(self) -> tuple[ElementId, ...]:
        """The *global* elements registered via :meth:`store` /
        :meth:`migrate_selection` (per-shard health may lag — see
        :attr:`quarantined`)."""
        return tuple(self._stored)

    @property
    def storage(self) -> int:
        """Stored cells across all shards."""
        return sum(ms.storage for ms in self._shards)

    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, element: ElementId) -> bool:
        # No global array is ever held; lookups route through assemble(),
        # which scatters and gathers.  (The range engine probes membership
        # before assembling — returning False keeps it on the batch path.)
        return False

    def array(self, element: ElementId) -> np.ndarray:
        raise KeyError(element)

    def array_refs(self) -> dict[ElementId, np.ndarray]:
        """Identity snapshot of globally stored arrays: always empty.

        No global array is ever held — every served array is a fresh
        gather buffer — so a caller patching its own cached copies never
        aliases sharded storage.
        """
        return {}

    @property
    def quarantined(self) -> tuple[ElementId, ...]:
        """Local elements quarantined on any shard (shard-local ids)."""
        out: list[ElementId] = []
        for ms in self._shards:
            out.extend(ms.quarantined)
        return tuple(out)

    def pool_stats(self) -> dict:
        """Always ``{"hits": 0, "misses": 0}``, as
        :meth:`MaterializedSet.pool_stats`: no buffer pool is left, and the
        end-to-end benchmark's traced run still reads these two keys."""
        return {"hits": 0, "misses": 0}

    def can_assemble(self, target: ElementId) -> bool:
        local = self.partition.project(target)
        return all(
            ms.can_assemble(local) or slab is not None
            for ms, slab in zip(self._shards, self._base_slabs)
        )

    def shards_health(self) -> dict:
        """JSON-friendly shards section for ``health()``/``repro stats``."""
        per_shard = []
        for s, ms in enumerate(self._shards):
            per_shard.append(
                {
                    "shard": s,
                    "epoch": self._epochs[s],
                    "stored": len(ms),
                    "storage": ms.storage,
                    "quarantined": len(ms.quarantined),
                }
            )
        return {
            "count": self.num_shards,
            "axis": self.partition.axis,
            "shard_extent": self.partition.shard_extent,
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # MaterializedSet protocol: mutation

    def store(self, element: ElementId, values: np.ndarray) -> None:
        """Split ``values`` into per-shard slabs and store each locally.

        Requires the element's axis level to stay within the slab
        (:meth:`CubePartition.splittable`) — true for the root and for
        every gathered element.  Each shard's
        :meth:`MaterializedSet.store` copies and seals its slab, so one
        corrupted store damages exactly one shard.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != element.data_shape:
            raise ValueError(
                f"data shape {values.shape} != {element.data_shape}"
            )
        if not self.partition.splittable(element):
            raise ValueError(
                "element does not split along the shard axis: level "
                f"{element.nodes[self.partition.axis][0]} exceeds shard "
                f"depth {self.partition.shard_depth}"
            )
        local = self.partition.project(element)
        for s, ms in enumerate(self._shards):
            ms.store(local, values[self.partition.data_slab_slices(element, s)])
            self._epochs[s] += 1
        self._stored[element] = None
        with self._plan_lock:
            self._plan_cache.clear()
            self._cost_memos.clear()
            self._global_memo = {}

    def apply_updates(
        self,
        batch: DeltaBatch,
        counter: OpCounter | None = None,
    ) -> None:
        """Route a delta batch to the owning shards in one grouped pass.

        ``batch`` is a validated :class:`~repro.core.delta.DeltaBatch` of
        global cube cells.  Rows are grouped by owning shard and each
        owner gets *one* :meth:`MaterializedSet.apply_updates` call on its
        own shard-local batch; only touched shards re-seal their arrays
        and bump their epoch — the others keep their storage, epoch, and
        any caches keyed on it completely intact.
        """
        if batch.shape != self.shape:
            # Re-framing below would re-validate a foreign batch against
            # the slabs and could accept it.
            raise ValueError(
                f"batch of a {batch.shape.sizes} cube routed to a "
                f"{self.shape.sizes} set"
            )
        axis = self.partition.axis
        extent = self.partition.shard_extent
        owners = batch.coordinates[:, axis] // extent
        for s in np.unique(owners):
            rows = owners == s
            local = batch.coordinates[rows]  # a copy: mask indexing
            local[:, axis] %= extent
            shard = self._shards[int(s)]
            shard.apply_updates(
                DeltaBatch(shard.shape, local, batch.deltas[rows]),
                counter=counter,
            )
            self._epochs[int(s)] += 1

    # ------------------------------------------------------------------
    # Assembly: scatter–gather

    def assemble(
        self, target: ElementId, counter: OpCounter | None = None, warm=None
    ) -> np.ndarray:
        return self.assemble_batch([target], counter=counter, warm=warm)[target]

    def _price(self, target: ElementId) -> float:
        """Procedure 3 price of ``target`` over the global elements.

        Memoized until the stored set changes; an infeasibility verdict is
        only trusted from a fresh memo (a price racing a store may land in
        the old one)."""
        stored = tuple(self._stored)
        cost = generation_cost(target, stored, _memo=self._global_memo)
        if cost == float("inf"):
            cost = generation_cost(target, stored, _memo={})
        return cost

    def assemble_batch(
        self,
        targets,
        counter: OpCounter | None = None,
        max_workers: int = 1,
        cost_memo: dict | None = None,
        warm=None,
    ) -> dict[ElementId, np.ndarray]:
        """Scatter the batch to every shard, merge the partials exactly.

        Legs write into slabs of buffers taken before the scatter, so an
        answer never aliases a stored array, on any shard count.  A target
        that its smallest ``warm`` ancestor (a global array,
        :func:`~repro.core.materialize.warm_routes`) reaches more cheaply
        than its stored route over the global elements is aggregated from
        it in one cascade, after the ``materialize.assemble`` fault site
        and a deadline check; only the rest are scattered."""
        ordered = list(dict.fromkeys(targets))
        if not ordered:
            return {}
        for target in ordered:
            if target.shape != self.shape:
                raise ValueError(
                    "assemble_batch target from a different cube shape"
                )
        check_deadline("shard.scatter")
        chosen = warm_routes(ordered, warm, self._price)
        results: dict[ElementId, np.ndarray] = {}
        if chosen:
            fault_point("materialize.assemble", batch=len(chosen))
            check_deadline("materialize.assemble")
            own = counter if counter is not None else OpCounter()
            results = derive(chosen, own)
            ordered = [t for t in ordered if t not in chosen]
        if ordered:
            results.update(self._scatter_gather(ordered, counter, max_workers))
        return results

    def _scatter_gather(self, ordered, counter, max_workers):
        """Plan, scatter and gather ``ordered`` (distinct global targets)."""
        local_of = {t: self.partition.project(t) for t in ordered}
        s_count = self.num_shards
        # Gathered elements and local targets correspond one to one.
        gathered: dict[ElementId, np.ndarray] = {}
        slabs: list[dict] = [{} for _ in range(s_count)]
        for target, local in local_of.items():
            if local in gathered:
                continue
            element = self.partition.gathered_element(target)
            buf = gathered[local] = np.empty(element.data_shape)
            for s, out in enumerate(slabs):
                out[local] = buf[self.partition.data_slab_slices(element, s)]

        with span(
            "shard.scatter", shards=s_count, targets=len(ordered)
        ) as sp:
            snapshots = [ms.arrays_snapshot() for ms in self._shards]
            plans, plan_groups = self._plans_for(list(gathered), snapshots)
            counters = [OpCounter() for _ in range(s_count)]
            degraded: list[int] = []

            def leg(s: int, workers: int) -> None:
                self._execute_shard(
                    s,
                    plans[s],
                    snapshots[s],
                    slabs[s],
                    counters[s],
                    degraded,
                    max_workers=workers,
                )

            if max_workers > 1 and s_count > 1:
                lanes = min(s_count, max_workers)
                # Lanes already occupy ``lanes`` CPUs; a leg's own pool
                # only gets the cores the process can actually run on.
                cpus = len(os.sched_getaffinity(0))
                inner = max(1, min(max_workers, cpus) // lanes)
                with ThreadPoolExecutor(max_workers=lanes) as pool:
                    futures = [
                        pool.submit(
                            contextvars.copy_context().run, leg, s, inner
                        )
                        for s in range(s_count)
                    ]
                    # Every leg is waited for, and its outcome read.
                    errors = [e for e in (f.exception() for f in futures) if e]
                    if errors:
                        raise errors[0]
            else:
                for s in range(s_count):
                    leg(s, max_workers)

            # Merge per-shard counters in shard order: one batch, one
            # deterministic accounting regardless of lane interleaving.
            own = counter if counter is not None else OpCounter()
            for shard_counter in counters:
                own.merge(shard_counter)

            check_deadline("shard.gather")
            t0 = time.perf_counter()
            merge_counter = OpCounter()
            results = self._gather(local_of, gathered, merge_counter)
            own.merge(merge_counter)
            gather_ms = (time.perf_counter() - t0) * 1e3

            registry = current_registry()
            registry.counter(
                "shard_scatters_total", "scatter-gather batches served"
            ).inc()
            registry.histogram(
                "shard_gather_ms", "wall milliseconds merging shard partials"
            ).observe(gather_ms)
            self.last_scatter_stats = {
                "targets": len(ordered),
                "shards": s_count,
                "plans": plan_groups,
                "degraded_shards": sorted(set(degraded)),
                "merge_ops": merge_counter.total,
                "gather_ms": gather_ms,
            }
            sp.set(
                plans=plan_groups,
                degraded=len(set(degraded)),
                merge_ops=merge_counter.total,
            )
        return results

    # ------------------------------------------------------------------
    # Internals

    def _plans_for(self, local_targets, snapshots):
        """One CSE plan per distinct shard storage signature.

        Shards exposing identical healthy element sets share a plan (the
        planning cost is paid once for the common case of uniform
        storage); a diverged shard — quarantine dropped an array — gets
        its own attempt, and ``None`` when its storage cannot reach the
        targets, which routes that single shard to the degraded path.
        """
        plans = [None] * len(snapshots)
        by_sig: dict = {}
        for s, snapshot in enumerate(snapshots):
            by_sig.setdefault(frozenset(snapshot), []).append(s)
        key_targets = tuple(local_targets)
        for sig, shard_ids in by_sig.items():
            with self._plan_lock:
                planning = self._cost_memos.get(sig)
                if planning is None:
                    # The memo is keyed by the storage signature, so its
                    # prices can only ever have been computed against this
                    # exact stored tuple — no staleness to guard against.
                    stored = tuple(
                        sorted(sig, key=lambda e: (e.depth, e.nodes))
                    )
                    planning = self._cost_memos[sig] = (stored, {})
            plan = self._plan_cache.plan(
                key_targets, *planning, key=(key_targets, sig)
            )
            for s in shard_ids:
                plans[s] = plan
        return plans, len(by_sig)

    def _execute_shard(
        self,
        s: int,
        plan,
        snapshot,
        out: dict[ElementId, np.ndarray],
        counter: OpCounter,
        degraded: list,
        *,
        max_workers: int,
    ) -> None:
        """One scatter leg into its slabs: retries, then degraded fallback."""
        in_flight = current_registry().gauge(
            "shard_in_flight", "scatter legs currently executing"
        )
        in_flight.inc(shard=str(s))
        try:
            with span("shard.execute", shard=s, targets=len(out)):
                fault_point("materialize.assemble", shard=s, batch=len(out))
                check_deadline("shard.execute")
                if plan is not None:
                    try:
                        self._retry(
                            s,
                            lambda scratch: execute_plan(
                                plan,
                                snapshot,
                                counter=scratch,
                                max_workers=max_workers,
                                span_attrs={"shard": s},
                                out=out,
                            ),
                            counter,
                        )
                        return
                    except TransientFault:
                        pass  # budget spent: this leg serves from its slab
                degraded.append(s)
                self._degraded_shard(s, out, counter)
        finally:
            in_flight.inc(-1.0, shard=str(s))

    def _degraded_shard(
        self, s: int, out: dict[ElementId, np.ndarray], counter: OpCounter
    ) -> None:
        """Recompute one shard's targets from its base slab into ``out``.

        The re-route is shard-local: the other legs keep serving from
        their materialized elements, so a quarantined (or persistently
        faulting) shard degrades only its own slab of the answer.
        """
        slab = self._base_slabs[s]
        if slab is None:
            raise IncompleteSetError(
                f"shard {s} storage is not complete for the requested "
                "targets and no base slab is attached"
            )
        registry = current_registry()
        registry.counter(
            "shard_degraded_total",
            "scatter legs re-routed to the shard's base slab",
        ).inc(shard=str(s))
        log_event("shard_degraded", shard=s, targets=len(out))
        scratch = OpCounter()
        for le, view in out.items():
            np.copyto(view, compute_element(slab, le, counter=scratch))
        counter.merge(scratch)

    def _gather(
        self,
        local_of: dict[ElementId, ElementId],
        gathered: dict[ElementId, np.ndarray],
        counter: OpCounter,
    ) -> dict[ElementId, np.ndarray]:
        """Run each target's cross-shard merge on its filled buffer (a
        target within the slab depth *is* its buffer); a buffer no answer
        is dies with ``gathered``."""
        results = {}
        for target, local in local_of.items():
            fault_point("shard.gather", element=target)
            steps = self.partition.merge_steps(target)
            buf = gathered[local]
            results[target] = (
                fused_cascade(buf, steps, counter=counter) if steps else buf
            )
        return results

    def _retry(self, s: int, attempt, counter: OpCounter):
        """:func:`retry_transient` on this set's budget, counted per shard."""

        def count(_faults: int) -> None:
            current_registry().counter(
                "shard_retries_total",
                "transient-fault retries on scatter legs",
            ).inc(shard=str(s))

        return retry_transient(
            attempt,
            counter,
            max_retries=self.max_retries,
            backoff_ms=self.retry_backoff_ms,
            on_retry=count,
        )

    # ------------------------------------------------------------------
    # Reconfiguration

    def migrate_selection(
        self,
        elements,
        source: "ShardedSet",
        counter: OpCounter | None = None,
    ) -> None:
        """Populate this set with ``elements`` assembled from ``source``.

        The shard-local analogue of the server's reconfigure store loop:
        per shard, each projected element is assembled from the *old*
        shard's storage (cheap — slab-sized work, shard-local routes, with
        retry and base-slab fallback), depth-ordered so ancestors land
        first.  Distinct global elements can share a projection; each
        local element is assembled and stored once.
        """
        own = counter if counter is not None else OpCounter()
        ordered = list(dict.fromkeys(elements))
        locals_needed = sorted(
            dict.fromkeys(self.partition.project(e) for e in ordered),
            key=lambda e: e.depth,
        )
        for s, ms in enumerate(self._shards):
            for le in locals_needed:
                ms.store(
                    le, self._local_assemble_resilient(source, s, le, own)
                )
            self._epochs[s] = source._epochs[s] + 1
        self._stored = dict.fromkeys(ordered)
        with self._plan_lock:
            self._plan_cache.clear()
            self._cost_memos.clear()
            self._global_memo = {}

    # ------------------------------------------------------------------
    # Durability

    def local_sets(self) -> tuple[MaterializedSet, ...]:
        """The per-shard local sets, in shard order (for snapshotting)."""
        return tuple(self._shards)

    def install_restored(self, elements, local_sets, epochs) -> None:
        """Adopt snapshot-loaded per-shard sets as this set's storage.

        The same-layout restore path: ``local_sets`` were written by
        :func:`~repro.durability.write_snapshot` from a partition with
        identical shard count and axis, so each is installed directly —
        no reassembly, no projection.  ``elements`` is the *global*
        selection the locals realize; ``epochs`` restores the per-shard
        storage epochs.
        """
        local_sets = list(local_sets)
        if len(local_sets) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} local sets, got {len(local_sets)}"
            )
        for s, local in enumerate(local_sets):
            if local.shape != self.partition.local_shape:
                raise ValueError(
                    f"shard {s} local set has shape {local.shape.sizes}, "
                    f"expected {self.partition.local_shape.sizes}"
                )
        self._shards = local_sets
        self._stored = dict.fromkeys(elements)
        self._epochs = [int(e) for e in epochs]
        with self._plan_lock:
            self._plan_cache.clear()
            self._cost_memos.clear()
            self._global_memo = {}

    def _local_assemble_resilient(
        self, source: "ShardedSet", s: int, local: ElementId, counter: OpCounter
    ) -> np.ndarray:
        try:
            return self._retry(
                s,
                lambda scratch: source._shards[s].assemble(
                    local, counter=scratch
                ),
                counter,
            )
        except (TransientFault, IncompleteSetError):
            values = np.empty(local.data_shape)
            self._degraded_shard(s, {local: values}, counter)
            return values
