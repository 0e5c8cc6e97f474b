"""Materialization of view elements and assembly of views from them.

This module turns the identifier algebra of :mod:`repro.core.element` into
actual numpy arrays:

- :func:`compute_element` runs the operator cascade that defines an element
  directly on the cube data.
- :class:`MaterializedSet` stores the arrays of a selected element set and
  *assembles* any requested view element from them, choosing — exactly as
  Procedure 3 prices it — between aggregating a stored ancestor down and
  synthesizing from children via perfect reconstruction (Property 1).

Every code path threads an :class:`~repro.core.operators.OpCounter`, so the
number of scalar operations actually performed can be compared against the
analytic cost model (the test-suite and an ablation benchmark do exactly
that).
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Iterable
from functools import partial

import numpy as np

from ..obs import add_span_event, current_registry, log_event, span
from ..obs.metrics import bound_series
from ..resilience.deadline import check_deadline
from ..resilience.faults import corrupt_array, fault_point
from .delta import DeltaBatch, SlabStore
from .element import CubeShape, ElementId
from .exec import PlanCache, execute_plan, plan_batch
from .kernels import canonical_steps, fused_cascade, pin_allocator_thresholds
from .operators import OpCounter
from .select_redundant import generation_cost

__all__ = ["compute_element", "MaterializedSet", "element_checksum"]

#: The stored elements' slab label, and the label their patch additions
#: are charged under.
BATCH_UPDATE = "batch update"

#: The series a set's assembly writes (:func:`~repro.obs.metrics.
#: bound_series`): ``attribute -> (kind, name, description, labels)``.
ASSEMBLY_SERIES = {
    "batches": (
        "counter", "assemble_batch_total", "shared-plan batch assemblies", {}
    ),
    "assembled": ("counter", "assemble_total", "view element assemblies", {}),
    "operations": (
        "histogram", "assemble_batch_operations",
        "scalar operations per batch", {},
    ),
    "divergence": (
        "histogram", "cost_model_divergence",
        "measured over planned scalar operations (1.0 = exact)",
        {"path": "batch"},
    ),
    "derived": (
        "counter", "assemble_derived_total",
        "targets aggregated from a warm ancestor instead of storage", {},
    ),
}


def element_checksum(values: np.ndarray) -> int:
    """CRC-32 of an element array's bytes (the stored-integrity seal),
    read through the buffer protocol: a C-contiguous array is hashed in
    place, without a ``tobytes()`` copy."""
    return zlib.crc32(np.ascontiguousarray(values))


def route_steps(source: ElementId, target: ElementId) -> tuple:
    """The steps of the cascade from ``source`` down to ``target``, checked.

    ``target`` must be a descendant of ``source`` in the view element graph
    (equivalently: its frequency rectangle is contained in ``source``'s).
    The cascade applies, per dimension, the operators named by the extra
    bits of the target's dyadic index — ``P1`` for 0, ``R1`` for 1 — which
    costs ``Vol(source) - Vol(target)`` scalar operations in total
    (:func:`~repro.core.kernels.canonical_steps`, the order every execution
    path uses).
    """
    if not source.contains(target):
        raise ValueError("target is not a descendant of source")
    return canonical_steps(source, target)


def _descend(
    values: np.ndarray,
    source: ElementId,
    target: ElementId,
    counter: OpCounter | None,
) -> np.ndarray:
    """Cascade ``values`` (the data of ``source``) down to ``target``
    (:func:`route_steps`) as one fused kernel (bit-identical to the
    per-step operators; see :mod:`repro.core.kernels`).  A zero-step
    descent returns the input by reference.
    """
    return fused_cascade(values, route_steps(source, target), counter=counter)


def warm_routes(targets, warm, price) -> dict:
    """The targets cheaper to aggregate from a warm ancestor than to
    assemble from storage: ``{target: (ancestor, values, steps)}``.

    ``warm(target)`` gives the route from the smallest warm proper
    ancestor of ``target`` — ``(ancestor, values, steps)``, its steps
    compiled once (:meth:`repro.core.range_query.RangeQueryEngine.
    warm_route`) — or ``None``; a lookup that gives only ``(ancestor,
    values)`` has its steps derived here, checked (:func:`route_steps`).
    ``price(target)`` is the stored route's Procedure 3 cost (``inf`` when
    storage cannot produce it).  Aggregating the ancestor down costs
    ``Vol(ancestor) - Vol(target)`` (Eq 28); a tie keeps the stored route.
    A proper ancestor holds at least twice the target's cells, so a stored
    route costing at most ``Vol(target)`` is kept without a lookup.
    """
    chosen = {}
    if warm is not None:
        for target in targets:
            cost = price(target)
            if cost <= target.volume:
                continue
            route = warm(target)
            if route is None or route[0].volume - target.volume >= cost:
                continue
            if len(route) == 2:
                route = (*route, route_steps(route[0], target))
            chosen[target] = route
    return chosen


def derive(
    chosen: dict, counter: OpCounter | None, derived
) -> dict[ElementId, np.ndarray]:
    """Run :func:`warm_routes`' choices: each target is its route's one
    fused cascade down from the warm ancestor, into a fresh buffer (an
    ancestor is always a *proper* one, so nothing aliases the warm array),
    counted in ``derived`` (the caller's bound ``assemble_derived_total``
    series)."""
    if chosen:
        derived.inc(len(chosen))
    return {
        target: fused_cascade(values, steps, counter=counter)
        for target, (_, values, steps) in chosen.items()
    }


def compute_element(
    cube_values: np.ndarray,
    element: ElementId,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Materialize ``element`` directly from the cube's data.

    Runs the defining operator cascade; costs
    ``Vol(A) - Vol(element)`` operations.
    """
    cube_values = np.asarray(cube_values, dtype=np.float64)
    if cube_values.shape != element.shape.sizes:
        raise ValueError(
            f"cube data shape {cube_values.shape} does not match "
            f"element shape {element.shape.sizes}"
        )
    return _descend(cube_values, element.shape.root(), element, counter)


class MaterializedSet:
    """A stored set of view elements able to assemble further elements.

    This is the runtime object behind the paper's "dynamic assembly": a
    selection algorithm picks the element set, :meth:`from_cube` computes and
    stores it, and :meth:`assemble` serves arbitrary view elements (in
    particular aggregated views) on demand.

    Constants: batches dispatch against
    :data:`repro.core.exec.DISPATCH_THRESHOLD`; ``_PLAN_CACHE_ENTRIES``
    (below) multi-target plans are kept.  Temporaries and answers come
    from the allocator, which :func:`~repro.core.kernels.
    pin_allocator_thresholds` (applied by the constructor, once per
    process) keeps from trimming freed buffers back to the kernel.
    """

    #: Multi-target batch plans retained, least recently used first out
    #: (prepared-statement style).  A plan depends only on the stored
    #: element *ids*, never on their values, so it survives in-place
    #: updates and is dropped only when :meth:`store` changes the element
    #: set.
    _PLAN_CACHE_ENTRIES = 32

    def __init__(self, shape: CubeShape):
        pin_allocator_thresholds()
        self.shape = shape
        self._arrays: dict[ElementId, np.ndarray] = {}
        self._plan_cache = PlanCache(self._PLAN_CACHE_ENTRIES)
        #: Procedure 3 generation costs and the routes resolved from them
        #: (``planning.RouteTable``), memoized across *every* plan this
        #: set prices.  Both depend only on the stored element-id set, so
        #: the memo shares the plan cache's lifecycle (cleared when an
        #: element is stored or quarantined) but not its key: a batch of
        #: never-before-seen targets is a merge of the routes its elements
        #: already have.
        self._cost_memo: dict = {}
        #: Integrity state: every stored array is *sealed* with a CRC-32 at
        #: store time and verified on first use; a failed verification
        #: quarantines the element, and assembly transparently re-routes
        #: around it (perfect reconstruction keeps answers exact as long as
        #: the surviving set is complete).
        self._checksums: dict[ElementId, int] = {}
        self._verified: set[ElementId] = set()
        #: Whether some element may await verification: set by every
        #: (re)seal, so a pass with nothing to check reads one flag.
        self._unverified = False
        self._quarantined: dict[ElementId, str] = {}
        self._integrity_lock = threading.Lock()
        #: The stored arrays as signed slots over their own buffers, each
        #: joined as it is stored (:meth:`_put`), so a burst repairs all of
        #: them through one compiled index — beside the warm arrays of the
        #: range engine built over this set, which shares the store.
        self.slabs = SlabStore(shape)
        arrays = self._arrays
        self.slabs.own(BATCH_UPDATE, lambda: set(map(id, arrays.values())))
        #: Per stored element, the read-only view of its array (the view's
        #: ``base``): what assembly hands out for a stored target
        #: (:meth:`_handout`), made once, as the array is stored
        #: (:meth:`_put`), so a caller's write cannot reach storage and the
        #: alias guard knows every view.
        self._views: dict[ElementId, np.ndarray] = {}
        #: Assembly's series, bound per registry (:data:`ASSEMBLY_SERIES`).
        self._series = None

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_cube(
        cls,
        cube_values: np.ndarray,
        elements: Iterable[ElementId],
        counter: OpCounter | None = None,
    ) -> "MaterializedSet":
        """Compute and store ``elements`` from raw cube data.

        Elements are computed in ascending depth order and each is derived
        from the deepest already-stored ancestor (falling back to the cube),
        so shared cascade prefixes are not recomputed.
        """
        elements = sorted(set(elements), key=lambda e: e.depth)
        if not elements:
            raise ValueError("at least one element is required")
        shape = elements[0].shape
        cube_values = np.asarray(cube_values, dtype=np.float64)
        if cube_values.shape != shape.sizes:
            raise ValueError(
                f"cube data shape {cube_values.shape} does not match {shape.sizes}"
            )
        out = cls(shape)
        root = shape.root()
        with span("materialize.from_cube", elements=len(elements)):
            out._materialize_all(cube_values, root, elements, counter)
        return out

    def _materialize_all(
        self,
        cube_values: np.ndarray,
        root: ElementId,
        elements: list[ElementId],
        counter: OpCounter | None,
    ) -> None:
        out = self
        for element in elements:
            source, source_values = root, cube_values
            candidates = [
                (stored, values)
                for stored, values in out._arrays.items()
                if stored.contains(element)
            ]
            if candidates:
                source, source_values = min(candidates, key=lambda sv: sv[0].volume)
            values = _descend(source_values, source, element, counter)
            if values is source_values:
                # Zero-step descent aliases the source; stored arrays must
                # be owned so apply_updates never mutates caller data.
                values = values.copy()
            out._put(element, values)
            out._seal(element)

    def store(self, element: ElementId, values: np.ndarray) -> None:
        """Store a precomputed element array (copied; the set owns it)."""
        values = np.array(values, dtype=np.float64, copy=True)
        if values.shape != element.data_shape:
            raise ValueError(
                f"array shape {values.shape} does not match element "
                f"data shape {element.data_shape}"
            )
        if element.shape != self.shape:
            raise ValueError("element belongs to a different cube shape")
        if element not in self._arrays:
            self._plan_cache.clear()
            self._cost_memo.clear()
        self._put(element, values)
        with self._integrity_lock:
            self._quarantined.pop(element, None)
        self._seal(element)
        # Fault site: simulated post-seal bit-rot of the stored array (the
        # checksum no longer matches, so first use must quarantine it).
        corrupt_array("materialize.store", values)

    # ------------------------------------------------------------------
    # Integrity

    def _seal(self, element: ElementId) -> None:
        """(Re)compute the element's checksum.

        Sealing records what the array *should* look like; it does not mark
        the element verified — the first use after a (re)seal rechecks it,
        so bit-rot between storing and serving is caught, not trusted.
        """
        with self._integrity_lock:
            self._checksums[element] = element_checksum(self._arrays[element])
            self._verified.discard(element)
            self._unverified = True

    def checksum(self, element: ElementId) -> int:
        """The stored seal of ``element`` (KeyError when absent)."""
        with self._integrity_lock:
            return self._checksums[element]

    def verify(self, element: ElementId) -> bool:
        """Recheck one stored element against its seal (True = intact)."""
        values = self._arrays.get(element)
        if values is None:
            return False
        with self._integrity_lock:
            expected = self._checksums.get(element)
        return expected is not None and element_checksum(values) == expected

    def quarantine(self, element: ElementId, reason: str = "manual") -> None:
        """Remove a damaged element from service (idempotent).

        The array is dropped, batch plans referencing it are invalidated,
        and subsequent assemblies route around it; the event is counted as
        ``integrity_failures_total`` in the active metrics registry.
        """
        with self._integrity_lock:
            if element not in self._arrays:
                return
            del self._arrays[element]
            self.slabs.dropped(BATCH_UPDATE)
            self._views.pop(element, None)
            self._checksums.pop(element, None)
            self._verified.discard(element)
            self._quarantined[element] = reason
            self._plan_cache.clear()
            self._cost_memo.clear()
        current_registry().counter(
            "integrity_failures_total",
            "stored elements quarantined by checksum verification",
        ).inc(reason=reason)
        add_span_event(
            "quarantine", element=element.describe(), reason=reason
        )
        log_event("quarantine", element=element.describe(), reason=reason)

    @property
    def quarantined(self) -> tuple[ElementId, ...]:
        """Elements removed from service by integrity verification."""
        with self._integrity_lock:
            return tuple(self._quarantined)

    def _verify_unverified(self) -> None:
        """First-use verification: check every not-yet-verified element.

        Runs before each assembly/update takes its consistent snapshot of
        the stored set, so a corrupted array is quarantined before any
        query can consume it.  Each element is checksummed once per seal,
        outside the lock, and the pass takes it twice — steady-state cost
        is one flag read (:attr:`_unverified`).  An element stored or
        resealed while its checksum was computed is left for the next pass.
        """
        if not self._unverified:
            return
        with self._integrity_lock:
            self._unverified = False
            pending = [
                (e, values, self._checksums.get(e))
                for e, values in self._arrays.items()
                if e not in self._verified
            ]
        if not pending:
            return
        sums = [element_checksum(values) for _, values, _ in pending]
        damaged = []
        with self._integrity_lock:
            for (element, values, expected), crc in zip(pending, sums):
                if (
                    self._arrays.get(element) is not values
                    or self._checksums.get(element) != expected
                ):
                    self._unverified = True
                    continue
                if crc == expected:
                    self._verified.add(element)
                else:
                    damaged.append(element)
        for element in damaged:
            self.quarantine(element, reason="checksum mismatch")

    def pool_stats(self) -> dict:
        """Always ``{"hits": 0, "misses": 0}``: the buffer pools are gone
        (the pinned allocator recycles temporaries), and the end-to-end
        benchmark's traced run still reads these two keys."""
        return {"hits": 0, "misses": 0}

    def array_refs(self) -> dict[ElementId, np.ndarray]:
        """Identity snapshot of what assembly hands out for the stored
        elements (their read-only views), *without* verification.

        For callers that need to know which live ndarray objects alias
        storage — the server's cache patcher skips cache entries aliasing a
        stored array so a delta is never applied twice — not for reading
        values (use :meth:`array` / :meth:`arrays_snapshot`, which verify).
        """
        return {e: self._handout(e, a) for e, a in list(self._arrays.items())}

    def _put(self, element: ElementId, values: np.ndarray) -> None:
        """Store owned ``values`` for ``element``, with its read-only view
        (first, so a snapshot holding the array finds its view), and join
        them to :attr:`slabs` (the array they replace is dropped)."""
        view = values.view()
        view.flags.writeable = False
        with self.slabs.lock:
            self._views[element] = view
            if self._arrays.get(element) is not None:
                self.slabs.dropped(BATCH_UPDATE)
            self._arrays[element] = values
            self.slabs.join(BATCH_UPDATE, [(element, values)])

    def _handout(self, element: ElementId, values: np.ndarray) -> np.ndarray:
        """The read-only view of stored ``values`` that assembly returns:
        the one made when they were stored — so one per array, the one
        :meth:`array_refs` lists — or, for an array replaced since the
        caller's snapshot (no longer storage), a view of its own."""
        held = self._views.get(element)
        if held is not None and held.base is values:
            return held
        view = values.view()
        view.flags.writeable = False
        return view

    def arrays_snapshot(self) -> dict[ElementId, np.ndarray]:
        """A point-in-time ``{element: values}`` view of healthy storage.

        Verifies any unverified seals first (quarantining on mismatch, like
        :meth:`assemble`), then returns a shallow dict copy: the mapping is
        stable against concurrent stores/quarantines, the arrays are the
        live ones and must be treated as read-only.
        """
        self._verify_unverified()
        return dict(self._arrays)

    def integrity_report(self) -> dict:
        """JSON-friendly ``{stored, verified, quarantined}`` summary."""
        with self._integrity_lock:
            return {
                "stored": len(self._arrays),
                "verified": len(self._verified & set(self._arrays)),
                "quarantined": {
                    e.describe(): reason
                    for e, reason in self._quarantined.items()
                },
            }

    # ------------------------------------------------------------------
    # Introspection

    @property
    def elements(self) -> tuple[ElementId, ...]:
        """The stored elements."""
        return tuple(self._arrays)

    @property
    def storage(self) -> int:
        """Total stored cells (the paper's storage cost)."""
        return sum(a.size for a in self._arrays.values())

    def __contains__(self, element: ElementId) -> bool:
        return element in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def array(self, element: ElementId) -> np.ndarray:
        """The stored array of ``element`` (KeyError when absent).

        Verified on first use: a checksum mismatch quarantines the element
        and raises :class:`KeyError`, exactly as if it were never stored —
        callers already handle absence, so damage degrades to a re-route.
        """
        values = self._arrays[element]
        if element not in self._verified:
            if not self.verify(element):
                self.quarantine(element, reason="checksum mismatch")
                raise KeyError(element)
            with self._integrity_lock:
                self._verified.add(element)
        return values

    # ------------------------------------------------------------------
    # Assembly

    def can_assemble(self, target: ElementId) -> bool:
        """Whether the stored set is complete with respect to ``target``."""
        return self._price(target, self.elements) != float("inf")

    def _price(self, target: ElementId, stored: tuple[ElementId, ...]) -> float:
        """Procedure 3 price of ``target``, through the set's persistent
        memo.  A plan racing a store can re-insert stale prices from the
        pre-store element set after the clear, so an infeasibility verdict
        is only trusted from a fresh memo.
        """
        cost = generation_cost(target, stored, _memo=self._cost_memo)
        if cost == float("inf"):
            cost = generation_cost(target, stored, _memo={})
        return cost

    def assemble(
        self,
        target: ElementId,
        counter: OpCounter | None = None,
        warm=None,
    ) -> np.ndarray:
        """Produce the data of ``target`` from the stored elements: a batch
        of one (:meth:`assemble_batch`).  A stored target is returned by
        reference (the zero-cost read the cost model promises), as a
        read-only view."""
        return self.assemble_batch([target], counter=counter, warm=warm)[target]

    def assemble_batch(
        self,
        targets: Iterable[ElementId],
        counter: OpCounter | None = None,
        max_workers: int = 1,
        warm=None,
    ) -> dict[ElementId, np.ndarray]:
        """Assemble several targets as one shared-plan DAG — the one
        executor every assembly runs through.

        The batch planner (:func:`repro.core.exec.plan_batch`) merges every
        target's Procedure 3 route — the cheaper of aggregating the
        smallest stored ancestor and synthesizing from the cheapest child
        pair — into one DAG with common-subexpression elimination, so
        intermediates shared between targets (e.g. the partial-sum
        ancestors common to the ``2^d`` group-by views) are computed once,
        and single-consumer cascades run as fused kernels.  The executor
        dispatches cost-aware: requesting ``max_workers > 1`` is safe even
        for tiny batches — it demotes itself to serial when no node's
        modeled cost reaches :data:`repro.core.exec.DISPATCH_THRESHOLD`.
        Results are bit-identical to assembling each target alone and never
        cost more scalar operations; the total is usually strictly lower.
        Procedure 3 prices are reused across batches through the set's
        persistent cost memo (valid until the stored element set changes).

        ``warm`` (:func:`warm_routes`) offers warm arrays as a third
        source: a target cheaper to aggregate from its smallest warm
        ancestor — or one storage cannot produce at all — is that one
        cascade, and only the rest are planned.

        Returns ``{target: values}`` (duplicates deduplicated; stored
        targets by reference, as read-only views of storage).  Raises
        :class:`ValueError` when the stored set cannot produce some
        target.
        """
        targets = list(targets)
        if not targets:
            return {}
        for target in targets:
            if target.shape is not self.shape and target.shape != self.shape:
                raise ValueError("target belongs to a different cube shape")
        with span("materialize.assemble_batch", targets=len(targets)) as sp:
            fault_point("materialize.assemble", batch=len(targets))
            check_deadline("materialize.assemble_batch")
            self._verify_unverified()
            own = counter if counter is not None else OpCounter()
            ops_before = own.total
            arrays = dict(self._arrays)
            stored = tuple(arrays)
            distinct = tuple(dict.fromkeys(targets))
            chosen = warm_routes(
                distinct, warm, partial(self._price, stored=stored)
            )
            if not chosen:
                planned = distinct
            elif len(chosen) == len(distinct):
                planned = ()
            else:
                planned = tuple(t for t in distinct if t not in chosen)
            series = bound_series(self, ASSEMBLY_SERIES)
            results: dict[ElementId, np.ndarray] = {}
            if planned:
                # Validated against this snapshot: a cached plan can
                # outlive a quarantine that raced the cache clear, and is
                # never executed against missing arrays.
                plan = self._plan_cache.plan(planned, stored, self._cost_memo)
                if plan is None:
                    # A plan racing a store can re-insert stale prices
                    # from the pre-store element set after the clear;
                    # retry the infeasibility verdict on a fresh memo
                    # before trusting it.
                    plan = plan_batch(planned, stored, cost_memo={})
                exec_stats: dict = {}
                results = execute_plan(
                    plan,
                    arrays,
                    counter=own,
                    max_workers=max_workers,
                    stats=exec_stats,
                )
                if plan.planned_cost > 0:
                    series.divergence.observe(
                        (own.total - ops_before) / plan.planned_cost
                    )
                sp.set(
                    planned_cost=plan.planned_cost,
                    naive_cost=plan.naive_cost,
                    cse_ratio=round(plan.cse_ratio, 4),
                    dag_nodes=len(plan.nodes),
                    workers_effective=exec_stats.get("workers_effective"),
                    demoted=exec_stats.get("demoted"),
                )
                for target in planned:
                    if target in arrays:
                        results[target] = self._handout(target, arrays[target])
            results.update(derive(chosen, own, series.derived))
            ops = own.total - ops_before
            series.batches.inc()
            series.assembled.inc(len(results))
            series.operations.observe(ops)
            sp.set(operations=ops, derived=len(chosen))
        return results

    # ------------------------------------------------------------------
    # Incremental maintenance

    def apply_updates(
        self,
        batch: DeltaBatch,
        counter: OpCounter | None = None,
    ) -> None:
        """Propagate a batch of cube-cell deltas into every stored element.

        ``batch`` is a validated :class:`~repro.core.delta.DeltaBatch` in
        this set's coordinate frame (a single-cell update is a one-row
        batch).  Every view element is a linear functional of the cube, so
        a delta touches exactly one coefficient per stored element, with a
        sign flipped by each residual step that split the coordinate into
        the odd half (the math lives in :mod:`repro.core.delta`).  The
        stored arrays stay where they are: each is a signed slot of
        :attr:`slabs`, whose index — compiled once per slot-set change —
        repairs all of them with one lookup per dimension and one
        scatter-add per buffer, charged one addition per delta and element
        under ``"batch update"``.  The same scatter repairs every other
        owner of the store this batch has not reached yet — the warm
        arrays of the range engine built over this set, and its server's
        cached answers — charged under their own labels to ``counter``.
        Suitable for refreshing a materialized set from a day's worth of
        new fact rows without recomputation.
        """
        if not len(batch):
            return

        # Verify before mutating (corruption folded into an update would be
        # sealed over and become undetectable), reseal after; each pass
        # checksums outside the integrity lock.
        self._verify_unverified()
        with self.slabs.lock:
            arrays = list(self._arrays.items())
            self.slabs.patch(batch, counter)
        sums = [element_checksum(values) for _, values in arrays]
        with self._integrity_lock:
            for (element, values), crc in zip(arrays, sums):
                if self._arrays.get(element) is values:
                    self._checksums[element] = crc
                    self._verified.discard(element)
                    self._unverified = True

    def reconstruct_cube(self, counter: OpCounter | None = None) -> np.ndarray:
        """Perfectly reconstruct the original cube (root element)."""
        return self.assemble(self.shape.root(), counter=counter)
