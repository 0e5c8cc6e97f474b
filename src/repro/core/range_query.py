"""Range-aggregation via intermediate view elements (Section 6).

A range query sums a contiguous sub-cube ``A[x0:x0+w0, ..., x_{d-1}:...]``
(Eqs 35-36).  The paper observes that range extraction commutes with partial
aggregation when the range is aligned to powers of two (Eqs 37-40): a block
of size ``2**k`` starting at a multiple of ``2**k`` along dimension ``m`` is
*one cell* of the k-th partial aggregation along ``m``.

The engine below therefore decomposes an arbitrary half-open range into
maximal aligned dyadic blocks per dimension (the classic segment-tree
decomposition, at most ``2 log2(n)`` blocks per dimension), reads one cell of
the corresponding intermediate view element per block combination, and sums.
Blocks of one level along every dimension are cells of the *same*
intermediate element, so a query looks each of its (few) level combinations
up once and reads at most ``2**d`` cells from it.
Intermediate elements are served by a :class:`~repro.core.materialize.
MaterializedSet` — a Gaussian pyramid (Section 4.3) makes every lookup a
single stored-cell read.

Cost accounting counts one addition per extra cell summed; a missing
intermediate element is assembled on demand, and its assembly cost is
counted.  A server's engine assembles through the server's resilient
assembly, with its retries, and rebuilds an intermediate the stored set
cannot produce (quarantine left it incomplete) from the base cube.
:func:`range_sum_direct` is the raw-cube scan of Eq 36, the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
import weakref
from types import SimpleNamespace

import numpy as np

from ..errors import InvalidQueryError
from ..obs import current_registry, span
from .delta import DeltaBatch, SlabStore
from .element import CubeShape, ElementId, as_index
from .kernels import canonical_steps
from .materialize import BATCH_UPDATE, MaterializedSet
from .operators import OpCounter

__all__ = [
    "dyadic_levels",
    "dyadic_decomposition",
    "range_sum_direct",
    "RangeQueryEngine",
    "RangeAnswer",
]

#: The engine's slab label, and the label its patch additions are charged
#: under.
RANGE_PATCH = "range intermediate patch"


def dyadic_levels(
    start: int, stop: int, extent: int
) -> list[tuple[int, tuple[int, ...]]]:
    """The maximal aligned dyadic blocks of ``[start, stop)``, by level.

    Returns ``(level, cell_indices)`` pairs in ascending level order:
    ``level`` is the number of partial aggregations (block size
    ``2**level``) and ``cell_indices`` the one or two cells (ascending) of
    the level-``level`` partial aggregate whose blocks the range contains
    — the segment-tree walk from the leaves up, which peels at most one
    block off each end of the range per level.
    """
    if not 0 <= start <= stop <= extent:
        raise InvalidQueryError(
            f"range [{start}, {stop}) outside [0, {extent})"
        )
    groups: list[tuple[int, tuple[int, ...]]] = []
    level = 0
    while start < stop:
        cells: tuple[int, ...] = ()
        if start & 1:
            cells = (start,)
            start += 1
        if stop & 1:
            stop -= 1
            cells += (stop,)
        if cells:
            groups.append((level, cells))
        start >>= 1
        stop >>= 1
        level += 1
    return groups


def dyadic_decomposition(start: int, stop: int, extent: int) -> list[tuple[int, int]]:
    """Split ``[start, stop)`` into maximal aligned dyadic blocks.

    Returns ``(level, cell_index)`` pairs, left to right, where ``level``
    is the number of partial aggregations (block size ``2**level``) and
    ``cell_index`` the cell of the level-``level`` partial aggregate
    covering the block.  At most ``2 * log2(extent)`` blocks are produced
    (:func:`dyadic_levels`, flattened).
    """
    blocks = [
        (level, index)
        for level, indices in dyadic_levels(start, stop, extent)
        for index in indices
    ]
    blocks.sort(key=lambda block: block[1] << block[0])
    return blocks


def range_sum_direct(
    cube_values: np.ndarray,
    ranges: tuple[tuple[int, int], ...],
    counter: OpCounter | None = None,
) -> float:
    """Baseline: scan the raw cube over the range (Eq 36)."""
    slices = tuple(slice(lo, hi) for lo, hi in ranges)
    block = np.asarray(cube_values)[slices]
    if counter is not None and block.size:
        counter.add(additions=block.size - 1, label="range scan")
    return float(block.sum())


@dataclass(frozen=True)
class RangeAnswer:
    """A range-aggregation result with its cost breakdown."""

    value: float
    cells_read: int
    operations: int


class RangeQueryEngine:
    """Answers range-SUM queries from materialized intermediate elements."""

    def __init__(self, materialized: MaterializedSet, assemble=None):
        """Intermediate elements absent from ``materialized`` are assembled
        on demand (costed) and kept, by ``assemble(elements, counter=,
        max_workers=, warm=)`` — ``materialized.assemble_batch`` unless
        an owner passes its own (a server passes its retrying, degrading
        one)."""
        self.materialized = materialized
        #: Shape of the cube the engine answers over.
        self.shape: CubeShape = materialized.shape
        self._assemble = (
            materialized.assemble_batch if assemble is None else assemble
        )
        #: The intermediates this engine assembled; every burst patches
        #: them (:meth:`apply_updates`).
        self._cache: dict[ElementId, np.ndarray] = {}
        #: The warm table, by slot (:attr:`ElementId.slot`): what the
        #: engine holds for each pure partial sum — one it assembled
        #: (``_cache``), or an array storage handed it by reference,
        #: read-only: the base cube, as a sharded set's root or as the
        #: degraded root, which its owner keeps current (a sharded set's
        #: ``apply_updates`` patches its base cube, a server with one set
        #: patches its own), so the engine never patches it — else
        #: ``None``.
        self.held: list = [None] * self.shape.num_intermediate_elements()
        #: ``slot -> (values, weight)`` or ``None``: the other half of the
        #: table, the answers of the result cache a server registers here
        #: (:attr:`~repro.obs.cache.LRUCache.peek`; none on a bare engine).
        #: Warm routes read them, which refreshes no recency and counts no
        #: hit or miss.  A range read does not read one in place: what it
        #: lacks it assembles — derived from the smallest warm ancestor —
        #: and holds, so views of that level vector stay engine hits.
        self.cached = {}.get
        #: The stored arrays of pure partial sums that passed first-use
        #: verification, by slot (:attr:`MaterializedSet.verified`): a
        #: range read finds them with no element resolved.
        self._stored = getattr(materialized, "verified", {}).get
        #: The canonical steps of each ``(ancestor slot, target nodes)``
        #: pair a warm route took, compiled once.
        self._steps: dict[tuple, tuple] = {}
        #: Where the assembled intermediates are repaired (a server packs
        #: its result cache's answers here too): the store of the set this
        #: engine is built over — so one scatter repairs stored and warm
        #: arrays alike — unless that set has none in the global frame (a
        #: ``ShardedSet``) or another engine shares it already.
        slabs = getattr(materialized, "slabs", None)
        if not isinstance(slabs, SlabStore) or RANGE_PATCH in slabs.held:
            slabs = SlabStore(materialized.shape)
        self.slabs = slabs
        # Weakly: the store must not keep a superseded engine (and its
        # intermediates) alive in a reference cycle.
        engine = weakref.ref(self)
        slabs.own(RANGE_PATCH, lambda: set(map(id, engine()._cache.values())))
        #: Whether :meth:`apply_updates` has joined what was assembled
        #: before this engine's first burst.
        self._joined = False
        #: ``(registry, handles)`` of :meth:`_bound_metrics`.
        self._metrics: tuple | None = None

    def warm_route(
        self, target: ElementId
    ) -> tuple[ElementId, np.ndarray, tuple] | None:
        """The route to ``target`` from its smallest warm proper ancestor:
        ``(ancestor, values, steps)``, or ``None`` when nothing warm
        contains ``target``.

        Warm are the arrays of the warm table — what the engine holds and
        the result cache's answers — all pure partial sums, so the
        ancestors to try are the slots of :meth:`CubeShape.warm_order`:
        smallest volume first, equal volumes by ascending slot, whatever
        order the table filled in.  Aggregating the first warm one down to
        ``target`` — the canonical ``steps`` (:func:`~repro.core.kernels.
        canonical_steps`, compiled once per pair) as one fused cascade —
        costs ``Vol(ancestor) - Vol(target)`` (Procedure 3's aggregation
        option, Eq 28, over warm arrays instead of stored ones — SUM is
        distributive).  Reading a cached answer here touches neither its
        recency nor the cache's counters.  The assembly entry points take
        this method as their ``warm=`` source
        (:func:`~repro.core.materialize.warm_routes`).
        """
        held, peek = self.held, self.cached
        for ancestor in self.shape.warm_order(target):
            values = held[ancestor.slot]
            if values is None:
                entry = peek(ancestor.slot)
                if entry is None:
                    continue
                values = entry[0]
            key = (ancestor.slot, target.nodes)
            steps = self._steps.get(key)
            if steps is None:
                steps = self._steps[key] = canonical_steps(ancestor, target)
            return ancestor, values, steps
        return None

    def invalidate(self) -> None:
        """Drop on-demand assembled intermediates (after data updates).

        Stored elements are maintained incrementally by the owning
        :class:`MaterializedSet`; only the engine's own assembled copies go
        stale when the underlying data changes.  This is the coarse
        fallback — a *linear* data change should go through
        :meth:`apply_updates`, which repairs the copies in place.
        """
        if self._cache:
            self.slabs.dropped(RANGE_PATCH)
        self._cache.clear()
        self.held[:] = [None] * len(self.held)

    def join_slabs(self) -> None:
        """Join the intermediates assembled before this engine's first
        burst to :attr:`slabs`, in place, once (an owner sharing the store
        calls this before its own scatter, so one scatter reaches them)."""
        with self.slabs.lock:
            if not self._joined:
                self.slabs.join(RANGE_PATCH, self._cache.items())
                self._joined = True

    def apply_updates(
        self,
        batch: DeltaBatch,
        counter: OpCounter | None = None,
    ) -> dict[str, int]:
        """Patch every warm array in :attr:`slabs` for a delta batch.

        ``batch`` is a validated :class:`~repro.core.delta.DeltaBatch` of
        cube cells.  Each cached intermediate is a pure partial-sum
        element (no residual steps), so a delta lands on exactly one cell
        per intermediate with sign ``+1``.  The intermediates live in
        :attr:`slabs` — those assembled before this engine's first burst
        join them then, in place, every later one is adopted — beside
        whatever else an owner packed there (a server's cached answers),
        and one compiled scatter repairs every warm owner's slots,
        charged one addition per delta and array under each owner's
        label, so the warm cache survives the update.  Stored elements are
        the owning set's job (:meth:`MaterializedSet.apply_updates`): when
        the set shares this store its call already scattered the batch
        into every owner, and this one reports what that scatter patched
        — a batch reaches each owner once, in either order.  Nothing here
        is double-patched: what the engine patches are the arrays it
        assembled for elements absent from the set — fresh buffers no
        shard or set stores — and what storage hands it by reference (the
        base cube as a ``ShardedSet``'s root) is held beside them
        unpatched: the set patches the cube.

        Returns the number of arrays patched per warm owner (slab label).
        """
        if not len(batch):
            return {}
        slabs = self.slabs
        warm = tuple([label for label in slabs.held if label != BATCH_UPDATE])
        with slabs.lock:
            self.join_slabs()
            patched = slabs.patch(batch, counter, warm)
        if patched[RANGE_PATCH]:
            self._bound_metrics().patched.inc(patched[RANGE_PATCH])
        return patched

    @classmethod
    def with_gaussian_pyramid(
        cls, cube_values: np.ndarray, shape: CubeShape
    ) -> "RangeQueryEngine":
        """Convenience: build a pyramid of *all* intermediate elements.

        Every joint level combination is stored, so each dyadic block lookup
        is a single cell read.  Storage is ``prod_m (2 n_m - 1)`` cells —
        Eq 17 restricted to index 0 along every dimension — which is less
        than ``2**d * Vol(A)``.
        """
        elements = [
            shape.intermediate(levels)
            for levels in itertools.product(
                *[range(k + 1) for k in shape.depths]
            )
        ]
        return cls(MaterializedSet.from_cube(cube_values, elements))

    def _level_groups(self, ranges):
        """Per dimension, the :func:`dyadic_levels` of one range query.

        The one front :meth:`range_sum` and :meth:`prefetch` parse a
        request through: arity, one ``(start, stop)`` pair per dimension,
        exact-integer bounds (a bound like ``0.9`` is refused, not
        truncated) and the cube's extents are checked here, each an
        :class:`InvalidQueryError`.  ``None`` when the range is empty along
        some dimension.
        """
        try:
            ranges = tuple(ranges)
        except TypeError:
            raise InvalidQueryError(
                f"ranges must be (start, stop) pairs, got {ranges!r}"
            ) from None
        sizes = self.shape.sizes
        if len(ranges) != len(sizes):
            raise InvalidQueryError(
                f"{len(ranges)} ranges for a {len(sizes)}-dimensional cube"
            )
        groups = []
        for m, (bound, n) in enumerate(zip(ranges, sizes)):
            try:
                lo, hi = bound
            except (TypeError, ValueError):
                raise InvalidQueryError(
                    f"range of dimension {m} must be a (start, stop) pair, "
                    f"got {bound!r}"
                ) from None
            if type(lo) is not int or type(hi) is not int:
                lo = as_index(lo, f"range start of dimension {m}")
                hi = as_index(hi, f"range stop of dimension {m}")
            groups.append(dyadic_levels(lo, hi, n))
        return groups if all(groups) else None

    def _bound_metrics(self) -> SimpleNamespace:
        """Bound series of the per-query metrics in the current registry.

        Bound on first use per registry (the server activates its own; a
        bare engine writes to the default one) so a query bumps each
        metric through its series instead of a by-name lookup and a label
        key per write.
        """
        registry = current_registry()
        bound = self._metrics
        if bound is None or bound[0] is not registry:

            def counter(name: str, description: str):
                return registry.counter(name, description).labels()

            handles = SimpleNamespace(
                queries=counter(
                    "range_queries_total", "range-SUM queries answered"
                ),
                cells_read=registry.histogram(
                    "range_cells_read", "dyadic cells read per range query"
                ).labels(),
                stored=counter(
                    "range_intermediate_stored_total",
                    "dyadic lookups served by a stored intermediate element",
                ),
                cache_hits=counter(
                    "range_intermediate_cache_hits_total",
                    "dyadic lookups served by an intermediate the engine "
                    "assembled",
                ),
                assembled=counter(
                    "range_intermediate_assembled_total",
                    "intermediate elements assembled on demand",
                ),
                patched=counter(
                    "range_intermediate_patched_total",
                    "on-demand assembled intermediates repaired in place by "
                    "deltas",
                ),
            )
            bound = self._metrics = (registry, handles)
        return bound[1]

    def _assemble_missing(
        self,
        missing: list[ElementId],
        counter: OpCounter | None,
        mark: int,
        max_workers: int = 1,
    ) -> dict[ElementId, np.ndarray]:
        """Assemble ``missing`` as one shared-plan DAG and cache the results
        (:meth:`MaterializedSet.assemble_batch` — fused cascades, CSE
        across the levels, and each one that a warm ancestor reaches more
        cheaply aggregated from it) as :meth:`_keep` allows."""
        assembled = self._assemble(
            missing,
            counter=counter,
            max_workers=max_workers,
            warm=self.warm_route,
        )
        self._keep(assembled, mark)
        return assembled

    def _keep(self, assembled: dict[ElementId, np.ndarray], mark: int) -> None:
        """Cache intermediates assembled from storage read after the slab
        sequence read ``mark`` — adopted into slabs once updates arrive,
        before that a read-only view of the array (which the first burst
        joins to the slabs through it) — unless a burst began since: it
        repaired everything warm without them, so cached they would stay
        stale for good.  An array already read-only is storage's, handed
        out by reference: it is held, not cached (:meth:`_hold`)."""
        slabs = self.slabs
        with slabs.lock:
            if not slabs.settled(mark):
                return
            for element, values in assembled.items():
                if values.flags.writeable:
                    if slabs.active:
                        values = slabs.adopt(element, values, RANGE_PATCH)
                    else:
                        values = values.view()
                    values.flags.writeable = False
                    if element in self._cache:
                        slabs.dropped(RANGE_PATCH)
                    self._cache[element] = assembled[element] = values
                self._hold(element, values)

    def _hold(self, element: ElementId, values: np.ndarray) -> None:
        """Serve ``values`` warm for pure ``element`` from now on."""
        self.held[element.slot] = values

    def prefetch(
        self,
        ranges_batch,
        counter: OpCounter | None = None,
        max_workers: int = 1,
    ) -> int:
        """Batch-assemble every intermediate element a range workload needs.

        Collects the distinct intermediate level combinations that the
        queries in ``ranges_batch`` would look up, drops the ones already
        stored or cached, and assembles the rest as one shared-plan DAG
        (:meth:`MaterializedSet.assemble_batch`) — the per-dimension
        partial-sum cascades that different levels share are computed once
        instead of once per intermediate.  Subsequent :meth:`range_sum`
        calls then run entirely on single-cell reads.

        Returns the number of intermediate elements assembled.
        """
        needed: set[tuple[int, ...]] = set()
        for ranges in ranges_batch:
            groups = self._level_groups(ranges)
            if groups is not None:
                needed.update(
                    itertools.product(
                        *[[level for level, _ in dim] for dim in groups]
                    )
                )
        with span("range.prefetch") as sp:
            missing = [
                element
                for element in map(self.shape.intermediate, sorted(needed))
                if element not in self.materialized
                and self.held[element.slot] is None
            ]
            if missing:
                self._assemble_missing(
                    missing,
                    OpCounter() if counter is None else counter,
                    self.slabs.sequence,
                    max_workers,
                )
                registry = current_registry()
                registry.counter(
                    "range_prefetches_total",
                    "batch prefetches of intermediates",
                ).inc()
                registry.counter(
                    "range_prefetched_elements_total",
                    "intermediate elements assembled by batch prefetch",
                ).inc(len(missing))
            sp.set(assembled=len(missing))
        return len(missing)

    def range_sum(
        self,
        ranges,
        counter: OpCounter | None = None,
    ) -> RangeAnswer:
        """SUM over the half-open multi-dimensional range.

        ``ranges`` is one ``(start, stop)`` pair per dimension.  The result
        is exact for any range; aligned ranges touch a single cell.

        The query is resolved by *level combination*, not by cell: per
        dimension the dyadic blocks are grouped by level (at most two
        cells each), and every combination of levels names one
        intermediate element (:meth:`CubeShape.intermediate`), looked up
        once — held by the engine (found by slot in the warm table: the
        engine only assembles what storage lacks), else stored (verified
        on first use, then found by slot too; a quarantined one falls
        through), else assembled now, all missing ones as one shared-plan
        batch — before its ``<= 2**d`` cells are read.  Cells
        are added in a fixed order, from ``0.0``: level combinations in
        ascending lexicographic order, last dimension fastest, and within
        one intermediate its cells in ascending index order, last dimension
        fastest.  (Sums of integer-valued cubes do not depend on the
        order; float cubes get one documented order.)

        Every answer is the sum over one state of the cube: a burst that
        begins while the query reads (the slab sequence moved —
        :meth:`SlabStore.settled`) may have patched some of the arrays it
        read and not others, so the query is resolved again, and what it
        assembled meanwhile is not cached (:meth:`_keep`).
        """
        groups = self._level_groups(ranges)
        if groups is None:
            return RangeAnswer(value=0.0, cells_read=0, operations=0)

        own_counter = OpCounter()
        materialized = self.materialized
        element_at = self.shape.intermediate_at
        slabs, held, stored = self.slabs, self.held, self._stored
        metrics = self._bound_metrics()
        # Per level combination (lexicographic, last dimension fastest)
        # its slot and its per-dimension cell indices: the cells read are
        # their product.
        slots = [0]
        for dim, stride in zip(groups, self.shape.strides):
            slots = [slot + k * stride for slot in slots for k, _ in dim]
        indices = [[ix for _, ix in dim] for dim in groups]
        blocks = list(itertools.product(*indices))
        cells = math.prod([sum(map(len, ix)) for ix in indices])
        while True:
            mark = slabs.sequence
            # ``values`` per level combination.  What the engine holds, and
            # a verified stored array, is found by slot, with no element
            # resolved (the engine only assembles what storage lacks);
            # every other combination resolves its element once — stored,
            # else missing.  Stored arrays are looked up per query, so
            # updates, invalidation and quarantine need no bookkeeping
            # here — except one handed out by reference, read-only: the
            # base cube, which stays exact whatever becomes of the set, so
            # the engine holds it.
            reads = list(map(held.__getitem__, slots))
            missing: dict[int, ElementId] = {}
            stored_cells = 0
            for i, values in enumerate(reads):
                if values is not None:
                    continue
                values = reads[i] = stored(slots[i])
                if values is not None:
                    stored_cells += math.prod(map(len, blocks[i]))
                    continue
                element = element_at(slots[i])
                if element in materialized:
                    try:
                        values = reads[i] = materialized.array(element)
                    except KeyError:
                        # Quarantined by first-use verification between
                        # the membership check and the read: not stored.
                        pass
                    else:
                        stored_cells += math.prod(map(len, blocks[i]))
                        if not values.flags.writeable:
                            with slabs.lock:
                                self._hold(element, values)
                        continue
                missing[i] = element
            if missing:
                assembled = self._assemble_missing(
                    list(missing.values()), own_counter, mark
                )
                for i, element in missing.items():
                    reads[i] = assembled[element]
                metrics.assembled.inc(len(missing))
            total = 0.0
            for values, block in zip(reads, blocks):
                item = values.item
                for cell in itertools.product(*block):
                    total += item(cell)
            if slabs.settled(mark):
                break
        if cells > 1:
            own_counter.add(additions=cells - 1, label="range combine")
        if counter is not None:
            counter.add(
                additions=own_counter.additions,
                subtractions=own_counter.subtractions,
                label="range query",
            )
        metrics.queries.inc()
        metrics.cells_read.observe(cells)
        if stored_cells:
            metrics.stored.inc(stored_cells)
        if cells > stored_cells:
            metrics.cache_hits.inc(cells - stored_cells)
        return RangeAnswer(
            value=total, cells_read=cells, operations=own_counter.total
        )
