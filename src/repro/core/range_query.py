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
Intermediate elements are served by a :class:`~repro.core.materialize.
MaterializedSet` — a Gaussian pyramid (Section 4.3) makes every lookup a
single stored-cell read.

Cost accounting counts one addition per extra cell summed; missing
intermediate elements can either be assembled on demand (their assembly cost
is counted) or the engine falls back to scanning the raw cube.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np

from ..errors import TransientFault
from ..obs import current_registry, span
from .delta import DeltaBatch, patch_array
from .element import CubeShape, ElementId
from .materialize import MaterializedSet
from .operators import OpCounter

__all__ = [
    "dyadic_decomposition",
    "range_sum_direct",
    "RangeQueryEngine",
    "RangeAnswer",
]


def dyadic_decomposition(start: int, stop: int, extent: int) -> list[tuple[int, int]]:
    """Split ``[start, stop)`` into maximal aligned dyadic blocks.

    Returns ``(level, cell_index)`` pairs where ``level`` is the number of
    partial aggregations (block size ``2**level``) and ``cell_index`` the
    cell of the level-``level`` partial aggregate covering the block.
    At most ``2 * log2(extent)`` blocks are produced.
    """
    if not 0 <= start <= stop <= extent:
        raise ValueError(f"range [{start}, {stop}) outside [0, {extent})")
    blocks: list[tuple[int, int]] = []
    pos = start
    while pos < stop:
        # Largest aligned block starting at pos that fits inside the range.
        size = pos & -pos if pos else extent
        while pos + size > stop:
            size //= 2
        level = size.bit_length() - 1
        blocks.append((level, pos >> level))
        pos += size
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

    def __init__(
        self,
        materialized: MaterializedSet,
        assemble_missing: bool = True,
    ):
        """``assemble_missing`` controls whether intermediate elements absent
        from the set are assembled on demand (costed) or cause a fallback to
        raising :class:`KeyError` from the lookup."""
        self.materialized = materialized
        self.assemble_missing = assemble_missing
        self._cache: dict[ElementId, np.ndarray] = {}

    @property
    def shape(self) -> CubeShape:
        """Shape of the cube the engine answers over."""
        return self.materialized.shape

    def invalidate(self) -> None:
        """Drop on-demand assembled intermediates (after data updates).

        Stored elements are maintained incrementally by the owning
        :class:`MaterializedSet`; only the engine's own assembled copies go
        stale when the underlying data changes.  This is the coarse
        fallback — a *linear* data change should go through
        :meth:`apply_updates`, which repairs the copies in place.
        """
        self._cache.clear()

    def apply_updates(
        self,
        batch: DeltaBatch,
        counter: OpCounter | None = None,
    ) -> int:
        """Patch every on-demand assembled intermediate for a delta batch.

        ``batch`` is a validated :class:`~repro.core.delta.DeltaBatch` of
        cube cells.  Each cached intermediate is a pure partial-sum
        element (no residual steps), so a delta lands on exactly one cell
        per intermediate with sign ``+1`` — the batch's deltas are
        scattered as they are; the repair is O(n) per cached array and
        the warm cache survives the update.
        Stored elements are the owning set's job
        (:meth:`MaterializedSet.apply_updates`) — the engine's cache never
        holds them (:meth:`_ensure_intermediates` skips stored elements),
        so nothing here is double-patched.

        Returns the number of cached intermediates patched.
        """
        if not len(batch) or not self._cache:
            return 0
        for element, values in self._cache.items():
            patch_array(
                element,
                values,
                batch,
                counter=counter,
                label="range intermediate patch",
            )
        patched = len(self._cache)
        current_registry().counter(
            "range_intermediate_patched_total",
            "on-demand assembled intermediates repaired in place by deltas",
        ).inc(patched)
        return patched

    @classmethod
    def with_gaussian_pyramid(
        cls, cube_values: np.ndarray, shape: CubeShape
    ) -> "RangeQueryEngine":
        """Convenience: build a pyramid of *all* intermediate elements.

        Every joint level combination is stored, so each dyadic block lookup
        is a single cell read.  Storage is ``prod_m (2 n_m / (n_m... ))`` —
        for a square cube, ``Vol(A) * prod(2 - 2/n) <= 2**d * Vol(A)``.
        """
        graph_elements = []
        for levels in itertools.product(
            *[range(k + 1) for k in shape.depths]
        ):
            graph_elements.append(
                ElementId(shape, tuple((k, 0) for k in levels))
            )
        materialized = MaterializedSet.from_cube(cube_values, graph_elements)
        return cls(materialized)

    def _intermediate(
        self, levels: tuple[int, ...], counter: OpCounter | None
    ) -> np.ndarray:
        element = ElementId(self.shape, tuple((k, 0) for k in levels))
        registry = current_registry()
        if element in self.materialized:
            try:
                values = self.materialized.array(element)
            except KeyError:
                # Quarantined by first-use verification between the
                # membership check and the read: fall through to assembly.
                pass
            else:
                registry.counter(
                    "range_intermediate_stored_total",
                    "dyadic lookups served by a stored intermediate element",
                ).inc()
                return values
        cached = self._cache.get(element)
        if cached is not None:
            registry.counter(
                "range_intermediate_cache_hits_total",
                "dyadic lookups served by a previously assembled intermediate",
            ).inc()
            return cached
        if not self.assemble_missing:
            raise KeyError(f"intermediate element {element!r} is not materialized")
        registry.counter(
            "range_intermediate_assembled_total",
            "intermediate elements assembled on demand",
        ).inc()
        values = self.materialized.assemble(element, counter=counter)
        self._cache[element] = values
        return values

    def _levels_for(self, ranges) -> set[tuple[int, ...]]:
        """Distinct intermediate level combinations one range query touches."""
        ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        if len(ranges) != self.shape.ndim:
            raise ValueError(
                f"{len(ranges)} ranges for a {self.shape.ndim}-dimensional cube"
            )
        per_dim_blocks = [
            dyadic_decomposition(lo, hi, n)
            for (lo, hi), n in zip(ranges, self.shape.sizes)
        ]
        if any(not blocks for blocks in per_dim_blocks):
            return set()
        per_dim_levels = [
            sorted({level for level, _ in blocks}) for blocks in per_dim_blocks
        ]
        return set(itertools.product(*per_dim_levels))

    def _ensure_intermediates(
        self,
        needed: set[tuple[int, ...]],
        counter: OpCounter | None,
        max_workers: int = 1,
    ) -> list[ElementId]:
        """Batch-assemble the not-yet-available intermediates in ``needed``.

        Drops level combinations already stored or cached, assembles the
        rest as one shared-plan DAG (:meth:`MaterializedSet.assemble_batch`
        — fused cascades, CSE across the levels, buffer-pool reuse), caches
        the results, and returns the assembled elements.
        """
        missing = []
        for levels in sorted(needed):
            element = ElementId(self.shape, tuple((k, 0) for k in levels))
            if element in self.materialized or element in self._cache:
                continue
            missing.append(element)
        if missing:
            results = self.materialized.assemble_batch(
                missing, counter=counter, max_workers=max_workers
            )
            self._cache.update(results)
        return missing

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
            needed |= self._levels_for(ranges)
        with span("range.prefetch") as sp:
            missing = self._ensure_intermediates(
                needed, counter, max_workers=max_workers
            )
            if missing:
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
        """
        ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        if len(ranges) != self.shape.ndim:
            raise ValueError(
                f"{len(ranges)} ranges for a {self.shape.ndim}-dimensional cube"
            )
        per_dim_blocks = [
            dyadic_decomposition(lo, hi, n)
            for (lo, hi), n in zip(ranges, self.shape.sizes)
        ]
        if any(not blocks for blocks in per_dim_blocks):
            return RangeAnswer(value=0.0, cells_read=0, operations=0)

        with span("range.range_sum") as sp:
            own_counter = OpCounter()
            if self.assemble_missing:
                # Assemble every intermediate this query will touch as ONE
                # shared-plan batch up front — fused cascades + CSE across
                # levels — instead of one assemble() per combination inside
                # the lookup loop.  Already-available levels cost nothing.
                per_dim_levels = [
                    sorted({level for level, _ in blocks})
                    for blocks in per_dim_blocks
                ]
                try:
                    assembled = self._ensure_intermediates(
                        set(itertools.product(*per_dim_levels)), own_counter
                    )
                except TransientFault:
                    # A shared-plan batch is all-or-nothing and rolls one
                    # fault die per DAG node, so retrying the whole batch
                    # does not converge; recover per element instead — the
                    # lookup loop below assembles each missing intermediate
                    # individually (with its own fault exposure, which the
                    # caller's retry policy handles).
                    assembled = []
                if assembled:
                    current_registry().counter(
                        "range_intermediate_assembled_total",
                        "intermediate elements assembled on demand",
                    ).inc(len(assembled))
            total = 0.0
            cells = 0
            for combo in itertools.product(*per_dim_blocks):
                levels = tuple(level for level, _ in combo)
                cell = tuple(idx for _, idx in combo)
                values = self._intermediate(levels, own_counter)
                total += float(values[cell])
                cells += 1
            if cells > 1:
                own_counter.add(additions=cells - 1, label="range combine")
            if counter is not None:
                counter.add(
                    additions=own_counter.additions,
                    subtractions=own_counter.subtractions,
                    label="range query",
                )
            registry = current_registry()
            registry.counter(
                "range_queries_total", "range-SUM queries answered"
            ).inc()
            registry.histogram(
                "range_cells_read", "dyadic cells read per range query"
            ).observe(cells)
            sp.set(operations=own_counter.total, cells_read=cells)
        return RangeAnswer(
            value=total, cells_read=cells, operations=own_counter.total
        )
