"""Tests for range-aggregation via intermediate elements (paper §6)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import DeltaBatch
from repro.core.element import CubeShape, ElementId
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.population import QueryPopulation
from repro.core.range_query import (
    RangeQueryEngine,
    dyadic_decomposition,
    dyadic_levels,
    range_sum_direct,
)
from repro.core.select_basis import select_minimum_cost_basis
from repro.errors import InvalidQueryError
from repro.obs import MetricsRegistry


class TestDyadicDecomposition:
    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.tuples(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=0, max_value=16),
        )
    )
    def test_blocks_partition_the_range(self, bounds):
        lo, hi = min(bounds), max(bounds)
        blocks = dyadic_decomposition(lo, hi, 16)
        covered = []
        for level, cell in blocks:
            size = 1 << level
            start = cell * size
            assert start % size == 0  # aligned
            covered.extend(range(start, start + size))
        assert covered == list(range(lo, hi))

    def test_block_count_bound(self):
        """At most 2*log2(n) blocks for any range."""
        n = 64
        worst = max(
            len(dyadic_decomposition(lo, hi, n))
            for lo in range(n)
            for hi in range(lo, n + 1)
        )
        assert worst <= 2 * 6

    def test_aligned_range_is_single_block(self):
        assert dyadic_decomposition(8, 16, 16) == [(3, 1)]
        assert dyadic_decomposition(0, 16, 16) == [(4, 0)]

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            dyadic_decomposition(-1, 4, 8)
        with pytest.raises(ValueError, match="outside"):
            dyadic_decomposition(0, 9, 8)


class TestRangeSumDirect:
    def test_matches_numpy(self, shape_3d, cube_3d):
        counter = OpCounter()
        value = range_sum_direct(cube_3d, ((1, 5), (0, 4), (1, 2)), counter)
        assert value == pytest.approx(cube_3d[1:5, 0:4, 1:2].sum())
        assert counter.additions == 4 * 4 * 1 - 1


class TestRangeQueryEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        shape = CubeShape((8, 8))
        rng = np.random.default_rng(3)
        data = rng.integers(0, 100, size=shape.sizes).astype(np.float64)
        return data, RangeQueryEngine.with_gaussian_pyramid(data, shape)

    @settings(max_examples=100, deadline=None)
    @given(
        r0=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        r1=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    def test_matches_direct_sum(self, engine, r0, r1):
        data, rq = engine
        ranges = (tuple(sorted(r0)), tuple(sorted(r1)))
        answer = rq.range_sum(ranges)
        expected = range_sum_direct(data, ranges)
        assert answer.value == pytest.approx(expected)

    def test_aligned_range_touches_one_cell(self, engine):
        data, rq = engine
        answer = rq.range_sum(((0, 8), (4, 8)))
        assert answer.cells_read == 1
        assert answer.operations == 0
        assert answer.value == pytest.approx(data[:, 4:8].sum())

    def test_cheaper_than_scan_for_large_ranges(self, engine):
        data, rq = engine
        ranges = ((1, 8), (1, 8))
        counter_direct = OpCounter()
        range_sum_direct(data, ranges, counter_direct)
        answer = rq.range_sum(ranges)
        assert answer.operations < counter_direct.total

    def test_empty_range(self, engine):
        _, rq = engine
        answer = rq.range_sum(((3, 3), (0, 8)))
        assert answer.value == 0.0
        assert answer.cells_read == 0

    def test_arity_check(self, engine):
        _, rq = engine
        with pytest.raises(ValueError, match="2-dimensional"):
            rq.range_sum(((0, 4),))

    def test_missing_intermediates_assembled(self, shape_4x4, cube_4x4):
        """With only a wavelet-packet basis stored, range sums still work
        (intermediates are assembled and cached on demand)."""
        from repro.core.bases import random_wavelet_packet_basis

        rng = np.random.default_rng(9)
        basis = random_wavelet_packet_basis(shape_4x4, rng)
        ms = MaterializedSet.from_cube(cube_4x4, basis)
        engine = RangeQueryEngine(ms)
        ranges = ((1, 3), (0, 4))
        answer = engine.range_sum(ranges)
        assert answer.value == pytest.approx(cube_4x4[1:3, :].sum())

    def test_pyramid_storage_bound(self, shape_4x4, cube_4x4):
        """The full intermediate pyramid is bounded by prod(2 - 1/?)."""
        engine = RangeQueryEngine.with_gaussian_pyramid(cube_4x4, shape_4x4)
        # sum over level pairs of (4/2^k0)*(4/2^k1) = (4+2+1)^2 = 49.
        assert engine.materialized.storage == 49


class TestPrefetch:
    """Batch prefetch assembles a workload's intermediates as one plan."""

    def _engine(self, rng):
        shape = CubeShape((8, 4))
        data = rng.standard_normal((8, 4))
        ms = MaterializedSet(shape)
        ms.store(shape.root(), data)
        return data, RangeQueryEngine(ms)

    WORKLOAD = [
        ((1, 7), (0, 3)),
        ((0, 5), (1, 4)),
        ((2, 8), (0, 4)),
        ((3, 4), (2, 3)),
    ]

    def test_prefetch_then_answers_match_direct_scan(self, rng):
        data, engine = self._engine(rng)
        assembled = engine.prefetch(self.WORKLOAD)
        assert assembled > 0
        for ranges in self.WORKLOAD:
            answer = engine.range_sum(ranges)
            slices = tuple(slice(lo, hi) for lo, hi in ranges)
            assert answer.value == pytest.approx(float(data[slices].sum()))

    def test_prefetch_is_idempotent(self, rng):
        _, engine = self._engine(rng)
        engine.prefetch(self.WORKLOAD)
        assert engine.prefetch(self.WORKLOAD) == 0

    def test_prefetch_spends_fewer_ops_than_on_demand(self, rng):
        data, cold = self._engine(rng)
        on_demand = OpCounter()
        for ranges in self.WORKLOAD:
            cold.range_sum(ranges, counter=on_demand)

        _, warmed = self._engine(rng)
        batch = OpCounter()
        warmed.prefetch(self.WORKLOAD, counter=batch)
        for ranges in self.WORKLOAD:
            warmed.range_sum(ranges, counter=batch)
        assert batch.total <= on_demand.total

    def test_prefetch_threaded_matches_serial(self, rng):
        shape = CubeShape((8, 4))
        data = rng.standard_normal((8, 4))
        sets = []
        for _ in range(2):
            ms = MaterializedSet(shape)
            ms.store(shape.root(), data)
            sets.append(RangeQueryEngine(ms))
        serial, threaded = sets
        serial.prefetch(self.WORKLOAD)
        threaded.prefetch(self.WORKLOAD, max_workers=3)
        for ranges in self.WORKLOAD:
            a = serial.range_sum(ranges)
            b = threaded.range_sum(ranges)
            assert a.value == b.value  # bit-identical assemblies

    def test_empty_workload(self, rng):
        _, engine = self._engine(rng)
        assert engine.prefetch([]) == 0


# ----------------------------------------------------------------------
# Resolution by level combination, against the per-cell loop it replaced

METRICS = (
    "range_queries_total",
    "range_intermediate_stored_total",
    "range_intermediate_cache_hits_total",
    "range_intermediate_assembled_total",
)


def reference_range_sum(engine, ranges, tally):
    """The per-cell loop ``range_sum`` used to be, on ``engine``'s set and
    cache: a fresh ``ElementId`` and one stored / cached / assemble lookup
    per block combination.  One accounting line differs on purpose: the
    lookup that finds a stored element quarantined assembles it *and*
    counts as a cache hit, so ``stored + cache_hits == cells_read`` holds
    on every query (it used to be counted as the assembly alone).  A
    missing intermediate may be aggregated from the smallest one already
    cached that contains it, where that is cheaper than storage."""
    ms, cache, shape = engine.materialized, engine._cache, engine.shape

    def warm(target):
        ancestors = [e for e in cache if e != target and e.contains(target)]
        if not ancestors:
            return None
        ancestor = min(ancestors, key=lambda e: e.volume)
        return ancestor, cache[ancestor]

    per_dim = [
        dyadic_decomposition(lo, hi, n) for (lo, hi), n in zip(ranges, shape.sizes)
    ]
    if any(not blocks for blocks in per_dim):
        return 0.0, 0, 0
    own = OpCounter()
    ident = lambda levels: ElementId(shape, tuple((k, 0) for k in levels))  # noqa: E731
    needed = set(itertools.product(*[{k for k, _ in b} for b in per_dim]))
    missing = [e for e in map(ident, sorted(needed)) if e not in ms and e not in cache]
    if missing:
        cache.update(ms.assemble_batch(missing, counter=own, warm=warm))
    tally["range_intermediate_assembled_total"] += len(missing)
    total, cells = 0.0, 0
    for combo in itertools.product(*per_dim):
        element = ident(k for k, _ in combo)
        try:
            values = ms.array(element)
            tally["range_intermediate_stored_total"] += 1
        except KeyError:
            if element in ms._quarantined and element not in cache:
                cache[element] = ms.assemble(element, counter=own, warm=warm)
                tally["range_intermediate_assembled_total"] += 1
            values = cache[element]
            tally["range_intermediate_cache_hits_total"] += 1
        total += float(values[tuple(i for _, i in combo)])
        cells += 1
    own.add(additions=cells - 1)
    tally["range_queries_total"] += 1
    tally["range_cells_read"] += cells
    return total, cells, own.total


def _stored_set(kind: str, shape: CubeShape, data: np.ndarray, seed: int):
    if kind in ("pyramid", "corrupt"):
        ms = RangeQueryEngine.with_gaussian_pyramid(data, shape).materialized
        if kind == "corrupt":
            victims = [e for e in ms.elements if not e.is_root]
            if victims:
                victim = victims[seed % len(victims)]
                ms._arrays[victim].reshape(-1)[0] += 1e6  # post-seal bit-rot
        return ms
    if kind == "root":
        return MaterializedSet.from_cube(data, [shape.root()])
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(seed)
    )
    return MaterializedSet.from_cube(
        data, select_minimum_cost_basis(shape, population).elements
    )


@st.composite
def _cases(draw):
    sizes = tuple(draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3)))
    bound = lambda n: st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted).map(tuple)  # noqa: E731
    aligned = lambda n: st.sampled_from([(0, n), (n // 2, n), (0, 0), (n - 1, n)])  # noqa: E731
    ranges = st.tuples(*[st.one_of(bound(n), aligned(n)) for n in sizes])
    return sizes, draw(st.lists(ranges, min_size=1, max_size=5)), draw(st.integers(0, 99))


class TestResolutionByLevelCombination:
    """Same value, cells, operations and metric totals as the per-cell
    loop — cold, warm, after ``apply_updates`` and after ``invalidate``."""

    @pytest.mark.parametrize("kind", ["pyramid", "root", "basis", "corrupt"])
    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_matches_the_per_cell_loop(self, kind, case):
        sizes, queries, seed = case
        shape = CubeShape(sizes)
        data = (
            np.random.default_rng(seed).integers(0, 100, size=sizes).astype(np.float64)
        )
        engine = RangeQueryEngine(_stored_set(kind, shape, data, seed))
        twin = RangeQueryEngine(_stored_set(kind, shape, data, seed))
        registry = MetricsRegistry()
        tally = dict.fromkeys((*METRICS, "range_cells_read"), 0)

        def check():
            for ranges in queries:
                with registry.activate():
                    answer = engine.range_sum(ranges)
                value, cells, operations = reference_range_sum(twin, ranges, tally)
                assert answer.value == value == range_sum_direct(data, ranges)
                assert (answer.cells_read, answer.operations) == (cells, operations)
            for name in METRICS:
                assert registry.counter(name).total() == tally[name], name
            cells_read = registry.histogram("range_cells_read").snapshot()["values"]
            assert sum(s["sum"] for s in cells_read.values()) == tally["range_cells_read"]

        check()  # cold, then warm within the list
        rng = np.random.default_rng(seed)
        coordinates = np.stack([rng.integers(0, n, size=4) for n in sizes], axis=1)
        batch = DeltaBatch(shape, coordinates, rng.integers(-5, 6, size=4))
        np.add.at(data, tuple(coordinates.T), batch.deltas)
        for each in (engine, twin):
            each.materialized.apply_updates(batch)
            each.apply_updates(batch)
        check()
        engine.invalidate()
        twin.invalidate()
        check()


class TestRangeLookupMetrics:
    """``range_intermediate_*`` count cell lookups and assemblies."""

    def _totals(self, registry):
        return {name: registry.counter(name).total() for name in METRICS}

    def test_every_cell_read_is_stored_or_a_cache_hit(self, shape_3d, cube_3d):
        engine = RangeQueryEngine(MaterializedSet.from_cube(cube_3d, [shape_3d.root()]))
        registry = MetricsRegistry()
        for ranges in (((1, 7), (0, 3), (0, 2)), ((0, 8), (1, 4), (1, 2)), ((3, 4), (2, 3), (0, 1))):
            before = self._totals(registry)
            with registry.activate():
                answer = engine.range_sum(ranges)
            after = self._totals(registry)
            moved = {name: after[name] - before[name] for name in METRICS}
            assert (
                moved["range_intermediate_stored_total"]
                + moved["range_intermediate_cache_hits_total"]
                == answer.cells_read
            )
            assert moved["range_queries_total"] == 1

    def test_a_cold_query_assembles_its_missing_level_combinations_once(
        self, shape_3d, cube_3d
    ):
        engine = RangeQueryEngine(MaterializedSet.from_cube(cube_3d, [shape_3d.root()]))
        registry = MetricsRegistry()
        ranges = ((1, 7), (0, 3), (0, 2))  # levels {0,1} x {0,1} x {1}
        with registry.activate():
            engine.range_sum(ranges)
            assert self._totals(registry)["range_intermediate_assembled_total"] == 4
            engine.range_sum(ranges)
        totals = self._totals(registry)
        assert totals["range_intermediate_assembled_total"] == 4
        assert totals["range_intermediate_stored_total"] == 0
        assert len(engine._cache) == 4

    def test_a_quarantined_intermediate_falls_through_to_assembly(
        self, shape_4x4, cube_4x4
    ):
        engine = RangeQueryEngine.with_gaussian_pyramid(cube_4x4, shape_4x4)
        victim = shape_4x4.intermediate((1, 2))
        engine.materialized._arrays[victim].reshape(-1)[0] += 1e6
        registry = MetricsRegistry()
        ranges = ((0, 2), (0, 4))  # exactly one cell of the victim
        with registry.activate():
            for _ in range(2):
                answer = engine.range_sum(ranges)
                assert answer.value == cube_4x4[0:2, :].sum()
                assert answer.cells_read == 1
        assert engine.materialized.quarantined == (victim,)
        assert self._totals(registry) == {
            "range_queries_total": 2,
            "range_intermediate_stored_total": 0,
            "range_intermediate_cache_hits_total": 2,
            "range_intermediate_assembled_total": 1,
        }

    def test_handles_follow_the_active_registry(self, shape_4x4, cube_4x4):
        engine = RangeQueryEngine.with_gaussian_pyramid(cube_4x4, shape_4x4)
        first, second = MetricsRegistry(), MetricsRegistry()
        for registry in (first, second, first):
            with registry.activate():
                engine.range_sum(((1, 3), (0, 4)))
        assert first.counter("range_queries_total").total() == 2
        assert second.counter("range_queries_total").total() == 1


class TestBoundsAreExactIntegers:
    @pytest.fixture()
    def engine(self, shape_4x4, cube_4x4):
        return RangeQueryEngine.with_gaussian_pyramid(cube_4x4, shape_4x4)

    @pytest.mark.parametrize("bad", [0.9, 3.7, True, "1", None])
    def test_a_non_integer_bound_is_refused_not_truncated(self, engine, bad):
        with pytest.raises(InvalidQueryError, match="dimension 1"):
            engine.range_sum(((0, 4), (bad, 4)))
        with pytest.raises(ValueError, match="dimension 0"):
            engine.prefetch([((0, bad), (0, 4))])

    def test_numpy_integers_keep_working(self, engine, cube_4x4):
        ranges = ((np.int64(1), np.int32(3)), (np.uint8(0), 4))
        assert engine.range_sum(ranges).value == cube_4x4[1:3, :].sum()

    def test_reversed_and_outside_ranges_raise_what_they_did(self, engine):
        with pytest.raises(ValueError, match=r"range \[3, 1\) outside \[0, 4\)"):
            engine.range_sum(((3, 1), (0, 4)))
        with pytest.raises(ValueError, match=r"range \[0, 5\) outside \[0, 4\)"):
            engine.range_sum(((0, 4), (0, 5)))
        with pytest.raises(ValueError, match=r"range \[-1, 2\) outside"):
            engine.range_sum(((0, 0), (-1, 2)))  # checked past an empty dimension
        with pytest.raises(ValueError, match="3 ranges for a 2-dimensional cube"):
            engine.range_sum(((0, 4), (0, 4), (0, 1)))

    def test_levels_are_grouped_with_at_most_two_cells_each(self):
        for lo in range(17):
            for hi in range(lo, 17):
                groups = dyadic_levels(lo, hi, 16)
                assert [level for level, _ in groups] == sorted({level for level, _ in groups})
                assert all(1 <= len(ix) <= 2 and list(ix) == sorted(ix) for _, ix in groups)
                flat = sorted((i << k, k, i) for k, ix in groups for i in ix)
                assert [(k, i) for _, k, i in flat] == dyadic_decomposition(lo, hi, 16)
