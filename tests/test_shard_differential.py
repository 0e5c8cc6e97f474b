"""Shard-vs-monolith differential harness: byte-identity of serving.

The merge-exactness invariant under test: for every (dims, dtype, shard
count) combination, scatter–gather assembly over
:class:`~repro.shard.ShardedSet` returns **bit-identical** bytes to
monolithic :class:`~repro.core.materialize.MaterializedSet` assembly —
integer-valued cubes on any shard axis, float cubes on the last-dimension
axis (where the merge preserves canonical step order).  Styled on
``test_exec.py``: strict operation accounting rides along with the
byte comparisons.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import CubeShape, ElementId
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer
from repro.shard import CubePartition, ShardedSet, shard_axis_for


def all_group_bys(shape: CubeShape):
    d = shape.ndim
    return [
        shape.aggregated_view(agg)
        for k in range(d + 1)
        for agg in combinations(range(d), k)
    ]


def _random_sizes(rng, ndim: int, sorted_ascending: bool = False):
    sizes = [int(2 ** rng.integers(1, 5)) for _ in range(ndim)]
    if sorted_ascending:
        sizes.sort()
    return tuple(sizes)


def _random_element(shape: CubeShape, rng) -> ElementId:
    """A uniformly random (possibly residual) view element."""
    nodes = []
    for depth in shape.depths:
        k = int(rng.integers(0, depth + 1))
        j = int(rng.integers(0, 1 << k))
        nodes.append((k, j))
    return ElementId(shape, tuple(nodes))


def _shard_counts(shape: CubeShape):
    axis_extent = shape.sizes[shard_axis_for(shape)]
    return [s for s in (1, 2, 4) if s <= axis_extent]


def _sharded_pair(shape, values, shards):
    mono = MaterializedSet(shape)
    mono.store(shape.root(), values)
    part = CubePartition.for_shape(shape, shards)
    sharded = ShardedSet(part, base_values=values)
    sharded.store(shape.root(), values)
    return mono, sharded


class TestPartitionMath:
    def test_default_axis_prefers_largest_then_last(self):
        assert shard_axis_for(CubeShape((4, 8, 2))) == 1
        assert shard_axis_for(CubeShape((8, 8, 8))) == 2

    def test_validation(self):
        shape = CubeShape((8, 4))
        with pytest.raises(ValueError, match="power of two"):
            CubePartition.for_shape(shape, 3)
        with pytest.raises(ValueError, match="exceed axis extent"):
            CubePartition.for_shape(shape, 16)
        with pytest.raises(ValueError, match="outside"):
            CubePartition.for_shape(shape, 2, axis=5)

    def test_projection_identity_within_slab(self):
        shape = CubeShape((8, 16))
        part = CubePartition.for_shape(shape, 4)  # axis 1, W=4, w=2
        element = ElementId(shape, ((1, 0), (2, 3)))
        local = part.project(element)
        assert local.nodes == ((1, 0), (2, 3))
        assert part.merge_steps(element) == ()

    def test_projection_truncates_past_slab_depth(self):
        shape = CubeShape((8, 16))
        part = CubePartition.for_shape(shape, 4)  # axis 1, W=4, w=2
        element = ElementId(shape, ((0, 0), (4, 13)))  # j=0b1101
        local = part.project(element)
        # High w=2 bits of j stay local; low 2 bits become the merge.
        assert local.nodes[1] == (2, 13 >> 2)
        steps = part.merge_steps(element)
        assert steps == ((1, False), (1, True))  # low bits 0b01, MSB first

    def test_slab_concatenation_covers_cube(self):
        shape = CubeShape((4, 8))
        part = CubePartition.for_shape(shape, 2)
        values = np.arange(32, dtype=np.float64).reshape(4, 8)
        rebuilt = np.concatenate(
            [part.slab(values, s) for s in range(2)], axis=part.axis
        )
        np.testing.assert_array_equal(rebuilt, values)

    def test_unsplittable_store_rejected(self):
        shape = CubeShape((4, 8))
        part = CubePartition.for_shape(shape, 4)  # w=1
        sharded = ShardedSet(part, np.zeros(shape.sizes))
        deep = ElementId(shape, ((0, 0), (3, 0)))
        with pytest.raises(ValueError, match="does not split"):
            sharded.store(deep, np.zeros(deep.data_shape))


class TestSetDifferential:
    """Integer cubes: byte-identity on any shard axis, 1-4 dims."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_group_bys_and_residuals_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        shape = CubeShape(_random_sizes(rng, int(rng.integers(1, 5))))
        values = rng.integers(0, 100, size=shape.sizes).astype(np.float64)
        targets = all_group_bys(shape) + [
            _random_element(shape, rng) for _ in range(3)
        ]
        for shards in _shard_counts(shape):
            mono, sharded = _sharded_pair(shape, values, shards)
            expected = mono.assemble_batch(targets)
            actual = sharded.assemble_batch(targets)
            assert set(actual) == set(expected)
            for target in expected:
                assert (
                    actual[target].tobytes() == expected[target].tobytes()
                ), (shards, target.describe())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_single_assembles_match_batch(self, seed):
        rng = np.random.default_rng(seed)
        shape = CubeShape(_random_sizes(rng, 3))
        values = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        targets = [_random_element(shape, rng) for _ in range(4)]
        for shards in _shard_counts(shape)[1:]:
            mono, sharded = _sharded_pair(shape, values, shards)
            for target in targets:
                assert (
                    sharded.assemble(target).tobytes()
                    == mono.assemble(target).tobytes()
                )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_migrated_selection_bit_identical(self, seed):
        """Reconfigure path: per-shard migration preserves byte-identity."""
        rng = np.random.default_rng(seed)
        shape = CubeShape(_random_sizes(rng, 3))
        values = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        stored = [shape.root()] + [
            shape.aggregated_view((m,)) for m in range(shape.ndim)
        ]
        targets = all_group_bys(shape)
        mono = MaterializedSet(shape)
        mono.store(shape.root(), values)
        for e in sorted(stored, key=lambda e: e.depth):
            mono.store(e, mono.assemble(e))
        for shards in _shard_counts(shape)[1:]:
            part = CubePartition.for_shape(shape, shards)
            old = ShardedSet(part, base_values=values)
            old.store(shape.root(), values)
            new = ShardedSet(part, base_values=values)
            new.migrate_selection(stored, old)
            assert set(new.elements) == set(stored)
            for target in targets:
                assert (
                    new.assemble(target).tobytes()
                    == mono.assemble(target).tobytes()
                )


class TestFloatBitIdentity:
    """Float cubes: exact on the last-dimension shard axis.

    With ascending-sorted extents the default axis rule picks the last
    dimension, so the shard-local steps plus the merge replay the
    canonical cascade in the same order — identical rounding, identical
    bytes even for irrational float data.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_last_axis_float_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 5))
        shape = CubeShape(_random_sizes(rng, ndim, sorted_ascending=True))
        values = rng.standard_normal(shape.sizes)
        targets = all_group_bys(shape)
        for shards in _shard_counts(shape):
            mono, sharded = _sharded_pair(shape, values, shards)
            expected = mono.assemble_batch(targets)
            actual = sharded.assemble_batch(targets)
            for target in targets:
                assert (
                    actual[target].tobytes() == expected[target].tobytes()
                ), (shards, target.describe())


class TestOpAccounting:
    """Strict-ops: scatter-gather work accounting stays exact."""

    def test_single_target_op_parity_with_monolith(self, rng):
        """Per-shard cascades plus the merge perform exactly the ops of
        the monolithic cascade: Vol - Vol(T) scalar additions split as
        S*(Vol/S - Vol(L)) + (S*Vol(L) - Vol(T))."""
        shape = CubeShape((8, 16, 16))
        values = rng.integers(0, 9, size=shape.sizes).astype(np.float64)
        target = shape.aggregated_view((0, 1, 2))
        for shards in (2, 4):
            mono, sharded = _sharded_pair(shape, values, shards)
            mono_counter = OpCounter()
            mono.assemble(target, counter=mono_counter)
            shard_counter = OpCounter()
            sharded.assemble(target, counter=shard_counter)
            assert shard_counter.total == mono_counter.total

    def test_scatter_stats_reported(self, rng):
        shape = CubeShape((8, 16))
        values = rng.integers(0, 9, size=shape.sizes).astype(np.float64)
        _, sharded = _sharded_pair(shape, values, 4)
        sharded.assemble_batch(all_group_bys(shape))
        stats = sharded.last_scatter_stats
        assert stats["shards"] == 4
        assert stats["plans"] == 1  # uniform storage: one shared plan
        assert stats["degraded_shards"] == []
        assert stats["merge_ops"] > 0

    def test_shared_plan_cache_reused(self, rng):
        shape = CubeShape((8, 16))
        values = rng.integers(0, 9, size=shape.sizes).astype(np.float64)
        _, sharded = _sharded_pair(shape, values, 2)
        targets = all_group_bys(shape)
        first = sharded.assemble_batch(targets, counter=OpCounter())
        second = sharded.assemble_batch(targets, counter=OpCounter())
        for target in targets:
            assert first[target].tobytes() == second[target].tobytes()
        assert len(sharded._plan_cache) == 1


class TestServerDifferential:
    """Server layer: point/range/rollup/batch."""

    @staticmethod
    def _server(seed, sizes, **kwargs):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=sizes).astype(np.float64)
        dims = [
            Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)
        ]
        return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_thread_backend_serving_bit_identical(self, seed):
        sizes = (8, 8, 16)
        names = ["d0", "d1", "d2"]
        mono = self._server(seed, sizes)
        rng = np.random.default_rng(seed + 1)
        requests = [[], ["d0"], ["d1", "d2"], names]
        ranges = tuple(
            tuple(sorted(rng.integers(0, n + 1, size=2))) for n in sizes
        )
        cell = {n: int(rng.integers(0, s)) for n, s in zip(names, sizes)}
        expected_views = [
            a.tobytes() for a in mono.query_batch(requests, max_workers=2)
        ]
        expected_rollup = mono.rollup({"d0": 1, "d2": 2}).tobytes()
        expected_range = mono.range_sum(ranges)
        expected_cell = mono.cell(**cell)
        for shards in (2, 4):
            sharded = self._server(seed, sizes, shards=shards)
            actual = [
                a.tobytes()
                for a in sharded.query_batch(requests, max_workers=2)
            ]
            assert actual == expected_views, shards
            assert (
                sharded.rollup({"d0": 1, "d2": 2}).tobytes()
                == expected_rollup
            )
            assert sharded.range_sum(ranges) == expected_range
            assert sharded.cell(**cell) == expected_cell

    @pytest.mark.parametrize("cpus, leg_workers", [(2, 1), (8, 2)])
    def test_leg_pools_fit_the_cpus_left_by_the_lanes(
        self, monkeypatch, cpus, leg_workers
    ):
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: set(range(cpus))
        )
        # Threshold 0 keeps the legs from demoting themselves to serial.
        monkeypatch.setattr("repro.core.exec.DISPATCH_THRESHOLD", 0)
        server = self._server(5, (8, 8, 8), shards=2)
        server.query_batch([["d0"], ["d1"], ["d0", "d1"]], max_workers=4)
        execs = [
            s for s in server.tracer.trace() if s.name == "exec.execute"
        ]
        assert sorted(s.attributes["shard"] for s in execs) == [0, 1]
        assert {s.attributes["workers"] for s in execs} == {leg_workers}

    def test_batch_yields_one_connected_trace_with_shard_lanes(self):
        server = self._server(5, (8, 8, 8), shards=2)
        server.query_batch([["d0"], ["d1"], ["d0", "d1"]])
        spans = server.tracer.trace()
        trace_ids = {s.trace_id for s in spans}
        assert len(trace_ids) == 1
        span_ids = {s.span_id for s in spans}
        for s in spans:
            assert s.parent_id is None or s.parent_id in span_ids
        lanes = [s for s in spans if s.name == "shard.execute"]
        assert sorted(s.attributes["shard"] for s in lanes) == [0, 1]
        execs = [s for s in spans if s.name == "exec.execute"]
        assert {s.attributes.get("shard") for s in execs} == {0, 1}

    def test_sharded_health_reports_shards_section(self):
        server = self._server(5, (8, 8), shards=2)
        server.view(["d0"])
        health = server.health()
        shards = health["shards"]
        assert shards["count"] == 2
        assert len(shards["per_shard"]) == 2
        assert all(entry["quarantined"] == 0 for entry in shards["per_shard"])
        # Monolithic servers have no shards section.
        assert "shards" not in self._server(5, (8, 8)).health()
