"""Delta propagation: the math, the cache plumbing, and the server path.

The filter bank is linear (P1/R1 are signed pair sums), so a cube-cell
delta touches exactly one cell of every view element with a computable
sign.  These tests pin that law (:mod:`repro.core.delta`) against brute
recomputation, then the machinery built on it: the result cache's one
repair entry, range-engine intermediate patching, sharded batch routing,
and the server's patch-instead-of-clear update path.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import DeltaBatch, SlabStore, patch_array
from repro.core.element import CubeShape, ElementId
from repro.errors import InvalidUpdateError, ReproError
from repro.core.materialize import MaterializedSet, compute_element
from repro.core.range_query import RANGE_PATCH, RangeQueryEngine
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.obs import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.replay import seeded_cube
from repro.server import OLAPServer
from repro.shard.partition import CubePartition
from repro.shard.sets import ShardedSet

from .oracles import delta_cell

SHAPES = [CubeShape((4, 4)), CubeShape((8, 2)), CubeShape((2, 2, 4))]


def _all_elements(shape: CubeShape):
    """Every element id of the shape's full dyadic graph."""
    import itertools

    per_dim = []
    for depth in shape.depths:
        nodes = [
            (k, j) for k in range(depth + 1) for j in range(1 << k)
        ]
        per_dim.append(nodes)
    return [
        ElementId(shape, nodes) for nodes in itertools.product(*per_dim)
    ]


class TestDeltaCell:
    """A point delta touches exactly one cell, with the predicted sign."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_brute_recomputation(self, shape):
        rng = np.random.default_rng(3)
        base = rng.integers(-9, 10, size=shape.sizes).astype(np.float64)
        for element in _all_elements(shape):
            before = compute_element(base, element)
            for _ in range(4):
                coords = tuple(
                    int(rng.integers(0, n)) for n in shape.sizes
                )
                delta = float(rng.integers(1, 7))
                bumped = base.copy()
                bumped[coords] += delta
                after = compute_element(bumped, element)
                diff = after - before
                cell, sign = delta_cell(element, coords)
                assert diff[cell] == sign * delta
                touched = np.count_nonzero(diff)
                assert touched == 1

    def test_sign_flips_on_odd_residual_half(self):
        # R1 at level 1: out[p] = in[2p] - in[2p+1]; the odd slot is
        # subtracted, so its sign is -1 and the even slot's is +1.
        shape = CubeShape((4,))
        element = ElementId(shape, ((1, 1),))
        assert delta_cell(element, (0,)) == ((0,), 1.0)
        assert delta_cell(element, (1,)) == ((0,), -1.0)
        assert delta_cell(element, (2,)) == ((1,), 1.0)
        assert delta_cell(element, (3,)) == ((1,), -1.0)

    def test_rank_mismatch_raises(self):
        shape = CubeShape((4, 4))
        element = shape.root()
        with pytest.raises(ValueError):
            delta_cell(element, (1,))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_vectorized_equals_scalar(self, shape):
        rng = np.random.default_rng(5)
        coords = np.stack(
            [rng.integers(0, n, size=16) for n in shape.sizes], axis=1
        )
        deltas = rng.integers(1, 9, size=16).astype(np.float64)
        batch = DeltaBatch(shape, coords, deltas)
        for element in _all_elements(shape)[::3]:
            _assert_matches_oracle(batch, element)


def _assert_matches_oracle(batch: DeltaBatch, element: ElementId) -> None:
    """Each row of ``batch`` alone, patched into zeros by
    :func:`patch_array` and by a signed slot of a :class:`SlabStore`'s
    compiled index, lands on the scalar cascade walk's cell with its
    sign."""
    store = SlabStore(element.shape)
    slot = np.zeros(element.data_shape)
    store.track("slot", lambda: {id(slot)})
    with store.lock:
        store.join("slot", [(element, slot)])
    for row in range(len(batch)):
        coordinates = tuple(batch.coordinates[row])
        one = DeltaBatch(batch.shape, [coordinates], batch.deltas[row : row + 1])
        cell, sign = delta_cell(element, coordinates)
        expected = np.zeros(element.data_shape)
        expected[cell] += sign * batch.deltas[row]
        values = np.zeros(element.data_shape)
        patch_array(element, values, one)
        slot[...] = 0.0
        assert store.patch(one, None, "slot") == 1
        assert values.tobytes() == slot.tobytes() == expected.tobytes()


@st.composite
def _bursts(draw):
    """A 1-4-d shape, a burst with duplicate and boundary cells, and an
    element with arbitrary residual indices."""
    depths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    shape = CubeShape(tuple(1 << k for k in depths))
    cell = st.tuples(
        *(
            st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1))
            for n in shape.sizes
        )
    )
    rows = draw(st.lists(cell, min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicates
    deltas = draw(
        st.lists(
            st.integers(-9, 9).map(float),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    nodes = []
    for depth in depths:
        level = draw(st.integers(0, depth))
        nodes.append((level, draw(st.integers(0, (1 << level) - 1))))
    return shape, np.array(rows), np.array(deltas), ElementId(shape, tuple(nodes))


class TestDeltaBatchProperty:
    @settings(max_examples=120, deadline=None)
    @given(_bursts())
    def test_cells_and_signed_deltas_equal_the_scalar_oracle(self, burst):
        shape, coords, deltas, element = burst
        batch = DeltaBatch(shape, coords, deltas)
        _assert_matches_oracle(batch, element)
        _assert_matches_oracle(batch, shape.root())

    @settings(max_examples=60, deadline=None)
    @given(_bursts())
    def test_patch_equals_recompute(self, burst):
        shape, coords, deltas, element = burst
        rng = np.random.default_rng(len(coords))
        base = rng.integers(-9, 10, size=shape.sizes).astype(np.float64)
        values = compute_element(base, element).copy()
        patch_array(element, values, DeltaBatch(shape, coords, deltas))
        np.add.at(base, tuple(coords.T), deltas)
        assert values.tobytes() == compute_element(base, element).tobytes()

    def test_pure_partial_sums_carry_no_sign(self):
        # Every range intermediate, view and roll-up has index 0 in every
        # dimension: no R1 step, so the deltas are scattered as they are
        # and the compiled index carries no sign table.
        shape = CubeShape((8, 4))
        batch = DeltaBatch(shape, [[7, 3], [1, 1]], [2.0, -3.0])
        store = SlabStore(shape)
        slots = []
        store.track("pure", lambda: {id(v) for _, v in slots})
        for levels in ((0, 0), (3, 0), (1, 2), (3, 2)):
            element = ElementId(shape, tuple((k, 0) for k in levels))
            slots.append((element, np.zeros(element.data_shape)))
            expected = np.zeros(element.data_shape)
            np.add.at(
                expected,
                tuple(batch.coordinates.T >> np.array(levels)[:, None]),
                batch.deltas,
            )
            values = np.zeros(element.data_shape)
            patch_array(element, values, batch)
            assert values.tobytes() == expected.tobytes()
        with store.lock:
            store.join("pure", slots)
        assert store.patch(batch, None, "pure") == 4
        assert store._compile(("pure",))[1] == []
        for element, values in slots:
            reference = np.zeros(element.data_shape)
            patch_array(element, reference, batch)
            assert values.tobytes() == reference.tobytes()


class TestValidate:
    def test_validate_rejects_rank_and_bounds(self):
        shape = CubeShape((4, 4))
        with pytest.raises(ValueError, match="coordinates must be"):
            DeltaBatch(shape, np.zeros((2, 3), dtype=np.int64), np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            DeltaBatch(shape, np.array([[0, 4]]), [1.0])
        with pytest.raises(ValueError, match="outside"):
            DeltaBatch(shape, np.array([[-1, 0]]), [1.0])
        with pytest.raises(ValueError, match="deltas must be"):
            DeltaBatch(shape, np.array([[0, 0]]), [1.0, 2.0])

    @pytest.mark.parametrize(
        "coordinates, deltas, message",
        [
            ([[0, 0]], [float("nan")], "finite"),
            ([[0, 0]], [float("inf")], "finite"),
            ([[0, 0], [1, 1]], [1.0, -float("inf")], "finite"),
            ([[0.7, 0]], [1.0], "integers"),
            ([[float("nan"), 0]], [1.0], "integers"),
            ([[float("inf"), 0]], [1.0], "outside"),
            ([[True, False]], [1.0], "integers"),
            ([["0", "1"]], [1.0], "integers"),
            ([[0, 0]], [1 + 2j], "real"),
            ([[0, 0]], ["abc"], "real"),
            ([[0, 0]], np.array(["1.5"], dtype=object), "real"),
            ([[0, 0]], [None], "real"),
        ],
    )
    def test_rejects_what_would_poison_or_truncate(
        self, coordinates, deltas, message
    ):
        with pytest.raises(InvalidUpdateError, match=message) as caught:
            DeltaBatch(CubeShape((4, 4)), coordinates, deltas)
        assert isinstance(caught.value, ValueError)
        assert isinstance(caught.value, ReproError)

    def test_integral_floats_and_unsigned_are_coordinates(self):
        shape = CubeShape((4, 4))
        for coordinates in (
            np.array([[3.0, 0.0]]),
            np.array([[3, 0]], dtype=np.uint8),
        ):
            batch = DeltaBatch(shape, coordinates, [1.0])
            assert batch.coordinates.dtype == np.int64
            assert batch.coordinates.tolist() == [[3, 0]]

    @pytest.mark.parametrize(
        "coordinates", [[], np.empty((0, 2), dtype=np.int64), np.empty((0,))]
    )
    def test_every_empty_input_is_the_empty_batch(self, coordinates):
        batch = DeltaBatch(CubeShape((4, 4)), coordinates, [])
        assert len(batch) == 0
        assert batch.coordinates.shape == (0, 2)

    def test_element_of_another_cube_is_refused(self):
        batch = DeltaBatch(CubeShape((4, 4)), [[0, 0]], [1.0])
        foreign = CubeShape((4, 8)).root()
        with pytest.raises(ValueError, match="cube"):
            patch_array(foreign, np.zeros(foreign.data_shape), batch)
        store = SlabStore(batch.shape)
        store.track("slot", set)
        with pytest.raises(ValueError, match="cube"), store.lock:
            store.join("slot", [(foreign, np.zeros(foreign.data_shape))])


class TestPatchArray:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_patch_equals_recompute(self, shape):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        coords = np.stack(
            [rng.integers(0, n, size=6) for n in shape.sizes], axis=1
        )
        deltas = rng.integers(-5, 6, size=6).astype(np.float64)
        batch = DeltaBatch(shape, coords, deltas)
        bumped = base.copy()
        np.add.at(bumped, tuple(coords.T), deltas)
        for element in _all_elements(shape)[::4]:
            values = compute_element(base, element).copy()
            applied = patch_array(element, values, batch)
            assert applied == 6
            assert np.array_equal(values, compute_element(bumped, element))

    def test_empty_batch_is_a_no_op(self):
        shape = CubeShape((4, 4))
        values = np.zeros(shape.root().data_shape)
        assert patch_array(
            shape.root(), values, DeltaBatch(shape, [], [])
        ) == 0
        assert not values.any()


class TestCacheRepair:
    def test_patch_counts_the_repair_and_a_failed_one_clears(self, monkeypatch):
        """``LRUCache.patch`` counts what its owner's repair patched; a
        repair that raises clears the cache and the intermediates
        eagerly, and the cold answers are exact."""
        registry = MetricsRegistry()
        cache = LRUCache(registry=registry, name="c")
        cache.put("a", 1)
        assert cache.patch(lambda: 3) == 3
        assert cache.patch(lambda: 0) == 0
        assert registry.counter("c_patches_total").total() == 3
        assert cache.get("a") == 1 and len(cache) == 1

        server, base = _make_server()
        ranges = ((1, 7), (3, 13))
        server.view(["d0"])
        server.range_sum(ranges)
        state = server._state
        assert len(state.cache) and state.range_engine._cache
        clears = server.metrics.counter("view_cache_clears_total")
        monkeypatch.setattr(
            RangeQueryEngine,
            "apply_updates",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        server.update(4.0, d0=2, d1=2)
        monkeypatch.undo()
        assert clears.total() == 1
        assert server.health()["updates_cache_cleared"] == 1
        assert not len(state.cache) and not state.range_engine._cache
        ref = base.copy()
        ref[2, 2] += 4.0
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))
        assert server.range_sum(ranges) == ref[1:7, 3:13].sum()


class TestRangeEnginePatch:
    def test_patched_intermediates_match_fresh_engine(self):
        shape = CubeShape((8, 8))
        rng = np.random.default_rng(13)
        base = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        materialized = MaterializedSet.from_cube(base.copy(), [shape.root()])
        engine = RangeQueryEngine(materialized)
        ranges = ((1, 7), (2, 6))
        engine.range_sum(ranges)  # warms on-demand intermediates
        assert engine._cache

        coords = np.array([[3, 3], [0, 7], [6, 2]])
        deltas = np.array([4.0, -2.0, 9.0])
        batch = DeltaBatch(shape, coords, deltas)
        materialized.apply_updates(batch)
        np.add.at(base, tuple(coords.T), deltas)
        patched = engine.apply_updates(batch)
        assert patched == {RANGE_PATCH: len(engine._cache)}

        fresh = RangeQueryEngine(
            MaterializedSet.from_cube(base.copy(), [shape.root()])
        )
        for probe in (ranges, ((0, 8), (0, 8)), ((3, 5), (1, 8))):
            assert (
                engine.range_sum(probe).value
                == fresh.range_sum(probe).value
            )

    def test_validation_and_empty_batch(self):
        shape = CubeShape((4, 4))
        engine = RangeQueryEngine(
            MaterializedSet.from_cube(np.zeros(shape.sizes), [shape.root()])
        )
        engine.range_sum(((1, 3), (0, 4)))  # warms on-demand intermediates
        assert engine._cache
        with pytest.raises(ValueError, match="cube"):
            engine.apply_updates(DeltaBatch(CubeShape((4, 8)), [[0, 0]], [1.0]))
        assert engine.apply_updates(DeltaBatch(shape, [], [])) == {}


class TestShardedBatchRouting:
    def test_a_cached_base_cube_is_patched_once_after_its_root_slab_is_lost(self):
        """The full view a 2-shard server answers with its base cube is
        cached; once a shard's root slab is quarantined the set no longer
        lists the base as storage, yet the burst that first activates the
        slabs must not join it: the set patches the cube (a delta used to
        land twice)."""
        server = OLAPServer(seeded_cube(0, (4, 8, 2)), shards=2)
        root = server.view(["d0", "d1", "d2"])
        assert root is server.materialized.base
        local = server.materialized.local_sets()[0]
        local.quarantine(local.elements[0])
        expected = server.cube.values.copy()
        expected[0, 0, 0] += 1.0
        server.update_many(np.array([[0, 0, 0]]), [1.0])
        assert server.cube.values.tobytes() == expected.tobytes()
        assert server.view(["d0", "d1", "d2"]).tobytes() == expected.tobytes()
        server.close()

    def _sharded(self, sizes=(8, 8), shards=4, seed=17):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 50, size=sizes).astype(np.float64)
        shape = CubeShape(sizes)
        partition = CubePartition.for_shape(shape, shards)
        sharded = ShardedSet(partition, base_values=base)
        sharded.store(shape.root(), base)
        return sharded, base, shape

    def test_bulk_matches_single_cell_routing(self):
        sharded, base, shape = self._sharded()
        single, _, _ = self._sharded()
        rng = np.random.default_rng(19)
        coords = np.stack(
            [rng.integers(0, n, size=10) for n in shape.sizes], axis=1
        )
        deltas = rng.integers(-5, 6, size=10).astype(np.float64)
        want = base.copy()
        np.add.at(want, tuple(coords.T), deltas)
        sharded.apply_updates(DeltaBatch(shape, coords, deltas))
        for row, delta in zip(coords, deltas):
            single.apply_updates(DeltaBatch(shape, [row], [delta]))
        # Each shard's stored slab of the root holds exactly its deltas.
        partition = sharded.partition
        local_root = partition.project(shape.root())
        for s, (bulk, one) in enumerate(
            zip(sharded.local_sets(), single.local_sets())
        ):
            slab = partition.slab(want, s).tobytes()
            assert bulk.array(local_root).tobytes() == slab
            assert one.array(local_root).tobytes() == slab
        # The held root (the base cube) and a gathered target agree.
        assert sharded.assemble(shape.root()).tobytes() == want.tobytes()
        assert single.assemble(shape.root()).tobytes() == want.tobytes()
        view = shape.aggregated_view((1,))
        assert (
            sharded.assemble(view).tobytes() == single.assemble(view).tobytes()
        )

    def test_the_held_root_shows_the_deltas_it_routed(self):
        """The set patches the base cube it answers the root with, beside
        its shards: no caller has to."""
        sharded, base, shape = self._sharded()
        root = shape.root()
        want = base.copy()
        want[3, 5] += 7.0
        sharded.apply_updates(DeltaBatch(shape, [[3, 5]], [7.0]))
        answer = sharded.assemble(root)
        assert answer is sharded.base
        assert answer.tobytes() == want.tobytes()
        # The same bytes as a gather of the patched slabs.
        local = sharded.partition.project(root)
        sharded.local_sets()[0].quarantine(local)
        gathered = sharded.assemble(root)
        assert not np.shares_memory(gathered, base)
        assert gathered.tobytes() == want.tobytes()

    def test_a_root_other_than_the_base_cube_is_refused(self):
        sharded, base, shape = self._sharded()
        with pytest.raises(ValueError, match="base cube"):
            sharded.store(shape.root(), base + 1.0)
        sharded.store(shape.root(), base.copy())  # equal values are the root
        assert sharded.assemble(shape.root()) is sharded.base
        frozen = base.view()
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            ShardedSet(sharded.partition, frozen)

    def test_only_owning_shards_bump_epochs(self):
        sharded, _, shape = self._sharded(shards=4)
        axis = sharded.partition.axis
        extent = sharded.partition.shard_extent
        before = sharded.epochs
        # All deltas land in shard 2's slab of the shard axis.
        coords = np.zeros((3, len(shape.sizes)), dtype=np.int64)
        coords[:, axis] = 2 * extent
        sharded.apply_updates(DeltaBatch(shape, coords, [1.0, 2.0, 3.0]))
        after = sharded.epochs
        assert after[2] == before[2] + 1
        assert [a for i, a in enumerate(after) if i != 2] == [
            b for i, b in enumerate(before) if i != 2
        ]

    def test_validation_and_empty_batch(self):
        sharded, _, shape = self._sharded()
        before = sharded.epochs
        # A batch in another cube's frame is refused by the owning shard
        # before it patches anything.
        with pytest.raises(ValueError, match="cube"):
            sharded.apply_updates(
                DeltaBatch(CubeShape((8, 8, 2)), [[0, 0, 0]], [1.0])
            )
        sharded.apply_updates(DeltaBatch(shape, [], []))
        assert sharded.epochs == before

    def test_array_refs_is_the_held_root(self):
        sharded, base, shape = self._sharded()
        ((root, values),) = sharded.array_refs().items()
        assert root == shape.root() and values is sharded.base
        assert np.shares_memory(values, base) and not values.flags.writeable
        sharded.local_sets()[0].quarantine(sharded.partition.project(root))
        assert sharded.array_refs() == {}


def _make_server(sizes=(8, 16), seed=29, **kwargs):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 50, size=sizes).astype(np.float64)
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    return (
        OLAPServer(DataCube(values.copy(), dims, measure="m"), **kwargs),
        values,
    )


class TestServerUpdatePath:
    def test_warm_cache_is_patched_not_cleared(self):
        server, base = _make_server()
        server.view(["d0"])
        server.view(["d1"])
        server.range_sum(((1, 7), (3, 13)))
        server.update(5.0, d0=3, d1=9)
        server.update_many(np.array([[0, 0], [7, 15]]), [1.0, -2.0])
        ref = base.copy()
        ref[3, 9] += 5.0
        ref[0, 0] += 1.0
        ref[7, 15] += -2.0
        assert np.array_equal(server.cube.values, ref)
        assert np.array_equal(
            server.view(["d0"]).ravel(), ref.sum(axis=1)
        )
        assert server.range_sum(((1, 7), (3, 13))) == ref[1:7, 3:13].sum()
        health = server.health()
        assert health["updates"] == 3
        assert health["updates_cache_patched"] > 0
        assert health["updates_cache_cleared"] == 0
        # The result cache was never wholesale-cleared.
        assert (
            server.metrics.counter("view_cache_clears_total").total() == 0
        )

    def test_update_many_accepts_mappings(self):
        server, base = _make_server()
        server.update_many([{"d0": 2, "d1": 4}, {"d0": 2, "d1": 4}], [3.0, 1.0])
        assert server.cube.values[2, 4] == base[2, 4] + 4.0

    def test_update_many_validates(self):
        server, _ = _make_server()
        with pytest.raises(ValueError, match="outside"):
            server.update_many(np.array([[0, 99]]), [1.0])
        with pytest.raises(ValueError, match="deltas must be"):
            server.update_many(np.array([[0, 0]]), [1.0, 2.0])
        server.update_many(np.empty((0, 2), dtype=np.int64), [])  # no-op

    def test_stored_aliases_are_not_double_patched(self):
        # The root is stored; a full-cube view serves the stored array by
        # reference and caches that same object.  The patcher must skip
        # it — apply_updates already repaired storage — or the delta
        # would land twice.
        server, base = _make_server()
        full = server.view(["d0", "d1"])
        server.update(7.0, d0=1, d1=2)
        ref = base.copy()
        ref[1, 2] += 7.0
        assert np.array_equal(server.view(["d0", "d1"]), ref)
        assert np.array_equal(full, ref)  # same live array, patched once

    def test_sharded_update_leaves_other_shards_warm(self):
        server, base = _make_server(sizes=(8, 16), shards=4)
        server.view(["d0"])
        before = server.materialized.epochs
        server.update(3.0, d0=0, d1=1)  # shard axis 1, owner shard 0
        after = server.materialized.epochs
        assert after[0] == before[0] + 1
        assert after[1:] == before[1:]
        ref = base.copy()
        ref[0, 1] += 3.0
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))
        assert server.health()["updates_cache_cleared"] == 0

    def test_patch_failure_falls_back_to_coarse(self, monkeypatch):
        server, base = _make_server()
        server.view(["d0"])
        monkeypatch.setattr(
            type(server._state.range_engine),
            "apply_updates",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        server.update(4.0, d0=2, d1=2)
        health = server.health()
        assert health["updates_cache_cleared"] == 1
        ref = base.copy()
        ref[2, 2] += 4.0
        # Coarse fallback is cold but still correct.
        assert np.array_equal(server.view(["d0"]).ravel(), ref.sum(axis=1))


def _durable(tmp_path):
    from repro.durability import DurabilityConfig

    return DurabilityConfig(tmp_path / "durable", fsync="off")


def _warm(server: OLAPServer) -> None:
    """Re-select on an observed population (so residual elements are
    stored), then fill the result cache and the range intermediates."""
    names = [dim.name for dim in server.cube.dimensions]
    sizes = server.shape.sizes
    for reselect in (True, False):
        for keep in ([], names[:1], names[1:], names):
            server.view(keep)
        server.rollup_batch(
            [dict(zip(names, levels)) for levels in ((1, 0, 1), (2, 1, 0), (0, 2, 2))]
        )
        server.range_sum(tuple((1, n - 1) for n in sizes))
        server.range_sum(tuple((0, n) for n in sizes))
        if reselect:
            server.reconfigure()


def _stored_arrays(server: OLAPServer, cube: np.ndarray):
    """``(element, stored array, the cube that element is computed from)``
    for every stored element — per shard slab on a sharded server."""
    materialized = server._state.materialized
    if isinstance(materialized, ShardedSet):
        for s, shard in enumerate(materialized._shards):
            slab = materialized.partition.slab(cube, s)
            for element, values in shard._arrays.items():
                yield element, values, slab
    else:
        for element, values in materialized._arrays.items():
            yield element, values, cube


class TestBurstLeavesEverythingExact:
    """One burst through ``update_many``: every stored element, cached
    answer and range intermediate equals recomputation from the updated
    cube, and each patched array is charged one addition per delta under
    its layer's label — the accounting the per-array walk had."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "wal"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_patched_state_equals_recompute_and_counts(
        self, shards, durable, tmp_path, monkeypatch
    ):
        from repro.core.operators import OpCounter

        kwargs = {"durability": _durable(tmp_path)} if durable else {}
        server, base = _make_server(
            sizes=(8, 4, 4), seed=31, shards=shards, **kwargs
        )
        _warm(server)
        state = server._state
        assert any(e.is_residual for e, _, _ in _stored_arrays(server, base))
        assert len(state.cache.keys()) > 3 and state.range_engine._cache

        # Duplicates, both corners, and rows on either side of the shard cut.
        coords = np.array(
            [[0, 0, 0], [7, 3, 3], [3, 1, 2], [3, 1, 2], [4, 3, 0], [0, 3, 3]]
        )
        deltas = np.array([5.0, -2.0, 3.0, 3.0, -7.0, 1.0])
        n = len(deltas)

        storage = {id(server.cube.values)} | {
            id(a) for a in state.materialized.array_refs().values()
        }
        cached = {key: state.cache.get(key) for key in state.cache.keys()}
        expected = {
            "cache patch": n
            * sum(id(values) not in storage for values in cached.values()),
            "range intermediate patch": n * len(state.range_engine._cache),
        }
        if shards == 1:
            expected["batch update"] = n * len(state.materialized.elements)
        else:
            partition = state.materialized.partition
            owners = coords[:, partition.axis] // partition.shard_extent
            assert set(owners) == {0, 1}
            expected["batch update"] = sum(
                int((owners == s).sum()) * len(shard.elements)
                for s, shard in enumerate(state.materialized._shards)
            )

        charged: dict[str, int] = {}
        add = OpCounter.add

        def recording_add(self, additions=0, subtractions=0, label=""):
            charged[label] = charged.get(label, 0) + additions + subtractions
            add(self, additions, subtractions, label)

        monkeypatch.setattr(OpCounter, "add", recording_add)
        operations = server.metrics.counter("server_operations_total")
        before = operations.total()
        server.update_many(coords, deltas)
        monkeypatch.undo()

        assert charged == expected
        assert operations.total() - before == sum(expected.values())
        assert server._state is state  # an update never swaps the snapshot

        updated = base.copy()
        np.add.at(updated, tuple(coords.T), deltas)
        assert server.cube.values.tobytes() == updated.tobytes()
        for element, values, source in _stored_arrays(server, updated):
            assert values.tobytes() == compute_element(source, element).tobytes()
        for element, values in cached.items():
            assert values.tobytes() == compute_element(updated, element).tobytes()
        for element, values in state.range_engine._cache.items():
            assert values.tobytes() == compute_element(updated, element).tobytes()
        assert server.health()["updates_cache_cleared"] == 0
        server.close()


class TestOnePassPerFrame:
    """A burst is validated — a ``DeltaBatch`` is built — once per
    coordinate frame: the global frame, plus one per owning shard."""

    @pytest.mark.parametrize("shards, frames", [(1, 1), (2, 3)])
    def test_batches_built_per_burst(self, shards, frames, monkeypatch):
        server, _ = _make_server(sizes=(8, 16), shards=shards)
        server.view(["d0"])
        server.range_sum(((1, 7), (3, 13)))
        built = []
        init = DeltaBatch.__init__

        def counting_init(self, shape, coordinates, deltas):
            built.append(shape.sizes)
            init(self, shape, coordinates, deltas)

        monkeypatch.setattr(DeltaBatch, "__init__", counting_init)
        # Rows in both halves of the shard axis (d1, extent 8 per shard).
        server.update_many(np.array([[0, 0], [7, 15], [3, 9]]), [1.0, 2.0, 3.0])
        assert len(built) == frames
        assert built[0] == (8, 16)
        assert all(sizes == (8, 8) for sizes in built[1:])


class TestRejectedBatchChangesNothing:
    """A refused batch reaches neither the WAL nor any in-memory state."""

    @pytest.mark.parametrize(
        "coordinates, deltas",
        [
            ([[0, 0, 0]], [float("nan")]),
            ([[0, 0, 0]], [float("inf")]),
            ([[0, 0, 0], [1, 1, 1]], [1.0, float("-inf")]),
            ([[0.7, 0, 0]], [1.0]),
            ([[0, 0, 99]], [1.0]),
            ([[0, 0, 0]], [1.0, 2.0]),
            ([[0, 0, 0]], [1 + 2j]),
            ([[0, 0, 0]], ["abc"]),
        ],
    )
    def test_server_and_wal_are_unchanged(self, coordinates, deltas, tmp_path):
        server, base = _make_server(
            sizes=(8, 4, 4), seed=37, durability=_durable(tmp_path)
        )
        with server:
            _warm(server)
            server.update_many([[1, 1, 1]], [4.0])  # one good record
            whole = tuple((0, n) for n in server.shape.sizes)

            def observed():
                return (
                    server.cube.values.tobytes(),
                    server.view(["d0"]).tobytes(),
                    server.view(["d1", "d2"]).tobytes(),
                    server.range_sum(whole),
                    server.range_sum(((1, 7), (1, 3), (0, 4))),
                    server._lineage.applied_seq,
                    server._lineage.wal.last_seq,
                    [
                        (r.seq, r.coordinates.tobytes(), r.deltas.tobytes())
                        for r in server._lineage.wal.replay()
                    ],
                )

            before = observed()
            with pytest.raises(InvalidUpdateError) as caught:
                server.update_many(coordinates, deltas)
            assert isinstance(caught.value, ValueError)
            assert observed() == before
            assert before[3] == base.sum() + 4.0
            # The next good batch is the next record: nothing was skipped.
            server.update_many([[0, 0, 0]], [1.0])
            assert server._lineage.wal.last_seq == before[6] + 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda server: server.update(1.0, d0=1, d1=2, d2=0, d9=3),
                r"unknown dimensions \['d9'\]",
            ),
            (
                lambda server: server.update_many(
                    [{"d0": 1, "d1": 2, "d2": 0, "typo": 0}], [1.0]
                ),
                r"unknown dimensions \['typo'\]",
            ),
            (
                lambda server: server.update(1.0, d0=1, d2=0),
                "missing coordinate for dimension 'd1'",
            ),
            (
                lambda server: server.update_many(
                    [{"d0": 1, "d1": 99, "d2": 0}], [1.0]
                ),
                "unknown value 99 for dimension 'd1'",
            ),
        ],
        ids=["extra-key", "extra-key-many", "missing-key", "unknown-value"],
    )
    def test_a_record_that_names_no_cell_is_refused(
        self, call, message, tmp_path
    ):
        """A record is encoded as ``cell`` encodes its arguments: an extra
        key is refused like a missing one, before the WAL sees it."""
        server, base = _make_server(
            sizes=(8, 4, 4), seed=37, durability=_durable(tmp_path)
        )
        with server:
            server.update_many([[1, 1, 1]], [4.0])

            def logged():
                return [
                    (r.seq, r.coordinates.tobytes(), r.deltas.tobytes())
                    for r in server._lineage.wal.replay()
                ]

            before = logged()
            with pytest.raises(KeyError, match=message):
                call(server)
            assert logged() == before
            assert server._lineage.applied_seq == server._lineage.wal.last_seq == before[-1][0]
            expected = base.copy()
            expected[1, 1, 1] += 4.0
            assert server.cube.values.tobytes() == expected.tobytes()
            with pytest.raises(KeyError, match=r"unknown dimensions \['d9'\]"):
                server.cell(d0=1, d1=2, d2=0, d9=3)

    def test_single_cell_update_rejects_non_finite(self):
        server, base = _make_server()
        with pytest.raises(InvalidUpdateError, match="finite"):
            server.update(float("nan"), d0=1, d1=1)
        assert np.array_equal(server.cube.values, base)

    @pytest.mark.parametrize(
        "coordinates", [[], np.empty((0, 3), dtype=np.int64), np.empty((0,))]
    )
    def test_every_empty_batch_is_a_no_op(self, coordinates, tmp_path):
        server, base = _make_server(
            sizes=(8, 4, 4), durability=_durable(tmp_path)
        )
        with server:
            seq = server._lineage.wal.last_seq
            server.update_many(coordinates, [])
            assert server._lineage.wal.last_seq == seq
            assert server.health()["updates"] == 0
            assert np.array_equal(server.cube.values, base)
