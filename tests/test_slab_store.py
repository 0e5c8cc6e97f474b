"""The slab store against per-array patching.

:class:`repro.core.delta.SlabStore` packs pure partial-sum arrays side by
side and repairs all of a label's live arrays with one ``np.add.at`` per
slab.  Its contract is that nothing observable differs from calling
:func:`repro.core.delta.patch_array` on each live array: the same bytes,
the same additions under the same label, and nothing at all for an array
its owner no longer holds.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import delta
from repro.core.delta import DeltaBatch, SlabStore, patch_array
from repro.core.element import CubeShape, ElementId
from repro.core.operators import OpCounter
from repro.shard.partition import CubePartition

LABELS = ("first", "second")


@st.composite
def _warm_sets(draw):
    """A 1-3-d shape with extents from {1, 2, 4, 8, 16}; pure elements
    with their arrays, each owned by one label and live or not; a burst
    with duplicate cells and negative deltas; a small slab size."""
    sizes = tuple(
        draw(st.lists(st.sampled_from((1, 2, 4, 8, 16)), min_size=1, max_size=3))
    )
    shape = CubeShape(sizes)
    levels = st.tuples(*(st.integers(0, k) for k in shape.depths))
    arrays = []
    for levels_of in draw(st.lists(levels, min_size=1, max_size=14)):
        element = shape.intermediate(levels_of)
        values = np.array(
            draw(
                st.lists(
                    st.integers(-50, 50),
                    min_size=element.volume,
                    max_size=element.volume,
                )
            ),
            dtype=np.float64,
        ).reshape(element.data_shape)
        arrays.append(
            (element, values, draw(st.sampled_from(LABELS)), draw(st.booleans()))
        )
    cell = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    rows = draw(st.lists(cell, min_size=1, max_size=10))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # duplicates
    deltas = draw(
        st.lists(
            st.integers(-9, 9).map(float), min_size=len(rows), max_size=len(rows)
        )
    )
    slab_cells = draw(st.sampled_from((1, 2, 4, 8, 32)))
    return shape, arrays, np.array(rows), np.array(deltas), slab_cells


class _Counting:
    """``np`` for :mod:`repro.core.delta`, counting ``np.add.at`` calls."""

    def __init__(self):
        self.calls = 0
        counting = self

        class _Add:
            def at(self, *args):
                counting.calls += 1
                return np.add.at(*args)

        self.add = _Add()

    def __getattr__(self, name):
        return getattr(np, name)


def _charged(counter: OpCounter) -> dict[str, int]:
    """Operations per label."""
    out: dict[str, int] = {}
    for label, additions, subtractions in counter.events:
        out[label] = out.get(label, 0) + additions + subtractions
    return out


class TestSlabsEqualPerArrayPatching:
    @settings(max_examples=150, deadline=None)
    @given(_warm_sets())
    def test_bytes_charges_dead_slots_and_dropped_slabs(self, warm):
        shape, arrays, coords, deltas, slab_cells = warm
        batch = DeltaBatch(shape, coords, deltas)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delta, "SLAB_CELLS", slab_cells)
            store = SlabStore(shape)
            held = {label: [] for label in LABELS}
            for label in LABELS:
                store.track(
                    label,
                    lambda label=label: {id(view) for view in held[label]},
                )
            adopted = []  # (element, view, reference copy, label, live)
            with store.lock:
                for element, values, label, live in arrays:
                    view = store.adopt(element, values, label)
                    assert view.tobytes() == values.tobytes()
                    held[label].append(view)
                    adopted.append((element, view, values.copy(), label, live))
            # Owners drop what is not live; the next patch must not touch it.
            for label in LABELS:
                held[label] = [
                    view for _, view, _, l, live in adopted if l == label and live
                ]
            counting = _Counting()
            mp.setattr(delta, "np", counting)
            counter = OpCounter()
            patched = {
                label: store.patch(batch, counter, label) for label in LABELS
            }

        expected = OpCounter()
        for element, view, reference, label, live in adopted:
            # A dead slot is never patched: still the bytes it was adopted with.
            if live:
                patch_array(element, reference, batch, counter=expected, label=label)
            assert view.tobytes() == reference.tobytes()
        assert _charged(counter) == _charged(expected)
        for label in LABELS:
            assert patched[label] == sum(
                1 for _, _, _, l, live in adopted if l == label and live
            )
            slabs = store._slabs[label]
            # A slab whose slots all died is gone; every kept slot is live.
            assert all(slab.slots for slab in slabs)
            assert sum(len(slab.slots) for slab in slabs) == patched[label]
        assert counting.calls == sum(len(store._slabs[label]) for label in LABELS)
        for label in LABELS:
            assert store.held[label] == {
                id(view) for _, view, _, l, live in adopted if l == label and live
            }


class TestAdoption:
    def test_small_arrays_share_a_slab_and_large_ones_are_not_copied(self):
        shape = CubeShape((64, 16, 8))
        store = SlabStore(shape)
        store.track("cache", lambda: {id(v) for v in kept})
        kept = []
        small = [shape.intermediate(levels) for levels in ((6, 4, 3), (5, 4, 3), (6, 3, 2))]
        large = shape.intermediate((0, 0, 0))  # 8,192 cells
        big = np.arange(large.volume, dtype=np.float64).reshape(large.data_shape)
        with store.lock:
            views = [
                store.adopt(e, np.ones(e.data_shape), "cache") for e in small
            ]
            kept += views
            kept.append(store.adopt(large, big, "cache"))
        assert kept[-1] is big
        assert len({view.base.ctypes.data for view in views}) == 1
        assert len(store._slabs["cache"]) == 2

    def test_residual_and_foreign_elements_are_refused(self):
        shape = CubeShape((4, 4))
        store = SlabStore(shape)
        store.track("cache", set)
        residual = shape.element(((1, 1), (0, 0)))
        with pytest.raises(ValueError, match="pure"):
            store.adopt(residual, np.zeros((2, 4)), "cache")
        with pytest.raises(ValueError, match="pure"):
            store.adopt(CubeShape((4, 8)).root(), np.zeros((4, 8)), "cache")
        with pytest.raises(ValueError, match="cube"):
            store.patch(DeltaBatch(CubeShape((4, 8)), [[0, 0]], [1.0]), None, "cache")

    def test_a_burst_activates_the_store_and_the_sequence_brackets_it(self):
        store = SlabStore(CubeShape((2, 2)))
        store.track("cache", set)
        mark = store.sequence
        assert store.settled(mark) and not store.active
        store.begin_burst()
        assert not store.settled(store.sequence)  # odd: a burst is running
        store.patch(DeltaBatch(store.shape, [], []), None, "cache")
        store.end_burst()
        assert store.active and not store.settled(mark)
        assert store.settled(store.sequence)


def test_every_pure_element_of_a_small_shape_round_trips():
    """Every level combination of a 3-d shape, packed into tiny slabs,
    patches like its own array under repeated bursts."""
    shape = CubeShape((8, 4, 2))
    rng = np.random.default_rng(5)
    store = SlabStore(shape)
    views = []
    store.track("cache", lambda: {id(v) for v in views})
    references = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delta, "SLAB_CELLS", 16)
        with store.lock:
            for levels in itertools.product(*(range(k + 1) for k in shape.depths)):
                element = shape.intermediate(levels)
                values = rng.integers(-9, 10, size=element.data_shape).astype(float)
                views.append(store.adopt(element, values, "cache"))
                references.append((element, values.copy()))
        for _ in range(4):
            coords = np.stack([rng.integers(0, n, size=9) for n in shape.sizes], axis=1)
            batch = DeltaBatch(shape, coords, rng.integers(-5, 6, size=9).astype(float))
            assert store.patch(batch, None, "cache") == len(views)
            for (element, reference), view in zip(references, views):
                patch_array(element, reference, batch)
                assert view.tobytes() == reference.tobytes()


#: The owners of a server's two stores, and whether each holds pure
#: partial sums only: the stored elements (signed, in place), the result
#: cache's answers (packed) and the range engine's intermediates (in place).
OWNERS = {
    "batch update": False,
    "cache patch": True,
    "range intermediate patch": True,
}


def _nodes(shape: CubeShape, pure: bool):
    """One ``(level, index)`` per dimension; index 0 throughout if pure."""
    return st.tuples(
        *(
            st.integers(0, depth).flatmap(
                lambda level: st.tuples(
                    st.just(level),
                    st.just(0) if pure else st.integers(0, (1 << level) - 1),
                )
            )
            for depth in shape.depths
        )
    )


def _reframe(partition, coords, deltas) -> list[DeltaBatch]:
    """One shard-local batch per shard, re-framed as ``ShardedSet`` does."""
    axis, extent = partition.axis, partition.shard_extent
    owners = coords[:, axis] // extent
    batches = []
    for shard in range(partition.num_shards):
        rows = owners == shard
        local = coords[rows]
        local[:, axis] %= extent
        batches.append(DeltaBatch(partition.local_shape, local, deltas[rows]))
    return batches


def _turn_over(draw, store: SlabStore, held: dict, value) -> None:
    """Each owner drops some of its arrays and takes on new ones."""
    for label, pure in OWNERS.items():
        held[label][:] = [slot for slot in held[label] if draw(st.booleans())]
        for nodes in draw(st.lists(_nodes(store.shape, pure), max_size=3)):
            element = ElementId(store.shape, nodes)
            size = element.volume
            values = np.array(draw(st.lists(value, min_size=size, max_size=size)))
            values = values.reshape(element.data_shape)
            reference = values.copy()
            with store.lock:
                if label == "cache patch":
                    values = store.adopt(element, values, label)
                else:
                    store.join(label, [(element, values)])
            held[label].append((element, values, reference))


class TestCompiledIndex:
    """One index over signed stored elements and pure warm slots, in the
    monolithic frame and in 2-shard local frames, across bursts between
    which slots die and join: the bytes, the slots counted per owner and
    the additions charged per label equal per-array :func:`patch_array`."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_per_array_patching_across_bursts(self, data):
        draw = data.draw
        sizes = draw(st.lists(st.sampled_from((2, 4, 8)), min_size=1, max_size=3))
        shape = CubeShape(tuple(sizes))
        partition = draw(st.sampled_from((None, CubePartition.for_shape(shape, 2))))
        frames = [shape] if partition is None else [partition.local_shape] * 2
        value = st.one_of(
            st.integers(-50, 50).map(float),
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
        # Per frame: its store and, per owner, ``(element, view, reference)``
        # for each array it holds.
        stores = []
        for frame in frames:
            store, held = SlabStore(frame), {label: [] for label in OWNERS}
            for label in OWNERS:
                store.track(
                    label,
                    lambda held=held[label]: {id(view) for _, view, _ in held},
                )
            stores.append((store, held))
        cell = st.tuples(*(st.integers(0, n - 1) for n in sizes))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(delta, "SLAB_CELLS", draw(st.sampled_from((1, 4, 16, 64))))
            for _ in range(draw(st.integers(1, 3))):
                for store, held in stores:
                    _turn_over(draw, store, held, value)
                rows = draw(st.lists(cell, min_size=1, max_size=8))
                rows += draw(st.lists(st.sampled_from(rows), max_size=4))
                coords = np.array(rows)
                deltas = np.array(
                    draw(st.lists(value, min_size=len(rows), max_size=len(rows)))
                )
                batches = (
                    [DeltaBatch(shape, coords, deltas)]
                    if partition is None
                    else _reframe(partition, coords, deltas)
                )
                for (store, held), batch in zip(stores, batches):
                    counter, expected = OpCounter(), OpCounter()
                    counts = store.patch(batch, counter)
                    for label, slots in held.items():
                        for element, _, reference in slots:
                            patch_array(
                                element, reference, batch, expected, label
                            )
                    assert counts == {
                        label: len(slots) if len(batch) else 0
                        for label, slots in held.items()
                    }
                    assert _charged(counter) == _charged(expected)
                    for slots in held.values():
                        for _, view, reference in slots:
                            assert view.tobytes() == reference.tobytes()



def test_join_writes_through_the_owner_and_never_lifts_a_flag():
    """A read-only array joins through the writeable array it views, and
    stays read-only; one that owns read-only memory is refused."""
    shape = CubeShape((4, 4))
    element = shape.intermediate((1, 0))
    owner = np.arange(8, dtype=np.float64).reshape(element.data_shape)
    handed = owner.view()
    handed.flags.writeable = False
    frozen = np.zeros(element.data_shape)
    frozen.flags.writeable = False
    store = SlabStore(shape)
    store.track("cache patch", lambda: {id(handed), id(frozen)})
    with store.lock:
        store.join("cache patch", [(element, handed)])
        with pytest.raises(ValueError, match="read-only"):
            store.join("cache patch", [(element, frozen)])
    assert not frozen.flags.writeable
    want = handed.copy()
    batch = DeltaBatch(shape, [[2, 3]], [5.0])
    patch_array(element, want, batch)
    store.patch(batch, OpCounter())
    assert handed.tobytes() == want.tobytes()
    assert not handed.flags.writeable
