"""An ingesting server's warm state in slabs: the budget, the memory bound,
and readers racing update bursts — as counts and exact answers.

Once a server has applied an update, the answers it caches and the range
intermediates it assembles are pure partial sums packed into slabs
(:class:`repro.core.delta.SlabStore`); those warmed before the first burst
join as slabs of their own, in place.  The stored elements are signed
slots of the same store.  A burst repairs it through one index compiled
from its live slots — one ``np.add.at`` per buffer — and
:func:`repro.core.delta.patch_array` is the per-array reference only.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import delta
from repro.core.delta import SLAB_CELLS, DeltaBatch, SlabStore
from repro.core.element import CubeShape
from repro.core.materialize import MaterializedSet, compute_element
from repro.core.range_query import RANGE_PATCH, RangeQueryEngine
from repro.cube.hierarchy import view_elements
from repro.replay import seeded_cube
from repro.server import OLAPServer

from .test_slab_store import _Counting

SIZES = (16, 8, 4)
NAMES = ("d0", "d1", "d2")


def _rollups(sizes):
    """Every roll-up level vector of a cube of ``sizes``."""
    depths = [n.bit_length() - 1 for n in sizes]
    grid = np.indices([k + 1 for k in depths]).reshape(len(sizes), -1).T
    return [dict(zip(NAMES, map(int, levels))) for levels in grid]


def _warm(server: OLAPServer) -> None:
    for keep in ([], ["d0"], ["d1", "d2"], list(NAMES)):
        server.view(keep)
    server.rollup_batch(_rollups(SIZES)[:12])
    for ranges in (((1, 15), (0, 7), (1, 3)), ((3, 9), (2, 8), (0, 4))):
        server.range_sum(ranges)


def _burst(server: OLAPServer, seed: int, n: int = 9) -> None:
    rng = np.random.default_rng(seed)
    sizes = server.shape.sizes
    coords = np.stack([rng.integers(0, s, size=n) for s in sizes], axis=1)
    server.update_many(coords, rng.integers(-5, 6, size=n).astype(np.float64))


def _slab_cells(store: SlabStore) -> tuple[int, int]:
    """``(cells of every slab buffer, cells of the slots still live)``."""
    buffers = live = 0
    for label, slabs in store._slabs.items():
        held = store._live[label]()
        for slab in slabs:
            buffers += slab.buffer.size
            live += sum(view.size for view, _ in slab.slots if id(view) in held)
    return buffers, live


def _buffers(*stores: SlabStore) -> int:
    """Distinct buffers of the stores' live slabs."""
    return len(
        {
            slab.buffer.__array_interface__["data"][0]
            for store in stores
            for slabs in store._slabs.values()
            for slab in slabs
        }
    )


class TestBurstBudget:
    def test_one_scatter_per_slab_and_patch_array_only_for_the_rest(
        self, monkeypatch
    ):
        """A burst makes one ``np.add.at`` per distinct buffer of the one
        store the stored set, the range engine and the result cache share
        — each slab of warm answers and intermediates, each stored array —
        and no ``patch_array`` call, on a server's first burst too, where
        what it warmed before joins the slabs as slabs of their own.  A
        second burst over the same slots compiles no index."""
        fresh = OLAPServer(seeded_cube(3, SIZES))
        early = fresh.view(["d0"])
        _warm(fresh)
        server = OLAPServer(seeded_cube(3, SIZES))
        server.view(["d0"])
        _warm(server)
        _burst(server, 1)
        server.reconfigure()  # stores a selection with residual elements
        _warm(server)
        _burst(server, 2)
        _warm(server)
        _warm(server)
        assert any(e.is_residual for e in server.materialized.elements)

        for target, seed in ((fresh, 3), (server, 3)):
            state = target._state
            slabs = state.range_engine.slabs
            storage = target._storage_ids(state)
            patch_calls, compiled = [], []
            original = delta.patch_array
            monkeypatch.setattr(
                delta,
                "patch_array",
                lambda *args, **kwargs: patch_calls.append(args[0])
                or original(*args, **kwargs),
            )
            compile_ = SlabStore._compile
            monkeypatch.setattr(
                SlabStore,
                "_compile",
                lambda self, labels: compiled.append(labels)
                or compile_(self, labels),
            )
            counting = _Counting()
            monkeypatch.setattr(delta, "np", counting)
            patched = target.metrics.counter("server_update_cache_patched_total")
            before = patched.total()
            _burst(target, seed)
            first = counting.calls
            del compiled[:]
            _burst(target, seed + 1)
            monkeypatch.undo()

            # One store: the stored set's, the engine's and the cache's.
            assert slabs is state.materialized.slabs
            assert len(slabs._slabs) == 3
            buffers = _buffers(slabs)
            assert buffers >= len(state.materialized.elements) + 2
            assert first == counting.calls - first == buffers
            assert patch_calls == []
            assert compiled == []
            # Every warm entry is repaired, once per burst.
            assert patched.total() - before == 2 * (
                sum(id(v) not in storage for _, v in state.cache.items())
                + len(state.range_engine._cache)
            )
        # Joined in place: the caller still holds the cached answer.
        assert early is fresh.view(["d0"])
        assert np.array_equal(early, fresh.cube.values.sum(axis=(1, 2), keepdims=True))
        server.close()
        fresh.close()

    def test_a_superseded_state_is_freed_without_the_cycle_collector(self):
        """The engine registers its liveness with the store it owns; a
        strong reference there would keep every superseded engine and its
        intermediates alive until the cyclic collector ran."""
        server = OLAPServer(seeded_cube(3, SIZES))
        _burst(server, 1)
        _warm(server)
        old = weakref.ref(server._state.range_engine)
        enabled = gc.isenabled()
        gc.disable()
        try:
            server.reconfigure()
            assert old() is None
        finally:
            if enabled:
                gc.enable()
        server.close()

    def test_a_read_only_server_adopts_nothing(self, monkeypatch):
        adopted = []
        adopt = SlabStore.adopt
        monkeypatch.setattr(
            SlabStore,
            "adopt",
            lambda self, *args: adopted.append(args[0]) or adopt(self, *args),
        )
        server = OLAPServer(seeded_cube(3, SIZES))
        for _ in range(2):
            _warm(server)
            server.reconfigure()
        assert adopted == []
        assert not server._state.range_engine.slabs.active
        server.close()


class TestSlabMemoryIsBoundedByTheLiveSet:
    def test_misses_over_every_rollup_on_a_small_cache(self):
        """After one update, 2,000 misses over all 140 roll-ups of a
        64x16x8 cube (answers up to 8,192 cells) through a 16-entry cache,
        a power-law mix that keeps popular answers — and the slabs they
        sit in — alive: slab cells stay within the live cells plus one
        slab per entry."""
        sizes = (64, 16, 8)
        server = OLAPServer(seeded_cube(9, sizes), cache_entries=16)
        _burst(server, 4)
        rollups = _rollups(sizes)
        assert len(rollups) == 140
        rng = np.random.default_rng(11)
        weights = 1.0 / np.arange(1, len(rollups) + 1) ** 1.5
        weights /= weights.sum()
        misses = server.metrics.counter("view_cache_misses_total")
        start, worst = misses.total(), 0.0
        while misses.total() - start < 2000:
            server.rollup(rollups[rng.choice(len(rollups), p=weights)])
            buffers, live = _slab_cells(server._state.range_engine.slabs)
            assert buffers <= live + 16 * SLAB_CELLS
            worst = max(worst, buffers - live)
        assert worst > 0  # the bound was exercised, not vacuous
        server.close()


class TestConcurrentReadersAndBursts:
    def test_nothing_stale_survives_the_hammer(self):
        """Readers missing on a 4-entry cache while a writer bursts, with
        more threads than cores and a tiny switch interval: once quiet,
        every cached answer, range intermediate and range read is the
        updated cube's — a reader that cached an overtaken answer would
        leave one stale for good."""
        server = OLAPServer(seeded_cube(3, SIZES), cache_entries=4)
        rollups = _rollups(SIZES)
        errors, stop = [], threading.Event()

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    server.rollup(rollups[int(rng.integers(len(rollups)))])
                    lo = [int(rng.integers(0, n)) for n in SIZES]
                    server.range_sum(
                        tuple((l, int(rng.integers(l + 1, n + 1))) for l, n in zip(lo, SIZES))
                    )
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(f"{type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            for seed in range(120):
                _burst(server, seed, n=3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert server._state.range_engine.slabs.active
        cube = server.cube.values
        for element, values in server._state.cache.items():
            assert values.tobytes() == compute_element(cube, element).tobytes()
        for element, values in server._state.range_engine._cache.items():
            assert values.tobytes() == compute_element(cube, element).tobytes()
        assert server.range_sum(((1, 15), (0, 7), (1, 3))) == cube[1:15, 0:7, 1:3].sum()
        server.close()


# ----------------------------------------------------------------------
# A burst racing a reader


def _racing(monkeypatch, server: OLAPServer, when: str):
    """Make the next assembly race one burst: it lands right before the
    reader assembles (``"looked up"`` — a range query has found its other
    arrays by then), right after it assembled (``"assembled"``) or right
    after it cached the answer (``"cached"``).  Returns ``(fired, cube
    before the burst)``."""
    fired = []
    before = server.cube.values.copy()

    def burst():
        # Two cells: RANGE reads (1, 2) through the warm intermediate and
        # (3, 2) through one it assembles, so a torn range answer shows.
        if not fired:
            fired.append(True)
            server.update_many(np.array([[1, 2], [3, 2]]), [10.0, 10.0])

    def around(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if when == "looked up":
                burst()
            result = original(*args, **kwargs)
            burst()
            return result

        monkeypatch.setattr(owner, name, wrapped)

    if when != "cached":
        around(MaterializedSet, "assemble")
        around(MaterializedSet, "assemble_batch")
    else:
        # After the whole admission, which holds the slab lock a burst
        # must take to begin.
        around(OLAPServer, "_admit")
        around(RangeQueryEngine, "_keep")
    return fired, before


class TestReadersRacingABurst:
    """An ``update_many`` between a reader's read of storage and the cache
    insert used to leave the answer stale for good (a range answering 679
    while the cube summed to 689); now the reader serves it uncached.  One
    landing after the insert finds the answer cached and patches it.  A
    range query that a burst overtakes between its reads resolves again."""

    RANGE = ((1, 7), (0, 5))

    @pytest.mark.parametrize("ingested", [False, True], ids=["fresh", "ingested"])
    @pytest.mark.parametrize("when", ["looked up", "assembled", "cached"])
    @pytest.mark.parametrize("kind", ["range", "view", "batch"])
    def test_answers_are_exact_after_the_race(
        self, kind, when, ingested, monkeypatch
    ):
        server = OLAPServer(seeded_cube(3, (8, 8)))
        if ingested:
            server.update_many(np.array([[0, 0]]), [1.0])
        # One of RANGE's four intermediates warm beforehand: the racing
        # query finds it (and the stored root) and assembles the rest.
        server.range_sum(((1, 2), (0, 4)))
        ask = {
            "range": lambda: server.range_sum(self.RANGE),
            "view": lambda: server.view(["d0"]).ravel().copy(),
            "batch": lambda: server.query_batch([["d1"], ["d0"]])[1].ravel().copy(),
        }[kind]
        truth = {
            "range": lambda cube: cube[1:7, 0:5].sum(),
            "view": lambda cube: cube.sum(axis=1),
            "batch": lambda cube: cube.sum(axis=1),
        }[kind]
        fired, before = _racing(monkeypatch, server, when)
        racing = ask()
        monkeypatch.undo()
        assert fired
        # The racing answer is the cube's on one side of the burst: a view
        # assembled before it is served as it was; one assembled after it,
        # or cached first (the caller holds the cached array, which the
        # burst patched in place), is the updated cube's; and a range query
        # the burst overtook resolves again ...
        after = when != "assembled" or kind == "range"
        assert np.array_equal(
            racing, truth(server.cube.values if after else before)
        )
        # ... and nothing stale was left behind: every later answer, and
        # every answer after a further burst, is the cube's.
        for seed in (None, 5):
            if seed is not None:
                _burst(server, seed)
            assert np.array_equal(ask(), truth(server.cube.values))
        assert server.health()["updates_cache_cleared"] == 0
        server.close()


# ----------------------------------------------------------------------
# Drops between bursts


def _stored(server: OLAPServer) -> list[tuple[MaterializedSet, object]]:
    """``(set, element)`` per stored non-root array: the set's own on one
    shard, each shard's local one on more."""
    sets = getattr(server.materialized, "local_sets", None)
    sets = sets() if sets else (server.materialized,)
    return [(ms, e) for ms in sets for e in ms.elements if not e.is_root]


class TestDropDrivenSweep:
    """Owners report what they let go, and only then is their liveness
    swept: between two bursts an answer evicted from a small result cache,
    the intermediates ``invalidate()`` drops and a quarantined stored
    array each keep their bytes — a caller may hold them — while every
    live slot is patched exactly once."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["1 shard", "2 shards"])
    def test_what_was_dropped_keeps_its_bytes(self, shards):
        server = OLAPServer(seeded_cube(3, SIZES), shards=shards, cache_entries=3)
        server.reconfigure()  # a selection with arrays to quarantine
        _burst(server, 1)
        state = server._state
        evicted = server.view(["d0"])
        for keep in (["d1"], ["d2"], ["d1", "d2"]):
            server.view(keep)
        assert len(state.cache) == 3
        assert view_elements(server.cube, [["d0"]])[0] not in state.cache
        server.range_sum(((1, 15), (0, 7), (1, 3)))
        engine = state.range_engine
        dropped = list(engine._cache.values())
        assert dropped
        engine.invalidate()
        (owner, element), *_ = _stored(server)
        victim = owner._arrays[element]
        owner.quarantine(element)
        kept = [(a, a.copy()) for a in (evicted, *dropped, victim)]
        server.range_sum(((3, 9), (2, 8), (0, 4)))  # warm again after the drop
        patched = server.metrics.counter("server_update_cache_patched_total")
        before = patched.total()

        _burst(server, 2)

        for array, bytes_before in kept:
            assert array.tobytes() == bytes_before.tobytes()
        cube = server.cube.values
        storage = server._storage_ids(state)
        live = [(e, v) for e, v in state.cache.items() if id(v) not in storage]
        live += list(engine._cache.items())
        assert patched.total() - before == len(live)
        for element, values in live:
            assert values.tobytes() == compute_element(cube, element).tobytes()
        for ms, element in _stored(server):
            assert ms.verify(element)
        assert server.range_sum(((0, 16), (0, 8), (0, 4))) == cube.sum()
        assert server.health()["updates_cache_cleared"] == 0
        server.close()


class TestOneStore:
    @pytest.mark.parametrize("order", ["set first", "engine first"])
    def test_a_bare_engine_and_its_set_in_either_order(self, order):
        """An engine built over a monolithic set shares its store; each
        patches a burst once, and whichever comes second reports what the
        first scattered for it — including intermediates assembled before
        the first burst, which join at the engine's call."""
        rng = np.random.default_rng(17)
        cube = rng.integers(0, 50, size=(8, 8)).astype(np.float64)
        shape = CubeShape(cube.shape)
        signed = shape.element(((1, 1), (2, 1)))  # residual steps: signed
        ms = MaterializedSet.from_cube(cube, [shape.root(), signed])
        engine = RangeQueryEngine(ms)
        assert engine.slabs is ms.slabs
        engine.range_sum(((1, 7), (2, 5)))
        for burst in range(3):
            coords = rng.integers(0, 8, size=(6, 2))
            deltas = rng.integers(-5, 6, size=6).astype(np.float64)
            batch = DeltaBatch(ms.shape, coords, deltas)
            np.add.at(cube, tuple(coords.T), deltas)
            if order == "set first":
                ms.apply_updates(batch)
                patched = engine.apply_updates(batch)
            else:
                patched = engine.apply_updates(batch)
                ms.apply_updates(batch)
            assert patched == {RANGE_PATCH: len(engine._cache)}
            arrays = [(e, ms.array(e)) for e in ms.elements]
            for element, values in arrays + list(engine._cache.items()):
                assert values.tobytes() == compute_element(cube, element).tobytes()
            engine.range_sum(((0, 3 + burst), (1, 8)))  # new warm state between bursts
