"""A result-cache miss the range engine can answer is served from its copy.

A roll-up or aggregated view is a pure partial sum, so it is the range
intermediate of its level vector (range extraction commutes with ``P1``,
PAPER §6).  When the range engine already holds that intermediate, a miss
in the result cache hands out the engine's array as it is: no assembly, no
scalar operation, no second copy in the result cache for every burst to
repair again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.materialize import MaterializedSet, compute_element
from repro.replay import seeded_cube
from repro.server import OLAPServer
from repro.shard.sets import ShardedSet

SIZES = (16, 8, 4)
#: Full along d0 and d1, one cell along d2: its one level combination is
#: (4, 3, 0), the view retaining ``d2``.
VIEW_RANGE = ((0, 16), (0, 8), (1, 2))
#: One block of 4 x 2 x 1 cells: level combination (2, 1, 0), the roll-up
#: ``{"d0": 2, "d1": 1}``.
ROLLUP_RANGE = ((4, 8), (2, 4), (3, 4))


def _assemblies(monkeypatch, owner) -> list:
    """Record the targets of every assembly ``owner`` runs, per call (a
    single target is a batch of one, so every assembly is a batch)."""
    calls = []
    original = owner.assemble_batch

    def wrapped(self, targets, *args, **kwargs):
        calls.append(list(targets))
        return original(self, targets, *args, **kwargs)

    monkeypatch.setattr(owner, "assemble_batch", wrapped)
    return calls


class TestServedAsItIs:
    def test_a_view_and_a_rollup_the_engine_holds(self, monkeypatch):
        server = OLAPServer(seeded_cube(4, SIZES))
        cube = server.cube.values
        server.range_sum(VIEW_RANGE)
        server.range_sum(ROLLUP_RANGE)
        engine = server._state.range_engine
        view = server.shape.intermediate((4, 3, 0))
        rollup = server.shape.intermediate((2, 1, 0))
        assert view in engine._cache and rollup in engine._cache
        calls = _assemblies(monkeypatch, MaterializedSet)
        operations = server.stats.operations

        got_view = server.view(["d2"])
        got_rollup = server.rollup({"d0": 2, "d1": 1})

        assert got_view is engine._cache[view]
        assert got_rollup is engine._cache[rollup]
        assert calls == [] and server.stats.operations == operations
        assert got_view.tobytes() == compute_element(cube, view).tobytes()
        assert got_rollup.tobytes() == compute_element(cube, rollup).tobytes()
        # Not cached a second time, and counted.
        assert len(server._state.cache) == 0
        assert server.health()["cache_warm_reads"] == 2
        span = server.tracer.spans("server.query")[-1]
        assert span.attributes["cache_hits"] == 1
        server.close()

    def test_a_batch_plans_only_what_nothing_holds(self, monkeypatch):
        server = OLAPServer(seeded_cube(4, SIZES))
        server.range_sum(VIEW_RANGE)
        warm = server._state.range_engine._cache[server.shape.intermediate((4, 3, 0))]
        calls = _assemblies(monkeypatch, MaterializedSet)
        answers = server.query_batch([["d2"], ["d0"], ["d2"]])
        assert calls == [[server.shape.aggregated_view([1, 2])]]
        assert answers[0] is answers[2] is warm
        cube = server.cube.values
        assert np.array_equal(answers[1], cube.sum(axis=(1, 2), keepdims=True))
        span = server.tracer.spans("server.query_batch")[-1]
        assert (span.attributes["cache_hits"], span.attributes["assembled"]) == (1, 1)
        server.close()

    def test_a_sharded_server_serves_the_gathered_copy_without_a_scatter(
        self, monkeypatch
    ):
        server = OLAPServer(seeded_cube(4, SIZES), shards=2)
        server.range_sum(ROLLUP_RANGE)
        rollup = server.shape.intermediate((2, 1, 0))
        calls = _assemblies(monkeypatch, ShardedSet)
        got = server.rollup_batch([{"d0": 2, "d1": 1}])[0]
        assert calls == []
        assert got is server._state.range_engine._cache[rollup]
        assert got.tobytes() == compute_element(server.cube.values, rollup).tobytes()
        server.close()

    def test_a_reconfigure_starts_from_the_new_engine(self, monkeypatch):
        server = OLAPServer(seeded_cube(4, SIZES))
        server.view(["d1"])
        server.range_sum(VIEW_RANGE)
        server.reconfigure()
        calls = _assemblies(monkeypatch, MaterializedSet)
        server.view(["d2"])
        assert calls == [[server.shape.intermediate((4, 3, 0))]]
        server.close()


class TestOneCopyPerBurst:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_the_warm_answer_is_repaired_once_and_stays_exact(self, shards):
        """Before, the view was cached a second time and every burst
        patched both copies.  Now the burst patches the engine's one copy,
        and the caller holding it sees the update."""
        server = OLAPServer(seeded_cube(4, SIZES), shards=shards)
        server.range_sum(VIEW_RANGE)
        held = server.view(["d2"])
        server.view(["d0"])  # one ordinary cache entry beside it
        state = server._state
        storage = server._storage_ids(state)
        entries = sum(id(v) not in storage for _, v in state.cache.items())
        assert entries == 1
        patched = server.metrics.counter("server_update_cache_patched_total")
        before = patched.total()
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            coords = np.stack([rng.integers(0, n, size=5) for n in SIZES], axis=1)
            server.update_many(coords, rng.integers(-4, 5, size=5).astype(np.float64))
        intermediates = len(state.range_engine._cache)
        assert patched.total() - before == 2 * (entries + intermediates)
        view = server.shape.intermediate((4, 3, 0))
        assert held.tobytes() == compute_element(server.cube.values, view).tobytes()
        assert server.view(["d2"]) is held
        assert server.health()["updates_cache_cleared"] == 0
        server.close()
