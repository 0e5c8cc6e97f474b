"""Every answer a server hands out is read-only.

An answer may be storage by reference — a stored array's view, or the base
cube itself (a sharded server's root, the degraded path's) — or warm state
that every burst repairs in place (a range intermediate, a cached answer,
a slab view).  A caller's write into any of them would corrupt what later
answers are read from, so each is read-only from the moment it is handed
out: the write raises :class:`ValueError`, the next answers stay exact,
and the server stays healthy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.replay import Replica, seeded_cube
from repro.server import OLAPServer

SIZES = (16, 8, 4)
#: Odd bounds everywhere: the range reads every level combination up to
#: its own, the (0, 0, 0) root's included.
RANGE = ((1, 15), (1, 7), (1, 3))
VIEWS = [["d0", "d1", "d2"], ["d0"], ["d1", "d2"]]
ROLLUPS = [{}, {"d0": 1}, {"d0": 1, "d1": 1, "d2": 1}, {"d2": 2}]


def _answers(server) -> list[tuple[str, np.ndarray]]:
    """Cold and warm answers of every read kind (the range first, so some
    roll-ups are its intermediates)."""
    server.range_sum(RANGE)
    answers = []
    for _ in range(2):  # cold, then warm
        answers += [(f"view {v}", server.view(v)) for v in VIEWS]
        answers += [(f"rollup {r}", server.rollup(r)) for r in ROLLUPS]
        answers += [("query_batch", a) for a in server.query_batch(VIEWS)]
        answers += [("rollup_batch", a) for a in server.rollup_batch(ROLLUPS)]
    return answers


def _expected(server) -> list[bytes]:
    replica = Replica(server.cube.values)
    want = [replica.view(v) for v in VIEWS] + [replica.rollup(r) for r in ROLLUPS]
    return [w.tobytes() for w in want]


def _served(server) -> list[bytes]:
    got = [server.view(v) for v in VIEWS] + [server.rollup(r) for r in ROLLUPS]
    return [g.tobytes() for g in got]


@pytest.mark.parametrize("shards", [1, 2], ids=["1 shard", "2 shards"])
@pytest.mark.parametrize("ingested", [False, True], ids=["cold", "ingesting"])
def test_a_write_into_an_answer_raises_and_changes_nothing(shards, ingested):
    server = OLAPServer(seeded_cube(5, SIZES), shards=shards)
    if ingested:
        # Slabs in use: answers from here on are adopted slab views.
        server.update_many(np.array([[3, 2, 1]]), [4.0])
    answers = _answers(server)
    for name, answer in answers:
        assert not answer.flags.writeable, name
        with pytest.raises(ValueError):
            answer[(0,) * answer.ndim] += 1e6
    assert _served(server) == _expected(server)
    assert server.range_sum(RANGE) == Replica(server.cube.values).range_sum(RANGE)
    # Bursts still repair what the caller holds, through the slabs.
    server.update_many(np.array([[0, 0, 0], [15, 7, 3]]), [2.0, -3.0])
    assert _served(server) == _expected(server)
    assert server.health()["status"] == "ok"
    assert server.health()["updates_cache_cleared"] == 0
    server.close()


def test_the_degraded_root_is_the_cube_read_only_and_patched_once():
    """With the stored root quarantined, the root's answer is the cube's
    read-only view, also to the range engine: it reads it in place and
    never joins it to its slabs, so a burst lands on the cube once."""
    server = OLAPServer(seeded_cube(5, SIZES))
    want = server.cube.values.copy()
    server.materialized.quarantine(server.shape.root())
    answer = server.view(["d0", "d1", "d2"])
    assert np.shares_memory(answer, server.cube.values)
    with pytest.raises(ValueError):
        answer[0, 0, 0] = 0.0
    assert server.range_sum(RANGE) == Replica(want).range_sum(RANGE)
    server.update_many(np.array([[1, 1, 1]]), [9.0])
    want[1, 1, 1] += 9.0
    assert server.cube.values.tobytes() == want.tobytes()
    assert answer.tobytes() == want.tobytes()
    assert server.range_sum(RANGE) == Replica(want).range_sum(RANGE)
    server.close()


def test_a_stored_target_is_handed_out_as_one_view_the_alias_guard_knows():
    # The first burst keeps every cached entry listed by ``array_refs``
    # out of the slabs; a second view of the same stored array would be
    # joined and patched on top of the set's own repair.
    server = OLAPServer(seeded_cube(5, SIZES))
    root = server.shape.root()
    stored = server.materialized
    first, second = stored.assemble(root), stored.assemble(root)
    assert first is second is stored.array_refs()[root]
    assert np.shares_memory(first, stored.array(root))
    assert not first.flags.writeable and stored.array(root).flags.writeable
    server.close()
