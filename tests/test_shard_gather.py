"""Shard legs write their answers in place: exactness, aliasing and budget.

:meth:`repro.shard.ShardedSet.assemble_batch` takes one buffer per gathered
element before the scatter, and each leg writes its local targets straight
into its own slab of it (``execute_plan(out=...)``); the gather is the
cross-shard merge only.  Checked here: answers stay bit-identical to a
monolithic :class:`~repro.core.materialize.MaterializedSet` on every path
that fills a slab (kernel ``out=``, stored and strided-synthesis copies,
the degraded base-slab path, a retried leg), never alias storage, and cost
one buffer per gathered element with no copies between buffers — and,
under glibc, freed answers do not make the next batch re-fault its pages.
The one exception is the root while the set holds it: the base cube, by
reference, read-only, with no buffer and no copy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import CubeShape, ElementId
from repro.core.kernels import pin_allocator_thresholds
from repro.core.materialize import MaterializedSet
from repro.replay import seeded_cube
from repro.resilience import retry
from repro.resilience.faults import FaultInjector, FaultRule
from repro.server import OLAPServer
from repro.shard import CubePartition, ShardedSet

SRC = Path(__file__).resolve().parents[1] / "src"


def _element(shape: CubeShape, **nodes) -> ElementId:
    """``nodes`` by dimension index: ``_element(shape, d0=(1, 0))``."""
    return ElementId(
        shape,
        tuple(nodes.get(f"d{m}", (0, 0)) for m in range(shape.ndim)),
    )


@st.composite
def _cases(draw):
    # Up to 32^3 cells: gathered buffers of a few hundred KiB.
    sizes = tuple(draw(st.lists(st.sampled_from((8, 16, 32)), min_size=3, max_size=3)))
    return {
        "sizes": sizes,
        "axis": draw(st.sampled_from((0, 2))),  # contiguous / strided slabs
        "shards": draw(st.sampled_from((1, 2, 4))),
        "redundant": draw(st.booleans()),
        "quarantine": draw(st.none() | st.integers(0, 3)),
        "fault_after": draw(st.none() | st.integers(0, 6)),
        "workers": draw(st.sampled_from((1, 2))),
        "seed": draw(st.integers(0, 1000)),
    }


class TestInPlaceGather:
    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_bit_identical_to_monolith_and_never_aliases_storage(self, case):
        shape = CubeShape(case["sizes"])
        axis, shards = case["axis"], case["shards"]
        values = (
            np.random.default_rng(case["seed"])
            .integers(0, 100, size=shape.sizes)
            .astype(np.float64)
        )
        part = CubePartition(shape, shards, axis)
        others = [m for m in range(3) if m != axis]
        o1, o2 = (f"d{m}" for m in others)
        # ``synth`` is two levels deep: stored children make synthesis
        # cheaper than aggregating it from the root.
        synth = _element(shape, **{o1: (1, 0), o2: (1, 0)})
        children = [_element(shape, **{o1: (2, j), o2: (1, 0)}) for j in (0, 1)]
        mono = MaterializedSet(shape)
        mono.store(shape.root(), values)
        sharded = ShardedSet(part, base_values=values)
        sharded.store(shape.root(), values)
        if case["redundant"]:
            for child in children:
                mono.store(child, mono.assemble(child))
                sharded.store(child, mono.array(child))

        w, depth = part.shard_depth, shape.depths[axis]
        d_axis = f"d{axis}"
        targets = [
            shape.root(),
            synth,
            *children,
            shape.aggregated_view((axis,)),  # merge steps when shards > 1
            shape.aggregated_view(tuple(others)),
            _element(shape, **{d_axis: (depth, 1), o2: (1, 1)}),
        ]
        if w < depth:
            # Two global targets sharing one gathered element (w >= 1 here):
            # the first is that buffer, the second a merge out of it.
            targets += [
                _element(shape, **{d_axis: (w, 1), o1: (1, 0)}),
                _element(shape, **{d_axis: (w + 1, 3), o1: (1, 0)}),
            ]
            assert part.gathered_element(targets[-1]) == targets[-2]
        expected = mono.assemble_batch(targets)

        s = case["quarantine"]
        if s is not None and s < shards:
            sharded.local_sets()[s].quarantine(part.project(shape.root()))
        rules = []
        if case["fault_after"] is not None:
            rules.append(
                FaultRule(
                    site="exec.compute_node",
                    kind="error",
                    start_after=case["fault_after"],
                    max_fires=1,
                )
            )
        with pytest.MonkeyPatch.context() as patch, FaultInjector(
            rules, seed=case["seed"]
        ).activate():
            patch.setattr(retry, "BACKOFF_MS", 0.0)
            actual = sharded.assemble_batch(targets, max_workers=case["workers"])
        if s is not None and s < shards:
            assert sharded.last_scatter_stats["degraded_shards"] == [s]

        storage = [values] + [
            a for ms in sharded.local_sets() for a in ms.array_refs().values()
        ]
        held = s is None or s >= shards
        assert list(actual) == list(expected)
        for target, answer in actual.items():
            assert answer.tobytes() == expected[target].tobytes(), target
            if target == shape.root() and held:
                # The set holds the root: the base cube itself, read-only.
                assert answer is sharded.base
                assert not answer.flags.writeable
            else:
                assert not any(np.shares_memory(answer, a) for a in storage)
        sharded.assemble_batch(targets, max_workers=case["workers"])
        for target, answer in actual.items():
            assert answer.tobytes() == expected[target].tobytes(), target


class TestGatherBudget:
    """Counts, in the style of ``TestBurstBudget``: a 2-shard roll-up batch
    allocates one buffer per gathered element (legs allocate nothing) and
    copies only stored reads."""

    SIZES = (32, 8, 4)  # shard axis d0: two slabs of 16, no merge below level 5

    @staticmethod
    def _counting(monkeypatch, server):
        takes = {"legs": 0, "gather": 0}
        empty = np.empty

        def counted(*args, **kwargs):
            # The gather's buffers are taken in shard/sets.py; anything a
            # leg allocates comes from the executor or the kernels.
            caller = sys._getframe(1).f_code.co_filename
            takes["gather" if caller.endswith("sets.py") else "legs"] += 1
            return empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", counted)
        copied = []
        copyto = np.copyto
        monkeypatch.setattr(
            np,
            "copyto",
            lambda dst, src, **kw: copied.append(dst.size) or copyto(dst, src, **kw),
        )
        return takes, copied

    def test_one_buffer_per_gathered_element_and_no_copies(self, monkeypatch):
        server = OLAPServer(seeded_cube(3, self.SIZES), shards=2, cache_cells=1)
        levels = [
            {"d0": 1}, {"d1": 1}, {"d2": 1}, {"d0": 1, "d1": 1}, {"d1": 2},
        ]
        server.rollup_batch(levels)  # plans and pools warm
        takes, copied = self._counting(monkeypatch, server)
        answers = server.rollup_batch(levels)
        monkeypatch.undo()
        assert takes == {"legs": 0, "gather": len(levels)}
        assert copied == []
        # Each answer is a read-only view of a whole buffer of its own.
        assert all(
            not answer.flags.writeable
            and answer.base.base is None
            and answer.base.shape == answer.shape
            for answer in answers
        )

    def test_a_root_target_takes_no_buffer_and_no_copy(self, monkeypatch):
        server = OLAPServer(seeded_cube(3, self.SIZES), shards=2, cache_cells=1)
        server.rollup_batch([{}])
        takes, copied = self._counting(monkeypatch, server)
        (root,) = server.rollup_batch([{}])
        monkeypatch.undo()
        assert takes == {"legs": 0, "gather": 0}
        assert copied == []
        assert np.shares_memory(root, server.cube.values)
        assert root.tobytes() == server.cube.values.tobytes()

    @pytest.mark.skipif(
        not pin_allocator_thresholds(), reason="the allocator pin is glibc's"
    )
    def test_freed_answers_do_not_refault_the_next_batch(self):
        """Twenty 2-shard batches of 4-8 MiB answers, each freeing the
        last batch's, in a fresh process: under glibc's dynamic thresholds
        those frees trim the heap and every other batch re-faults ~3,500
        pages; pinned, a batch takes a handful of minor faults."""
        script = """
import resource
from repro.replay import seeded_cube
from repro.server import OLAPServer
server = OLAPServer(seeded_cube(1, (256, 128, 64)), shards=2, cache_cells=1)
levels = [{"d0": 1}, {"d1": 1}, {"d2": 1}, {"d0": 2}, {"d1": 2}, {"d2": 2},
          {"d0": 1, "d1": 1}, {"d0": 1, "d2": 1}, {"d1": 1, "d2": 1}]
for _ in range(3):
    result = server.rollup_batch(levels)
assert min(a.nbytes for a in result) >= 4 << 20
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    result = server.rollup_batch(levels)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        faults = int(run.stdout.split()[-1])
        assert faults < 20 * 50, faults

    @pytest.mark.skipif(
        not pin_allocator_thresholds(), reason="the allocator pin is glibc's"
    )
    def test_threads_allocate_from_one_arena_once_pinned(self):
        """Three threads allocating and freeing 2 MiB arrays, in a fresh
        process: glibc gives each an arena of its own (4 in all) unless
        the pin caps them at one."""
        script = """
import ctypes, threading
import numpy as np
from repro.core.kernels import pin_allocator_thresholds
assert pin_allocator_thresholds()
def churn():
    for _ in range(50):
        a, b = np.ones(1 << 18), np.ones(1 << 18)
        del a, b
threads = [threading.Thread(target=churn) for _ in range(3)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
ctypes.CDLL(None).malloc_stats()
"""
        env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1"}
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        arenas = [line for line in run.stderr.splitlines() if line.startswith("Arena")]
        assert len(arenas) == 1, run.stderr


class TestHeldRoot:
    """A 2-shard server's root is the base cube it holds: never gathered
    into a second copy, by reference, until a shard's slab of it is
    quarantined."""

    SIZES = (32, 8, 4)
    #: Odd bounds everywhere: the range reads the (0, 0, 0) combination.
    RANGE = ((1, 31), (1, 7), (1, 3))

    def test_full_cube_reads_share_the_base_cube(self, monkeypatch):
        server = OLAPServer(seeded_cube(3, self.SIZES), shards=2)
        values = server.cube.values
        engine = server._state.range_engine
        inner = values[1:31, 1:7, 1:3].sum()
        assert server.range_sum(self.RANGE) == inner
        assert server.range_sum(self.RANGE) == inner
        takes, copied = TestGatherBudget._counting(monkeypatch, server)
        view = server.view(["d0", "d1", "d2"])
        (rolled,) = server.rollup_batch([{}])
        monkeypatch.undo()
        assert takes["gather"] == 0 and copied == []
        assert server.shape.root() not in engine._cache
        for answer in (view, rolled):
            assert np.shares_memory(answer, values)
            assert answer.tobytes() == values.tobytes()
        # The server's patch of the cube is the root's: nothing else
        # repairs it, and the range reads it current.
        server.update_many(np.array([[2, 3, 1], [0, 0, 0]]), [5.0, 7.0])
        assert server.range_sum(self.RANGE) == inner + 5.0
        assert view.tobytes() == values.tobytes()
        assert not view.flags.writeable and not rolled.flags.writeable
        assert server.shape.root() not in engine._cache
        health = server.health()
        assert health["status"] == "ok" and health["degraded_serves"] == 0
        server.close()

    def test_a_quarantined_root_slab_gathers_the_root_again(self):
        server = OLAPServer(seeded_cube(3, self.SIZES), shards=2)
        sharded, root = server.materialized, server.shape.root()
        assert root in sharded
        sharded.local_sets()[1].quarantine(sharded.partition.project(root))
        assert root not in sharded and sharded.array_refs() == {}
        (rolled,) = server.rollup_batch([{}])
        assert sharded.last_scatter_stats["degraded_shards"] == [1]
        assert not np.shares_memory(rolled, server.cube.values)
        assert rolled.tobytes() == server.cube.values.tobytes()
        assert server.health()["degraded_serves"] == 1
        server.close()
