"""Freed temporaries go straight back to the allocator.

No buffer pool keeps scratch between nodes or batches: the executor drops
its only reference to an interior once the interior's last consumer has
run, a fused cascade frees each interior when the next step has read it,
and an assembled batch leaves nothing behind in either set type.  What
recycles the memory is the allocator, pinned by every
:class:`~repro.core.materialize.MaterializedSet` — checked here in a fresh
process.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.core import exec as exec_mod
from repro.core.element import CubeShape
from repro.core.exec import execute_plan, plan_batch
from repro.core.kernels import fused_cascade
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter, partial_residual, partial_sum
from repro.shard import CubePartition, ShardedSet

SRC = Path(__file__).resolve().parents[1] / "src"


def group_bys(shape: CubeShape):
    return [
        shape.aggregated_view(agg)
        for k in range(shape.ndim + 1)
        for agg in combinations(range(shape.ndim), k)
    ]


def _track_allocations(monkeypatch) -> list:
    """Weak references to every array the program allocates from here on:
    ``np.empty`` buffers (kernel interiors, gather buffers) and whatever
    an executor node computes (``partial_sum`` without ``out=`` allocates
    inside numpy)."""
    born: list = []
    empty, compute = np.empty, exec_mod._compute_node

    def tracked_empty(*args, **kwargs):
        array = empty(*args, **kwargs)
        born.append(weakref.ref(array))
        return array

    def tracked_compute(*args, **kwargs):
        values = compute(*args, **kwargs)
        born.append(weakref.ref(values))
        return values

    monkeypatch.setattr(np, "empty", tracked_empty)
    monkeypatch.setattr(exec_mod, "_compute_node", tracked_compute)
    return born


class TestExecutorRelease:
    @pytest.mark.parametrize("workers, mixed", [(1, False), (2, False), (2, True)])
    def test_interior_dies_once_its_last_consumer_has_run(
        self, monkeypatch, workers, mixed
    ):
        """Before any node runs, every interior whose consumers have all
        completed (they are among the node's ancestors) is already dead —
        on the serial loop and on the thread scheduler, where ``mixed``
        runs the smaller half of the nodes inline."""
        shape = CubeShape((16, 8, 8))
        ms = MaterializedSet(shape)
        ms.store(shape.root(), np.random.default_rng(3).standard_normal(shape.sizes))
        targets = group_bys(shape)
        # Unfused, every cascade step is its own node: many interiors.
        plan = plan_batch(targets, ms.elements, fuse=False)
        program = plan.program
        ancestors: list[set] = []
        for ins in program:
            below = set(ins.inputs)
            for slot in ins.inputs:
                below |= ancestors[slot]
            ancestors.append(below)
        costs = sorted({ins.cost for ins in program if ins.cost})
        threshold = costs[len(costs) // 2] if mixed else 0
        interiors = [s for s, n in enumerate(plan.refcounts) if n]
        assert interiors
        refs: dict[int, weakref.ref] = {}
        checked = []
        compute = exec_mod._compute_node

        def watched(ins, slots, counter, dst):
            for slot, ref in list(refs.items()):
                if set(plan.dependents[slot]) <= ancestors[ins.out]:
                    assert ref() is None, f"interior {slot} outlived its consumers"
                    checked.append(slot)
            values = compute(ins, slots, counter, dst)
            if plan.refcounts[ins.out]:
                refs[ins.out] = weakref.ref(values)
            return values

        monkeypatch.setattr(exec_mod, "_compute_node", watched)
        arrays = {e: ms.array(e) for e in ms.elements}
        stats: dict = {}
        results = execute_plan(
            plan, arrays, max_workers=workers, dispatch_threshold=threshold,
            stats=stats,
        )
        assert stats["workers_effective"] == workers
        assert checked
        assert set(refs) == set(interiors)
        assert all(ref() is None for ref in refs.values())
        for target in targets:
            np.testing.assert_array_equal(results[target], ms.assemble(target))


class TestNothingLeftBehind:
    SIZES = (32, 16, 8)

    def _values(self):
        return np.random.default_rng(5).integers(0, 100, self.SIZES).astype(float)

    def _targets(self, shape):
        return group_bys(shape) + [shape.intermediate((2, 1, 1))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_materialized_set_keeps_no_interior(self, monkeypatch, workers):
        shape = CubeShape(self.SIZES)
        ms = MaterializedSet(shape)
        ms.store(shape.root(), self._values())
        born = _track_allocations(monkeypatch)
        results = ms.assemble_batch(self._targets(shape), max_workers=workers)
        self._assert_only_answers_live(born, results)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_sharded_set_keeps_no_interior(self, monkeypatch, workers, axis):
        shape = CubeShape(self.SIZES)
        values = self._values()
        sharded = ShardedSet(CubePartition(shape, 2, axis), base_values=values)
        sharded.store(shape.root(), values)
        born = _track_allocations(monkeypatch)
        results = sharded.assemble_batch(self._targets(shape), max_workers=workers)
        self._assert_only_answers_live(born, results)

    @staticmethod
    def _assert_only_answers_live(born, results):
        assert born
        answers = list(results.values())
        for ref in born:
            live = ref()
            if live is not None:
                assert any(np.shares_memory(live, a) for a in answers)


class TestFusedCascadeRelease:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_k_steps_equal_the_operators_and_hold_two_arrays(
        self, monkeypatch, k, dtype
    ):
        """Bit-identical to ``k`` step-by-step operator calls, and when a
        step allocates, at most one earlier interior is still alive."""
        rng = np.random.default_rng(k)
        a = (rng.standard_normal((16, 16)) * 100).astype(dtype)
        steps = [(i % 2, bool(i % 3 == 1)) for i in range(k)]
        expected = a
        for dim, residual in steps:
            expected = (partial_residual if residual else partial_sum)(expected, dim)

        born: list = []
        empty = np.empty

        def counted(*args, **kwargs):
            alive = sum(ref() is not None for ref in born)
            assert alive <= 1, f"{alive} interiors alive at an allocation"
            array = empty(*args, **kwargs)
            born.append(weakref.ref(array))
            return array

        monkeypatch.setattr(np, "empty", counted)
        counter = OpCounter()
        actual = fused_cascade(a, steps, counter=counter)
        monkeypatch.undo()
        assert len(born) == k
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
        assert counter.total == sum(
            a.size >> (i + 1) for i in range(k)
        )
        assert sum(ref() is not None for ref in born) == 1  # the answer


def test_building_a_set_pins_the_allocator():
    """A process that only builds a MaterializedSet has the glibc
    thresholds pinned — the allocator is what recycles freed buffers."""
    script = """
import numpy as np
from repro.core.element import CubeShape
from repro.core.kernels import pin_allocator_thresholds
from repro.core.materialize import MaterializedSet
assert pin_allocator_thresholds.cache_info().currsize == 0
MaterializedSet(CubeShape((4, 4)))
assert pin_allocator_thresholds.cache_info().currsize == 1
print(pin_allocator_thresholds())
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    glibc = platform.libc_ver()[0] == "glibc"
    assert run.stdout.split()[-1] == str(glibc)
