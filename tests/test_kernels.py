"""Fused Haar cascade kernels: bit-identity, release, plan fusion, dispatch.

The fused execution layer (:mod:`repro.core.kernels` + the plan rewrite and
cost-aware dispatch in :mod:`repro.core.exec`) promises three things:

1. **Bit-identity** — a fused cascade performs exactly the same arithmetic,
   in exactly the same order, as the step-by-step operators, for every
   dtype and axis order (property-tested with hypothesis over 1-4 dims).
2. **Exact accounting** — fusion never changes ``planned_cost``, and the
   executor's measured operations equal the plan's price to the last op.
3. **Cost-aware dispatch** — a thread pool is only used when some node is
   worth a round-trip; otherwise the run demotes itself to serial, and the
   decision is observable in the stats dict.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exec as exec_mod
from repro.core.element import CubeShape, ElementId
from repro.core.exec import (
    DISPATCH_THRESHOLD,
    execute_plan,
    fuse_plan,
    plan_batch,
)
from repro.core.kernels import (
    canonical_steps,
    fused_aggregate,
    fused_cascade,
    fused_partial_sum_k,
    fused_synthesize,
)
from repro.core.materialize import MaterializedSet
from repro.core.operators import (
    OpCounter,
    partial_residual,
    partial_sum,
    partial_sum_k,
    synthesize,
)


def naive_cascade(a, steps, counter=None):
    """The reference: one operator call per step."""
    out = np.asarray(a)
    for dim, residual in steps:
        if residual:
            out = partial_residual(out, dim, counter=counter)
        else:
            out = partial_sum(out, dim, counter=counter)
    return out


# Up to 4 dimensions, power-of-two extents, odd axis orders, R1 routes.
@st.composite
def cascade_cases(draw):
    ndim = draw(st.integers(min_value=1, max_value=4))
    depths = [draw(st.integers(min_value=1, max_value=3)) for _ in range(ndim)]
    sizes = tuple(1 << k for k in depths)
    steps = []
    budget = {dim: k for dim, k in enumerate(depths)}
    n_steps = draw(st.integers(min_value=0, max_value=sum(depths)))
    for _ in range(n_steps):
        open_dims = [dim for dim, k in budget.items() if k > 0]
        if not open_dims:
            break
        dim = draw(st.sampled_from(open_dims))
        residual = draw(st.booleans())
        steps.append((dim, residual))
        budget[dim] -= 1
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return sizes, tuple(steps), seed


class TestFusedCascadeBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(case=cascade_cases(), use_float=st.booleans())
    def test_fused_equals_naive(self, case, use_float):
        """Bit-identical (tobytes equality) across dtypes and step orders,
        including arbitrarily interleaved axes and R1 steps."""
        sizes, steps, seed = case
        rng = np.random.default_rng(seed)
        if use_float:
            a = rng.standard_normal(sizes)
        else:
            a = rng.integers(-1000, 1000, size=sizes).astype(np.int64)
        naive_counter = OpCounter()
        fused_counter = OpCounter()
        expected = naive_cascade(a, steps, counter=naive_counter)
        actual = fused_cascade(a, steps, counter=fused_counter)
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        assert fused_counter.total == naive_counter.total
        assert fused_counter.events == naive_counter.events

    @settings(max_examples=30, deadline=None)
    @given(case=cascade_cases())
    def test_fused_with_pool_equals_naive(self, case):
        """A recycled output buffer — ``out=`` full of another answer's
        garbage, as the allocator hands back freed memory — never changes
        the answer."""
        sizes, steps, seed = case
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(sizes)
        expected = naive_cascade(a, steps)
        recycled = np.full(expected.shape, np.nan)
        actual = fused_cascade(a, steps, out=recycled)
        assert actual is (recycled if steps else a)  # an empty chain ignores out
        assert actual.tobytes() == expected.tobytes()

    def test_empty_chain_aliases_input(self, rng):
        a = rng.standard_normal((4, 4))
        assert fused_cascade(a, ()) is a

    def test_noncontiguous_input(self, rng):
        a = rng.standard_normal((8, 8)).T  # Fortran-ordered view
        steps = ((0, False), (1, True), (0, False))
        np.testing.assert_array_equal(
            fused_cascade(a, steps), naive_cascade(a, steps)
        )

    def test_final_step_writes_into_a_strided_out(self, rng):
        """``out=`` takes the last step in place — here the right half of
        a gathered buffer, as a shard leg on the last axis writes it."""
        a = rng.standard_normal((8, 8))
        steps = ((0, False), (1, True), (0, False))
        gathered = np.zeros((2, 8))
        slab = gathered[:, 4:]
        assert fused_cascade(a, steps, out=slab) is slab
        assert slab.tobytes() == naive_cascade(a, steps).tobytes()
        assert not gathered[:, :4].any()
        with pytest.raises(ValueError):
            fused_cascade(a, steps, out=np.empty((4, 4)))

    def test_odd_extent_rejected_with_operator_taxonomy(self, rng):
        a = rng.standard_normal((3, 4))
        with pytest.raises(ValueError, match="even extent"):
            fused_cascade(a, ((0, False),))

    def test_bad_axis_rejected(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="out of bounds"):
            fused_cascade(a, ((2, False),))


class TestFusedEntryPoints:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_partial_sum_k_matches(self, rng, k):
        a = rng.standard_normal((8, 4))
        counter = OpCounter()
        fused = fused_partial_sum_k(a, 0, k, counter=counter)
        reference = OpCounter()
        expected = partial_sum_k(a, 0, k, counter=reference)
        assert fused.tobytes() == expected.tobytes()
        assert counter.total == reference.total

    def test_partial_sum_k_negative_k(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            fused_partial_sum_k(rng.standard_normal((4,)), 0, -1)

    def test_aggregate_matches_nested(self, rng):
        a = rng.standard_normal((8, 4, 2))
        levels = (2, 1, 1)
        expected = a
        for dim, k in enumerate(levels):
            expected = partial_sum_k(expected, dim, k)
        actual = fused_aggregate(a, levels)
        assert actual.tobytes() == expected.tobytes()

    def test_aggregate_validates_levels(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="cascade depths"):
            fused_aggregate(a, (1,))
        with pytest.raises(ValueError, match="non-negative"):
            fused_aggregate(a, (1, -1))

    def test_synthesize_matches(self, rng):
        a = rng.standard_normal((4, 4))
        p, r = partial_sum(a, 1), partial_residual(a, 1)
        counter = OpCounter()
        reference = OpCounter()
        expected = synthesize(p, r, 1, counter=reference)
        actual = fused_synthesize(p, r, 1, counter=counter)
        assert actual.tobytes() == expected.tobytes()
        assert counter.total == reference.total


def all_group_bys(shape: CubeShape):
    d = shape.ndim
    return [
        shape.aggregated_view(agg)
        for k in range(d + 1)
        for agg in combinations(range(d), k)
    ]


def pyramid_from_root(shape: CubeShape, rng) -> MaterializedSet:
    ms = MaterializedSet(shape)
    ms.store(shape.root(), rng.standard_normal(shape.sizes))
    return ms


class TestPlanFusion:
    def test_fusion_preserves_planned_cost_and_targets(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        unfused = plan_batch(targets, ms.elements, fuse=False)
        fused = fuse_plan(unfused)
        assert fused.targets == unfused.targets
        assert fused.planned_cost == unfused.planned_cost
        assert len(fused.nodes) <= len(unfused.nodes)
        assert all(t in fused.nodes for t in targets)

    def test_fusion_collapses_single_target_cascade(self, rng):
        """One deep roll-up from the root is one fused node."""
        shape = CubeShape((16, 16))
        ms = pyramid_from_root(shape, rng)
        target = shape.aggregated_view((0, 1))
        plan = plan_batch([target], ms.elements)
        kinds = [n.kind for n in plan.nodes.values()]
        assert kinds.count("fused") == 1
        assert kinds.count("step") == 0
        (fused_node,) = [n for n in plan.nodes.values() if n.kind == "fused"]
        source = plan.nodes[fused_node.deps[0]].element
        assert fused_node.steps == canonical_steps(source, target)
        assert fused_node.cost == source.volume - target.volume

    def test_shared_interiors_stay_explicit(self, shape_3d, rng):
        """Fusion never absorbs a node with more than one consumer."""
        ms = pyramid_from_root(shape_3d, rng)
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        for node in plan.nodes.values():
            if node.kind != "fused":
                continue
            dep = node.deps[0]
            # The fused run's source survives, and the absorbed interiors
            # are gone — every remaining dep is a real DAG node.
            assert dep in plan.nodes

    def test_fused_topological_order_valid(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        seen = set()
        for key, node in plan.nodes.items():
            assert all(dep in seen for dep in node.deps), key
            seen.add(key)

    @pytest.mark.parametrize("sizes", [(4, 4), (8, 4, 2), (16, 16)])
    def test_fused_execution_bit_identical_to_unfused(self, sizes, rng):
        shape = CubeShape(sizes)
        ms = pyramid_from_root(shape, rng)
        targets = all_group_bys(shape)
        arrays = {e: ms.array(e) for e in ms.elements}
        unfused = plan_batch(targets, ms.elements, fuse=False)
        fused = plan_batch(targets, ms.elements, fuse=True)
        unfused_counter = OpCounter()
        fused_counter = OpCounter()
        expected = execute_plan(unfused, arrays, counter=unfused_counter)
        actual = execute_plan(fused, arrays, counter=fused_counter)
        for target in targets:
            assert actual[target].tobytes() == expected[target].tobytes()
        assert fused_counter.total == unfused_counter.total

    def test_planned_equals_measured_after_fusion(self, shape_3d, rng):
        """The satellite acceptance: planned op count == measured op count
        on the fused plan, exactly."""
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        assert any(n.kind == "fused" for n in plan.nodes.values())
        counter = OpCounter()
        execute_plan(plan, {e: ms.array(e) for e in ms.elements}, counter=counter)
        assert counter.total == plan.planned_cost

    def test_fusion_keeps_target_interiors(self, rng):
        """An interior of one cascade that is itself a target must remain
        a published node after fusion."""
        shape = CubeShape((16,))
        ms = pyramid_from_root(shape, rng)
        deep = shape.aggregated_view((0,))
        mid = ElementId(shape, ((2, 0),))
        plan = plan_batch([deep, mid], ms.elements)
        assert mid in plan.nodes
        arrays = {e: ms.array(e) for e in ms.elements}
        results = execute_plan(plan, arrays)
        np.testing.assert_array_equal(results[mid], ms.assemble(mid))
        np.testing.assert_array_equal(results[deep], ms.assemble(deep))


class TestCostAwareDispatch:
    def test_small_plan_demotes_to_serial(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        assert max(n.cost for n in plan.nodes.values()) < DISPATCH_THRESHOLD
        stats: dict = {}
        execute_plan(
            plan,
            {e: ms.array(e) for e in ms.elements},
            max_workers=4,
            stats=stats,
        )
        assert stats["demoted"] is True
        assert stats["workers_requested"] == 4
        assert stats["workers_effective"] == 1
        assert stats["dispatch_threshold"] == DISPATCH_THRESHOLD

    def test_zero_threshold_keeps_workers(self, shape_3d, rng, monkeypatch):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        monkeypatch.setattr(exec_mod, "DISPATCH_THRESHOLD", 0)
        stats: dict = {}
        results = execute_plan(
            plan,
            {e: ms.array(e) for e in ms.elements},
            max_workers=2,
            stats=stats,
        )
        assert stats["demoted"] is False
        assert stats["workers_effective"] == 2
        for target in targets:
            np.testing.assert_array_equal(results[target], ms.assemble(target))

    def test_mixed_inline_and_pooled_bit_identical(self, rng, monkeypatch):
        """With the threshold between node sizes, small nodes run inline
        and large ones on the pool — answers unchanged, accounting exact."""
        shape = CubeShape((16, 16))
        ms = pyramid_from_root(shape, rng)
        targets = all_group_bys(shape)
        plan = plan_batch(targets, ms.elements)
        costs = sorted({n.cost for n in plan.nodes.values() if n.cost})
        threshold = costs[len(costs) // 2]
        monkeypatch.setattr(exec_mod, "DISPATCH_THRESHOLD", threshold)
        counter = OpCounter()
        stats: dict = {}
        results = execute_plan(
            plan,
            {e: ms.array(e) for e in ms.elements},
            counter=counter,
            max_workers=2,
            stats=stats,
        )
        assert stats["demoted"] is False
        assert counter.total == plan.planned_cost
        for target in targets:
            np.testing.assert_array_equal(results[target], ms.assemble(target))
