"""Shared-plan batch assembly: planner (CSE DAG) + executor.

The batch planner merges the per-target assembly routes of
:mod:`repro.core.planning` into one DAG with common-subexpression
elimination, and the executor runs it serially or on a thread pool.  The
contract under test: answers are *bit-identical* to sequential
:meth:`MaterializedSet.assemble` calls, the operation counter is exact
(``counter.total == plan.planned_cost``), and for workloads with shared
structure (the 2^d group-by views) the shared plan performs *strictly
fewer* scalar operations than the per-view assembles combined.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.exec import BatchPlan, execute_plan, plan_batch
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.population import QueryPopulation
from repro.core.bases import wavelet_basis
from repro.core.select_basis import select_minimum_cost_basis


def all_group_bys(shape: CubeShape):
    """The 2^d group-by views (every subset of dimensions aggregated)."""
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


class TestPlanBatch:
    def test_stored_targets_cost_nothing(self, shape_4x4, rng):
        ms = pyramid_from_root(shape_4x4, rng)
        plan = plan_batch([shape_4x4.root()], ms.elements)
        assert plan.planned_cost == 0
        assert all(node.kind == "stored" for node in plan.nodes.values())

    def test_deps_precede_consumers(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        seen = set()
        for key, node in plan.nodes.items():
            assert all(dep in seen for dep in node.deps), key
            seen.add(key)

    def test_single_target_matches_generation_cost(self, shape_3d, rng):
        """Cascade decomposition is cost-neutral for one target."""
        from repro.core.select_redundant import generation_cost

        ms = pyramid_from_root(shape_3d, rng)
        for target in all_group_bys(shape_3d):
            plan = plan_batch([target], ms.elements)
            assert plan.planned_cost == generation_cost(target, ms.elements)

    def test_incomplete_selection_raises(self, shape_4x4, rng):
        ms = MaterializedSet(shape_4x4)
        # Only a strict descendant stored: the root is unreachable.
        ms.store(shape_4x4.aggregated_view([0]), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="not complete"):
            plan_batch([shape_4x4.root()], ms.elements)

    def test_shape_mismatch_rejected(self, shape_2x2, shape_4x4, rng):
        ms = pyramid_from_root(shape_4x4, rng)
        with pytest.raises(ValueError, match="different cube shape"):
            ms.assemble_batch([shape_2x2.root()])
        with pytest.raises(ValueError, match="different cube shapes"):
            plan_batch([shape_2x2.root(), shape_4x4.root()], ms.elements)

    def test_cse_hits_on_shared_prefix(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        assert plan.cse_hits > 0
        assert plan.planned_cost < plan.naive_cost


class TestBatchVsSequential:
    @pytest.mark.parametrize("sizes", [(2, 2), (4, 4), (8, 4, 2)])
    def test_group_by_batch_strictly_cheaper_and_bit_identical(self, sizes, rng):
        """The acceptance criterion: over the 2^d group-bys, the shared plan
        performs strictly fewer scalar operations than the per-view
        assembles combined, with bit-identical answers."""
        shape = CubeShape(sizes)
        ms = pyramid_from_root(shape, rng)
        targets = all_group_bys(shape)

        seq_counter = OpCounter()
        expected = {t: ms.assemble(t, counter=seq_counter) for t in targets}
        batch_counter = OpCounter()
        actual = ms.assemble_batch(targets, counter=batch_counter)

        assert set(actual) == set(targets)
        for target in targets:
            np.testing.assert_array_equal(actual[target], expected[target])
        assert batch_counter.total < seq_counter.total

    def test_counter_matches_planned_cost(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        counter = OpCounter()
        ms.assemble_batch(targets, counter=counter)
        assert counter.total == plan.planned_cost

    def test_wavelet_basis_bit_identical(self, shape_3d, rng):
        """Synthesis-heavy routes (residual elements stored) stay exact."""
        ms = MaterializedSet.from_cube(
            rng.standard_normal(shape_3d.sizes), wavelet_basis(shape_3d)
        )
        targets = all_group_bys(shape_3d)
        expected = {t: ms.assemble(t) for t in targets}
        actual = ms.assemble_batch(targets)
        for target in targets:
            np.testing.assert_array_equal(actual[target], expected[target])

    def test_algorithm1_basis_bit_identical(self, shape_3d, rng):
        population = QueryPopulation.random_over_views(shape_3d, rng)
        selection = select_minimum_cost_basis(shape_3d, population)
        ms = MaterializedSet.from_cube(
            rng.standard_normal(shape_3d.sizes), list(selection.elements)
        )
        targets = [query for query, f in population if f > 0]
        seq_counter = OpCounter()
        expected = {t: ms.assemble(t, counter=seq_counter) for t in targets}
        batch_counter = OpCounter()
        actual = ms.assemble_batch(targets, counter=batch_counter)
        for target in targets:
            np.testing.assert_array_equal(actual[target], expected[target])
        assert batch_counter.total <= seq_counter.total

    def test_duplicate_and_stored_targets(self, shape_4x4, rng):
        ms = pyramid_from_root(shape_4x4, rng)
        targets = all_group_bys(shape_4x4)
        batch = targets[:2] + targets[:2] + [shape_4x4.root()]
        results = ms.assemble_batch(batch)
        for target in batch:
            np.testing.assert_array_equal(results[target], ms.assemble(target))

    def test_empty_batch(self, shape_4x4, rng):
        ms = pyramid_from_root(shape_4x4, rng)
        assert ms.assemble_batch([]) == {}


class TestThreadedExecution:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_equals_serial(self, shape_3d, rng, workers):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        serial_counter = OpCounter()
        serial = ms.assemble_batch(targets, counter=serial_counter)
        threaded_counter = OpCounter()
        threaded = ms.assemble_batch(
            targets, counter=threaded_counter, max_workers=workers
        )
        for target in targets:
            np.testing.assert_array_equal(serial[target], threaded[target])
        assert threaded_counter.total == serial_counter.total

    def test_threaded_synthesis_routes(self, shape_3d, rng):
        ms = MaterializedSet.from_cube(
            rng.standard_normal(shape_3d.sizes), wavelet_basis(shape_3d)
        )
        targets = all_group_bys(shape_3d)
        serial = ms.assemble_batch(targets)
        threaded = ms.assemble_batch(targets, max_workers=3)
        for target in targets:
            np.testing.assert_array_equal(serial[target], threaded[target])

    def test_default_threshold_engages_the_pool(self, rng):
        """A cube whose first cascade step clears DISPATCH_THRESHOLD runs on
        the thread scheduler with no lowered threshold, undemoted."""
        shape = CubeShape((512, 256))
        ms = pyramid_from_root(shape, rng)
        targets = all_group_bys(shape)
        plan = plan_batch(targets, ms.elements)
        arrays = {e: ms.array(e) for e in ms.elements}
        serial_counter = OpCounter()
        serial = execute_plan(
            plan, arrays, counter=serial_counter, max_workers=1
        )
        pooled_counter = OpCounter()
        stats: dict = {}
        pooled = execute_plan(
            plan, arrays, counter=pooled_counter, max_workers=4, stats=stats
        )
        assert stats["largest_node_cost"] >= stats["dispatch_threshold"]
        assert stats["workers_effective"] == 4
        assert not stats["demoted"]
        for target in targets:
            assert pooled[target].tobytes() == serial[target].tobytes()
        assert pooled_counter.additions == serial_counter.additions
        assert pooled_counter.subtractions == serial_counter.subtractions
        assert pooled_counter.total == plan.planned_cost


class TestExecutePlanDirect:
    def test_execute_reuses_prebuilt_plan(self, shape_4x4, rng):
        ms = pyramid_from_root(shape_4x4, rng)
        targets = all_group_bys(shape_4x4)
        plan = plan_batch(targets, ms.elements)
        assert isinstance(plan, BatchPlan)
        counter = OpCounter()
        results = execute_plan(
            plan, {e: ms.array(e) for e in ms.elements}, counter=counter
        )
        for target in targets:
            np.testing.assert_array_equal(results[target], ms.assemble(target))
        assert counter.total == plan.planned_cost

    def test_cse_ratio_bounds(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        assert 0.0 <= plan.cse_ratio <= 1.0


class TestPooledFailureHandling:
    """The executor's failure discipline: drain, merge, re-raise."""

    def test_worker_fault_is_raised_and_partials_merged(self, shape_3d, rng):
        from repro.errors import TransientFault
        from repro.resilience import FaultInjector, FaultRule

        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        clean_counter = OpCounter()
        ms.assemble_batch(targets, counter=clean_counter)

        injector = FaultInjector(
            [
                FaultRule(
                    site="exec.compute_node",
                    kind="error",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=5,
        )
        counter = OpCounter()
        with injector.activate():
            with pytest.raises(TransientFault):
                ms.assemble_batch(targets, counter=counter, max_workers=2)
        # Exactly one node failed; whatever completed before the abort is
        # accounted, and nothing beyond the clean total can appear.
        assert 0 <= counter.total < clean_counter.total

    def test_pool_is_reusable_after_a_fault(self, shape_3d, rng):
        from repro.errors import TransientFault
        from repro.resilience import FaultInjector, FaultRule

        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        expected = ms.assemble_batch(targets)
        injector = FaultInjector(
            [
                FaultRule(
                    site="exec.compute_node",
                    kind="error",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=5,
        )
        with injector.activate():
            with pytest.raises(TransientFault):
                ms.assemble_batch(targets, max_workers=2)
            # max_fires exhausted: the very next batch succeeds, identically.
            recovered = ms.assemble_batch(targets, max_workers=2)
        for target in targets:
            np.testing.assert_array_equal(recovered[target], expected[target])

    def test_expired_deadline_aborts_pooled_execution(self, shape_3d, rng):
        from repro.errors import QueryTimeout
        from repro.resilience import Deadline, deadline_scope

        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        with deadline_scope(Deadline.after(-0.001)):
            with pytest.raises(QueryTimeout):
                ms.assemble_batch(targets, max_workers=2)

    def test_expired_deadline_aborts_serial_execution(self, shape_3d, rng):
        from repro.errors import QueryTimeout
        from repro.resilience import Deadline, deadline_scope

        ms = pyramid_from_root(shape_3d, rng)
        with deadline_scope(Deadline.after(-0.001)):
            with pytest.raises(QueryTimeout):
                ms.assemble(shape_3d.aggregated_view((0,)))

    def test_counter_merge_folds_totals_and_events(self):
        left = OpCounter()
        left.add(additions=2, label="a")
        right = OpCounter()
        right.add(subtractions=3, label="b")
        left.merge(right)
        assert left.additions == 2
        assert left.subtractions == 3
        assert [label for label, *_ in left.events] == ["a", "b"]
