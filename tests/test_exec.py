"""Shared-plan batch assembly: planner (CSE DAG) + executor.

The batch planner merges the per-target assembly routes of
:mod:`repro.core.planning` into one DAG with common-subexpression
elimination, and the executor runs it serially or on a thread pool; it is
the only executor (a single target is a batch of one).  The contract under
test: answers are *bit-identical* to Procedure 3's recursion run per
target (:func:`tests.oracles.assemble_recursive`), the operation counter
is exact (``counter.total == plan.planned_cost``), and for workloads with
shared structure (the 2^d group-by views) the shared plan performs
*strictly fewer* scalar operations than the per-view recursions combined.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import CubeShape, ElementId
from repro.core.exec import BatchPlan, execute_plan, plan_batch
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.population import QueryPopulation
from repro.core.bases import random_wavelet_packet_basis, wavelet_basis
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import generation_cost

from .oracles import assemble_recursive


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

        arrays = ms.arrays_snapshot()
        seq_counter = OpCounter()
        expected = {
            t: assemble_recursive(t, arrays, counter=seq_counter)
            for t in targets
        }
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
        arrays = ms.arrays_snapshot()
        expected = {t: assemble_recursive(t, arrays) for t in targets}
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
        arrays = ms.arrays_snapshot()
        seq_counter = OpCounter()
        expected = {
            t: assemble_recursive(t, arrays, counter=seq_counter)
            for t in targets
        }
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


def random_element(shape: CubeShape, rng) -> ElementId:
    nodes = []
    for depth in shape.depths:
        level = int(rng.integers(0, depth + 1))
        nodes.append((level, int(rng.integers(0, 1 << level))))
    return ElementId(shape, tuple(nodes))


class TestABatchOfOne:
    """A single target runs the one executor: the recursion's answer, bit
    for bit, at exactly Procedure 3's price."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        redundant=st.integers(min_value=0, max_value=3),
    )
    def test_assemble_equals_the_recursion(self, sizes, seed, redundant):
        shape = CubeShape(tuple(sizes))
        rng = np.random.default_rng(seed)
        # A random complete basis, plus a few redundant elements.
        stored = random_wavelet_packet_basis(shape, rng)
        stored += [random_element(shape, rng) for _ in range(redundant)]
        ms = MaterializedSet.from_cube(rng.standard_normal(shape.sizes), stored)
        arrays = ms.arrays_snapshot()
        targets = [random_element(shape, rng) for _ in range(6)]
        targets += [shape.root(), shape.total_aggregation(), stored[0]]
        for target in targets:
            counter = OpCounter()
            got = ms.assemble(target, counter=counter)
            want = assemble_recursive(target, arrays)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert counter.total == generation_cost(target, ms.elements)


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
        arrays = ms.arrays_snapshot()
        expected = {t: assemble_recursive(t, arrays) for t in targets}
        serial = ms.assemble_batch(targets)
        threaded = ms.assemble_batch(targets, max_workers=3)
        for target in targets:
            np.testing.assert_array_equal(serial[target], expected[target])
            np.testing.assert_array_equal(threaded[target], expected[target])

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


class TestCompiledProgram:
    """What ``BatchPlan`` computes once so that no run has to."""

    def test_program_mirrors_the_dag(self, shape_3d, rng):
        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        assert [ins.op for ins in plan.program] == [
            node.kind for node in plan.nodes.values()
        ]
        assert [ins.out for ins in plan.program] == list(range(len(plan.nodes)))
        keys = list(plan.nodes)
        for ins, node in zip(plan.program, plan.nodes.values()):
            assert [keys[slot] for slot in ins.inputs] == list(node.deps)
            assert ins.cost == node.cost
            if ins.op != "stored":
                assert ins.attrs == {
                    "element": node.element.describe(),
                    "kind": node.kind,
                    "planned_cost": node.cost,
                }
        assert plan.planned_cost == sum(n.cost for n in plan.nodes.values())
        assert plan.largest_cost == max(n.cost for n in plan.nodes.values())
        assert set(plan.stored_reads) == {
            n.element for n in plan.nodes.values() if n.kind == "stored"
        }
        assert [keys[slot] for slot in plan.target_slots] == list(plan.targets)

    def test_every_temporary_is_released_once_after_its_last_reader(
        self, shape_3d, rng
    ):
        ms = MaterializedSet.from_cube(
            rng.standard_normal(shape_3d.sizes), wavelet_basis(shape_3d)
        )
        plan = plan_batch(all_group_bys(shape_3d), ms.elements)
        released = [slot for ins in plan.program for slot in ins.release]
        assert len(released) == len(set(released))
        pinned = set(plan.target_slots) | {
            ins.out for ins in plan.program if ins.op == "stored"
        }
        assert not pinned & set(released)
        for ins in plan.program:
            for slot in ins.release:
                readers = plan.dependents[slot]
                assert readers[-1] == ins.out == max(readers)
                assert plan.refcounts[slot] == len(readers)
        for slot in pinned:
            assert plan.refcounts[slot] == 0
        assert list(plan.pending) == [len(ins.inputs) for ins in plan.program]

    def test_dag_nodes_metric_counts_the_fused_plan(self, shape_3d, rng):
        from repro.obs import MetricsRegistry

        ms = pyramid_from_root(shape_3d, rng)
        registry = MetricsRegistry()
        with registry.activate():
            plan = plan_batch(all_group_bys(shape_3d), ms.elements)
            unfused = plan_batch(all_group_bys(shape_3d), ms.elements, fuse=False)
        assert len(plan.nodes) < len(unfused.nodes)
        series = registry.histogram("batch_dag_nodes").snapshot()["values"][""]
        assert series["count"] == 2
        assert series["sum"] == len(plan.nodes) + len(unfused.nodes)

    def test_node_fault_lands_on_the_exec_node_span(self, shape_3d, rng):
        """One site visit per non-stored node, traced or not, and an
        injected fault is recorded on the ``exec.node`` span it hit."""
        from repro.errors import TransientFault
        from repro.obs import Tracer
        from repro.resilience import FaultInjector, FaultRule

        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        nonstored = sum(1 for ins in plan.program if ins.op != "stored")
        tracer = Tracer()
        counting = FaultInjector(
            [FaultRule(site="exec.compute_node", kind="error", probability=0.0)]
        )
        with tracer.activate(), counting.activate():
            ms.assemble_batch(targets)
        assert counting.invocations("exec.compute_node") == nonstored
        node_spans = tracer.spans("exec.node")
        assert len(node_spans) == nonstored
        (execute,) = tracer.spans("exec.execute")
        assert {s.parent_id for s in node_spans} == {execute.span_id}
        assert [s.attributes["planned_cost"] for s in node_spans] == [
            s.attributes["operations"] for s in node_spans
        ]

        tracer.clear()
        failing = FaultInjector(
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
        with tracer.activate(), failing.activate():
            with pytest.raises(TransientFault):
                ms.assemble_batch(targets)
        assert failing.invocations("exec.compute_node") == 1
        (hit,) = tracer.spans("exec.node")
        assert hit.attributes["error"] == "TransientFault"
        assert [e["name"] for e in hit.events] == ["fault_injected"]
        assert hit.events[0]["site"] == "exec.compute_node"

    def test_deadline_expiring_mid_plan_is_seen_by_the_serial_loop(
        self, shape_3d, rng
    ):
        from repro.errors import QueryTimeout
        from repro.resilience import (
            Deadline,
            FaultInjector,
            FaultRule,
            deadline_scope,
        )

        ms = pyramid_from_root(shape_3d, rng)
        targets = all_group_bys(shape_3d)
        plan = plan_batch(targets, ms.elements)
        arrays = {e: ms.array(e) for e in ms.elements}
        slow = FaultInjector(
            [FaultRule(site="exec.compute_node", kind="latency", latency_ms=60.0)]
        )
        counter = OpCounter()
        with slow.activate(), deadline_scope(Deadline.after(0.03)):
            with pytest.raises(QueryTimeout, match="exec.serial"):
                execute_plan(plan, arrays, counter=counter)
        # The first node ran (and slept) before the loop looked again.
        assert slow.invocations("exec.compute_node") == 1
        assert 0 < counter.total < plan.planned_cost


class TestPlanCache:
    @pytest.fixture
    def planned(self, monkeypatch):
        """The target tuple of every ``plan_batch`` call the cache makes."""
        import repro.core.exec as exec_module

        calls: list = []
        real = exec_module.plan_batch

        def recording(targets, *args, **kwargs):
            calls.append(tuple(targets))
            return real(targets, *args, **kwargs)

        monkeypatch.setattr(exec_module, "plan_batch", recording)
        return calls

    def test_full_cache_evicts_the_least_recently_used_set_only(
        self, shape_3d, rng, monkeypatch, planned
    ):
        monkeypatch.setattr(MaterializedSet, "_PLAN_CACHE_ENTRIES", 2)
        ms = pyramid_from_root(shape_3d, rng)
        a, b, c, d = all_group_bys(shape_3d)[1:5]
        ms.assemble_batch([a, b])
        ms.assemble_batch([c, d])
        ms.assemble_batch([a, b])  # hit: (a, b) is now the most recent
        ms.assemble_batch([a, c])  # full: (c, d) leaves, (a, b) stays
        assert planned == [(a, b), (c, d), (a, c)]
        ms.assemble_batch([a, b])
        assert planned == [(a, b), (c, d), (a, c)]
        ms.assemble_batch([c, d])
        assert planned[-1] == (c, d) and len(planned) == 4

    def test_single_targets_are_planned_once_per_element(
        self, shape_3d, rng, monkeypatch, planned
    ):
        monkeypatch.setattr(MaterializedSet, "_PLAN_CACHE_ENTRIES", 1)
        ms = pyramid_from_root(shape_3d, rng)
        views = all_group_bys(shape_3d)
        for _ in range(3):
            for view in views:
                got = ms.assemble_batch([view])[view]
                np.testing.assert_array_equal(got, ms.assemble(view))
        assert planned == [(view,) for view in views]
        assert len(ms._plan_cache) == 0  # no LRU slot spent on them

    def test_cached_plan_is_checked_against_the_snapshot(self, shape_4x4, rng):
        """A plan that outlived its stored element (a quarantine racing the
        cache clear) is replanned, not run against a missing array."""
        ms = pyramid_from_root(shape_4x4, rng)
        root = shape_4x4.root()
        half = root.partial_child(0)
        ms.store(half, ms.assemble(half))
        targets = all_group_bys(shape_4x4)[1:3]
        expected = {t: ms.assemble(t) for t in targets}
        ms.assemble_batch(targets)
        stale = ms._plan_cache.plan(tuple(targets), ms.elements, ms._cost_memo)
        assert half in stale.stored_reads
        ms.quarantine(half)
        ms._plan_cache._plans[tuple(targets)] = stale  # the lost race
        results = ms.assemble_batch(targets)
        for target in targets:
            np.testing.assert_array_equal(results[target], expected[target])
        fresh = ms._plan_cache.plan(tuple(targets), ms.elements, ms._cost_memo)
        assert fresh is not stale and half not in fresh.stored_reads

    def test_two_threads_plan_disjoint_batches_against_one_set(self, rng):
        import sys
        import threading

        shape = CubeShape((16, 8, 4))
        values = rng.integers(0, 50, size=shape.sizes).astype(np.float64)
        ms = MaterializedSet.from_cube(values, wavelet_basis(shape))
        views = all_group_bys(shape)
        rollups = [
            shape.root().partial_child(0).partial_child(1),
            shape.root().partial_child(0).partial_child(0).partial_child(2),
            shape.root().partial_child(1).partial_child(2),
            shape.root().partial_child(2).partial_child(2),
        ]
        batches = {
            "views": [views[i : i + 2] for i in range(0, len(views), 2)],
            "rollups": [rollups[:2], rollups[2:], rollups[1:3]],
        }
        reference = MaterializedSet.from_cube(values, wavelet_basis(shape))
        expected = {t: reference.assemble(t) for t in views + rollups}
        failures: list = []

        def serve(name: str) -> None:
            try:
                for _ in range(20):
                    for batch in batches[name]:
                        counter = OpCounter()
                        got = ms.assemble_batch(batch, counter=counter)
                        plan = plan_batch(batch, ms.elements)
                        assert counter.total == plan.planned_cost
                        for target in batch:
                            assert got[target].tobytes() == expected[target].tobytes()
                    ms._plan_cache.clear()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append((name, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(n,)) for n in batches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
