"""The reduced-state planners against their explicit-element oracles.

Algorithm 1 runs on containment signatures against the query intervals, and
Procedure 3 on containment signatures against the stored ones, instead of
on view elements.  Both must be indistinguishable from the explicit
recursions — same elements, same routes, bit-equal costs — and must make
the adapt cycle affordable on a cube whose graph cannot be enumerated.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exec as exec_mod
from repro.core.element import CubeShape
from repro.core.exec import execute_plan, plan_batch
from repro.core.graph import ViewElementGraph
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.planning import best_route, route_table, sorted_by_volume
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import generation_cost, priced_states
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.errors import IncompleteSetError
from repro.server import OLAPServer

from .oracles import (
    _select_explicit,
    explicit_best_route,
    explicit_generation_cost,
)

SHAPES = [
    (4,), (16,), (2, 2), (4, 4), (8, 2), (16, 4), (2, 2, 2), (4, 4, 4), (8, 4, 2),
]


@st.composite
def stored_sets(draw):
    """``(shape, every element, stored set, is it complete)``: an
    Algorithm 1 basis, a basis plus redundant elements, or a random
    (usually incomplete) set, in random order."""
    shape = CubeShape(draw(st.sampled_from(SHAPES)))
    elements = list(ViewElementGraph(shape).elements())
    kind = draw(st.sampled_from(["basis", "redundant", "random"]))
    some = st.lists(st.sampled_from(elements), min_size=1, max_size=6, unique=True)
    if kind == "random":
        stored = draw(some)
    else:
        population = QueryPopulation.random_over_views(
            shape, np.random.default_rng(draw(st.integers(0, 10_000)))
        )
        stored = list(select_minimum_cost_basis(shape, population).elements)
        if kind == "redundant":
            stored += [e for e in draw(some) if e not in stored]
    stored = tuple(draw(st.permutations(stored)))
    return shape, elements, stored, kind != "random"


class TestProcedure3Signatures:
    @settings(max_examples=120, deadline=None)
    @given(case=stored_sets(), data=st.data())
    def test_costs_and_routes_match_the_explicit_recursion(self, case, data):
        shape, elements, stored, _ = case
        targets = data.draw(
            st.lists(st.sampled_from(elements), min_size=1, max_size=16)
        )
        memo: dict = {}
        oracle_memo: dict = {}
        by_volume = sorted_by_volume(stored)
        for target in targets:
            cost = generation_cost(target, stored, _memo=memo)
            expected = explicit_generation_cost(target, stored, oracle_memo)
            assert cost == expected  # every ``inf`` verdict included
            assert type(cost) is type(expected)
            assert memo[target] == expected  # the entry the planners read
            source, _, synth_dim, _ = best_route(target, stored, by_volume, memo)
            assert (source, synth_dim) == explicit_best_route(
                target, stored, oracle_memo
            )
        assert 0 < priced_states(memo) <= len(oracle_memo)

    @settings(max_examples=40, deadline=None)
    @given(case=stored_sets(), data=st.data())
    def test_measured_operations_equal_the_price(self, case, data):
        shape, elements, stored, complete = case
        if not complete:
            return
        values = np.arange(shape.volume, dtype=np.float64).reshape(shape.sizes)
        materialized = MaterializedSet.from_cube(values, stored)
        for target in data.draw(
            st.lists(st.sampled_from(elements), min_size=1, max_size=6)
        ):
            counter = OpCounter()
            materialized.assemble(target, counter=counter)
            assert counter.total == explicit_generation_cost(target, stored)

    def test_a_memo_handed_another_selection_starts_over(self):
        shape = CubeShape((4, 4))
        root, total = shape.root(), shape.total_aggregation()
        half = root.partial_child(0)
        memo: dict = {}
        assert generation_cost(half, (root,), _memo=memo) == 8
        assert generation_cost(half, (total,), _memo=memo) == float("inf")
        assert generation_cost(half, (root,), _memo=memo) == 8


class TestRouteTable:
    """Routes are resolved once per element and every planner reads them
    back: a plan merged from a warm table is the plan a cold one builds."""

    @settings(max_examples=100, deadline=None)
    @given(case=stored_sets(), data=st.data())
    def test_merged_plans_match_cold_plans_and_per_target_assembly(
        self, case, data
    ):
        shape, elements, stored, _ = case
        values = np.random.default_rng(7).standard_normal(shape.sizes)
        materialized = MaterializedSet.from_cube(values, stored)
        # Equal-volume ancestors tie-break by position: plan against the
        # order the set itself routes by.
        arrays = materialized.arrays_snapshot()
        stored = tuple(arrays)
        some = st.lists(st.sampled_from(elements), min_size=1, max_size=6)
        targets = data.draw(some)
        memo: dict = {}
        for other in data.draw(some):  # whatever else the table has seen
            try:
                plan_batch([other], stored, memo)
            except IncompleteSetError:
                pass
        if any(explicit_generation_cost(t, stored) == float("inf") for t in targets):
            with pytest.raises(IncompleteSetError, match="not complete"):
                plan_batch(targets, stored, memo)
            return
        plan = plan_batch(targets, stored, memo)
        cold = plan_batch(targets, stored, {})
        assert list(plan.nodes.values()) == list(cold.nodes.values())
        assert list(plan.nodes) == [node.key for node in cold.nodes.values()]
        assert plan.program == cold.program
        assert (plan.naive_cost, plan.cse_hits) == (cold.naive_cost, cold.cse_hits)
        assert plan.naive_cost == sum(
            explicit_generation_cost(t, stored) for t in dict.fromkeys(targets)
        )

        serial_counter, pooled_counter = OpCounter(), OpCounter()
        serial = execute_plan(plan, arrays, counter=serial_counter)
        stats: dict = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exec_mod, "DISPATCH_THRESHOLD", 1)
            pooled = execute_plan(
                plan,
                arrays,
                counter=pooled_counter,
                max_workers=4,
                stats=stats,
            )
        assert serial_counter.total == pooled_counter.total == plan.planned_cost
        assert stats["workers_effective"] == (4 if plan.planned_cost else 1)
        for target in targets:
            expected = materialized.assemble(target).tobytes()
            assert serial[target].tobytes() == expected
            assert pooled[target].tobytes() == expected

    def test_routes_spell_out_what_best_route_chose(self):
        shape = CubeShape((8, 4))
        root = shape.root()
        stored = (root, root.partial_child(0).residual_child(0))
        memo: dict = {}
        table = route_table(shape, stored, memo)
        assert route_table(shape, stored, memo) is table
        assert table.route(root).kind == "stored"
        view = shape.aggregated_view([0])
        route = table.route(view)
        assert (route.kind, route.source, route.cost) == ("aggregate", root, 28)
        assert [(dim, residual) for dim, residual, _ in route.skeleton] == [
            (0, False)
        ] * 3
        assert route.skeleton[-1][2] == view
        assert table.routes[view] is route  # resolved once, then read back
        # A memo handed another selection starts over, table included.
        other = route_table(shape, (root,), memo)
        assert other is not table and not other.routes
        with pytest.raises(IncompleteSetError, match="not complete"):
            route_table(shape, (view,), {}).route(root)

    def test_store_and_quarantine_drop_the_routes_with_the_prices(self):
        shape = CubeShape((8, 4))
        values = np.random.default_rng(5).standard_normal(shape.sizes)
        root, view = shape.root(), shape.aggregated_view([0])
        half = root.partial_child(0)
        materialized = MaterializedSet.from_cube(values, [root])
        expected = materialized.assemble(view)

        def source_of_next_plan():
            counter = OpCounter()
            got = materialized.assemble_batch([view], counter=counter)[view]
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            table = route_table(shape, materialized.elements, materialized._cost_memo)
            route = table.routes[view]
            assert counter.total == route.cost
            assert table.plans[view].stored_reads == (route.source,)
            return route.source

        assert source_of_next_plan() == root
        materialized.store(half, materialized.assemble(half))
        assert not materialized._cost_memo  # prices, routes and plans: gone
        assert source_of_next_plan() == half
        materialized.quarantine(half)
        assert not materialized._cost_memo
        assert source_of_next_plan() == root


@st.composite
def populations(draw):
    """``(shape, population)``: aggregated views, pure partial sums and
    residual elements, duplicates and zero frequencies included."""
    shape = CubeShape(draw(st.sampled_from(SHAPES + [(8, 8, 4), (4, 4, 2, 2)])))
    elements = list(ViewElementGraph(shape).elements())
    kinds = [
        list(shape.aggregated_views()),
        [e for e in elements if e.is_intermediate],
        [e for e in elements if not e.is_intermediate],
    ]
    queries = draw(
        st.lists(
            st.one_of(*(st.sampled_from(kind) for kind in kinds)),
            min_size=1,
            max_size=8,
        )
    )
    queries += draw(st.lists(st.sampled_from(queries), max_size=2))
    weights = st.one_of(st.just(0.0), st.floats(0.001, 10.0))
    frequencies = [draw(st.floats(0.001, 10.0))] + [
        draw(weights) for _ in queries[1:]
    ]
    order = draw(st.permutations(range(len(queries))))
    return shape, QueryPopulation(
        tuple(queries[i] for i in order), tuple(frequencies[i] for i in order)
    )


class TestAlgorithm1Dispatch:
    @settings(max_examples=60, deadline=None)
    @given(populations())
    def test_reduced_equals_explicit_on_view_populations(self, drawn):
        """Views or not, every population takes the signature recursion."""
        shape, population = drawn
        reduced = select_minimum_cost_basis(shape, population)
        explicit = _select_explicit(shape, population)
        assert reduced.elements == explicit.elements  # same Procedure 2 order
        assert reduced.cost == explicit.cost  # bit-equal, not approx
        assert reduced.states <= explicit.states


def make_server(sizes, seed=3, **kwargs) -> tuple[OLAPServer, np.ndarray]:
    values = (
        np.random.default_rng(seed).integers(0, 10, size=sizes).astype(np.float64)
    )
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    return OLAPServer(DataCube(values.copy(), dims, measure="amount"), **kwargs), values


def settle(server: OLAPServer, rounds: int = 12) -> None:
    """A skewed, repeatable view mix for the tracker to observe."""
    names = [d.name for d in server.cube.dimensions]
    mix = [[name] for name in names] + [names[:2], [], names[:1]]
    for _ in range(rounds):
        for retained in mix:
            server.view(retained)


class TestServerReconfigure:
    def test_stores_what_the_explicit_dp_selects(self):
        server, _ = make_server((16, 8, 4))
        settle(server)
        explicit = _select_explicit(server.shape, server.observed_population())
        storage, expected = server.reconfigure()
        assert set(server.materialized.elements) == set(explicit.elements)
        assert expected == explicit.cost  # bit-equal
        assert storage == explicit.storage
        span = server.tracer.spans("server.reconfigure")[-1]
        assert 0 < span.attributes["states"] < server.shape.num_view_elements()
        server.close()

    def test_assembler_with_a_non_view_in_its_history_matches_explicit(self):
        server, _ = make_server((4, 4, 4))
        shape = server.shape
        residual = shape.root().residual_child(1)  # not a view
        population = QueryPopulation.from_pairs(
            [(view, 1.0) for view in shape.aggregated_views()]
            + [(residual, 1.0)]
        )
        explicit = _select_explicit(shape, population)
        storage, expected = server.reconfigure(population)
        assert set(server.materialized.elements) == set(explicit.elements)
        assert expected == explicit.cost  # bit-equal
        assert storage == explicit.storage


class TestLargeCubeAdaptCycle:
    """256x64x32: 4.1 M graph nodes, so the explicit planners cannot run.

    Bounds are well over ten times what the steps take (0.1 s, 0.2 s,
    0.02 s against a 37-element basis; 0.02 s for the re-selection with
    a residual in the population): they catch a planner walking the graph
    again, not a slow machine.
    """

    SIZES = (256, 64, 32)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_reconfigure_then_first_reads(self, shards):
        server, values = make_server(self.SIZES, shards=shards)
        assert server.shape.num_view_elements() > 4_000_000
        names = [d.name for d in server.cube.dimensions]
        settle(server)

        start = time.perf_counter()
        storage, _ = server.reconfigure()
        assert time.perf_counter() - start < 5.0
        assert storage == values.size
        assert server.health()["stored_elements"] > 8

        start = time.perf_counter()
        answer = server.range_sum(tuple((1, n) for n in self.SIZES))
        assert time.perf_counter() - start < 10.0
        assert answer == values[1:, 1:, 1:].sum()

        levels = [{names[0]: 1, names[1]: 2, names[2]: 0}, {names[0]: 3, names[2]: 1}]
        start = time.perf_counter()
        rollups = server.rollup_batch(levels)
        assert time.perf_counter() - start < 5.0
        for request, result in zip(levels, rollups):
            expected = values
            for axis, name in enumerate(names):
                width = 1 << request.get(name, 0)
                shape = expected.shape
                expected = expected.reshape(
                    *shape[:axis], shape[axis] // width, width, *shape[axis + 1 :]
                ).sum(axis=axis + 1)
            assert np.array_equal(np.asarray(result), expected)
        server.close()

    def test_assembler_reconfigures_past_a_residual(self):
        server, values = make_server(self.SIZES)
        shape = server.shape
        residual = shape.root().residual_child(1)  # not a view
        population = QueryPopulation.from_pairs(
            [(view, 1.0) for view in shape.aggregated_views()]
            + [(residual, 1.0)]
        )
        before = server.materialized.assemble(residual)

        start = time.perf_counter()
        storage, _ = server.reconfigure(population)
        assert time.perf_counter() - start < 5.0
        assert storage == values.size
        assert residual in server.materialized.elements
        assert np.array_equal(server.materialized.assemble(residual), before)
        server.close()
