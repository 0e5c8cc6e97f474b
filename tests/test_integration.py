"""End-to-end integration tests across all subsystems.

The flows mirror what a downstream OLAP user would do: load a fact table,
build the cube, select and materialize a view element set for a workload,
serve views and range queries, and cross-check every answer against the
independent relational substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.population import QueryPopulation
from repro.core.range_query import RangeQueryEngine, range_sum_direct
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import generation_cost
from repro.cube import build_cube, view_element_of
from repro.relational import cube_by, group_by_sum_dict
from repro.server import OLAPServer
from repro.workloads import SalesConfig, sales_cube, sales_table


@pytest.fixture(scope="module")
def config() -> SalesConfig:
    return SalesConfig(num_transactions=800, seed=11)


@pytest.fixture(scope="module")
def cube(config):
    return sales_cube(config)


@pytest.fixture(scope="module")
def table(config):
    return sales_table(config)


class TestSelectMaterializeServe:
    def test_assembled_views_match_relational_groupbys(self, cube, table):
        """Full pipeline: Algorithm 1 -> materialize -> assemble -> verify
        against GROUP BY on the original fact table."""
        shape = cube.shape_id
        population = QueryPopulation.uniform_over_views(shape)
        basis = select_minimum_cost_basis(shape, population)
        materialized = MaterializedSet.from_cube(
            cube.values, basis.elements
        )

        names = cube.dimensions.names
        for retained in [("store",), ("product", "store"), ()]:
            element = view_element_of(cube, retained)
            assembled = materialized.assemble(element)
            expected = group_by_sum_dict(table, list(retained), "sales")
            for key, total in expected.items():
                index = [0] * len(names)
                for name, value in zip(retained, key):
                    axis = cube.dimensions.axis_of(name)
                    index[axis] = cube.dimensions[name].encode(value)
                assert assembled[tuple(index)] == pytest.approx(total)

    def test_assembly_cost_matches_prediction(self, cube):
        shape = cube.shape_id
        population = QueryPopulation.uniform_over_views(shape)
        basis = select_minimum_cost_basis(shape, population)
        materialized = MaterializedSet.from_cube(cube.values, basis.elements)
        view = shape.aggregated_view([0, 1])
        counter = OpCounter()
        materialized.assemble(view, counter=counter)
        assert counter.total == generation_cost(view, basis.elements)

    def test_rolap_molap_lattice_agreement(self, cube, table):
        """Every cell of the CUBE operator output appears in the MOLAP
        views assembled from a materialized basis."""
        shape = cube.shape_id
        materialized = MaterializedSet.from_cube(cube.values, [shape.root()])
        lattice = cube_by(
            table, ["product", "store"], "sales"
        )
        # GROUP BY product, store == view aggregating customer and day.
        element = view_element_of(cube, ("product", "store"))
        view = materialized.assemble(element)
        for (product, store), total in lattice[
            frozenset({"product", "store"})
        ].items():
            p = cube.dimensions["product"].encode(product)
            s = cube.dimensions["store"].encode(store)
            assert view[p, s, 0, 0] == pytest.approx(total)


class TestRangeQueriesOnSalesCube:
    def test_range_sums_match_direct(self, cube):
        shape = cube.shape_id
        engine = RangeQueryEngine.with_gaussian_pyramid(cube.values, shape)
        rng = np.random.default_rng(21)
        from repro.workloads import random_ranges

        for ranges in random_ranges(shape, 25, rng):
            answer = engine.range_sum(ranges)
            assert answer.value == pytest.approx(
                range_sum_direct(cube.values, ranges)
            )

    def test_date_range_example(self, cube, table):
        """The paper's motivating query: sales of one product over a date
        range — answered via ranges and via relational filtering."""
        shape = cube.shape_id
        engine = RangeQueryEngine.with_gaussian_pyramid(cube.values, shape)
        product = cube.dimensions["product"].values[0]
        p = cube.dimensions["product"].encode(product)
        lo, hi = 4, 12
        answer = engine.range_sum(
            (
                (p, p + 1),
                (0, shape.sizes[1]),
                (0, shape.sizes[2]),
                (lo, hi),
            )
        )
        expected = sum(
            record["sales"]
            for record in table.records()
            if record["product"] == product and lo <= record["day"] < hi
        )
        assert answer.value == pytest.approx(expected)


class TestAdaptiveOnSalesWorkload:
    def test_drifting_workload_adaptation(self, cube):
        """The server tracks a drifting workload, re-selecting after each
        phase, and keeps answers exact while reducing per-query work on
        the hot views."""
        server = OLAPServer(cube)
        names = cube.dimensions.names
        views = list(cube.shape_id.aggregated_views())
        hot_phases = [views[3], views[9]]

        def read(view) -> int:
            """Serve ``view``, check it, return the operations it took."""
            kept = [
                name
                for axis, name in enumerate(names)
                if axis not in view.aggregated_dims
            ]
            expected = cube.values.sum(
                axis=tuple(view.aggregated_dims), keepdims=True
            )
            before = server.stats.operations
            np.testing.assert_allclose(server.view(kept), expected, atol=1e-9)
            return server.stats.operations - before

        costs = []
        for phase_view in hot_phases:
            untuned = read(phase_view)
            for _ in range(34):
                read(phase_view)
            server.reconfigure()
            # The first read of the new epoch misses the result cache.
            costs.append((untuned, read(phase_view)))
        assert server.stats.reconfigurations == 2
        # Phase 1's hot view is stored outright.  Phase 2's shares the
        # decayed population with phase 1's, so the basis cannot store
        # both; it is still assembled far more cheaply than before.
        assert costs[0][1] == 0 < costs[0][0]
        assert costs[1][1] < costs[1][0]


class TestSparsePath:
    def test_sparse_build_matches_dense(self, cube):
        from repro.core.element import CubeShape
        from repro.cube import SparseCube

        sparse = SparseCube.from_dense(cube.values, cube.shape_id)
        assert sparse.density < 1.0
        np.testing.assert_array_equal(sparse.densify(), cube.values)
        np.testing.assert_array_equal(
            sparse.total_aggregate([0, 1]),
            cube.values.sum(axis=(0, 1), keepdims=True),
        )
