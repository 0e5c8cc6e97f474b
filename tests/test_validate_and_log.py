"""Tests for the query-log workload builder."""

from __future__ import annotations

import pytest

from repro.workloads.from_queries import population_from_query_log
from repro.workloads import SalesConfig, sales_cube


@pytest.fixture
def cube():
    return sales_cube(SalesConfig(num_transactions=200, num_days=8, seed=67))


class TestPopulationFromQueryLog:
    def test_frequencies_match_counts(self, cube):
        log = [
            "SUM BY product",
            "SUM BY product",
            "SUM BY product",
            "SUM",
        ]
        population = population_from_query_log(cube, log)
        names = cube.dimensions.names
        by_product = cube.shape_id.aggregated_view(
            [cube.dimensions.axis_of(n) for n in names if n != "product"]
        )
        grand = cube.shape_id.total_aggregation()
        assert population.frequency_of(by_product) == pytest.approx(0.75)
        assert population.frequency_of(grand) == pytest.approx(0.25)

    def test_where_queries_attributed_to_retained_view(self, cube):
        log = ["SUM BY store WHERE day IN [0, 4)"]
        population = population_from_query_log(cube, log)
        names = cube.dimensions.names
        by_store = cube.shape_id.aggregated_view(
            [cube.dimensions.axis_of(n) for n in names if n != "store"]
        )
        assert population.frequency_of(by_store) == pytest.approx(1.0)

    def test_smoothing_covers_all_views(self, cube):
        population = population_from_query_log(
            cube, ["SUM BY product"], smoothing=0.5
        )
        assert len(population) == cube.shape_id.num_aggregated_views()
        assert all(f > 0 for _, f in population)

    def test_bad_statement_reported(self, cube):
        with pytest.raises(ValueError, match="bad logged query"):
            population_from_query_log(cube, ["SELECT nope"])

    def test_unknown_dimension_reported(self, cube):
        with pytest.raises(ValueError, match="unknown dimensions"):
            population_from_query_log(cube, ["SUM BY bogus"])

    def test_empty_log_rejected(self, cube):
        with pytest.raises(ValueError, match="empty query log"):
            population_from_query_log(cube, [])

    def test_feeds_selection_end_to_end(self, cube):
        """Log -> population -> Algorithm 1 -> serving the hot view free."""
        from repro.core.materialize import MaterializedSet
        from repro.core.operators import OpCounter
        from repro.core.select_basis import select_minimum_cost_basis

        log = ["SUM BY product, store"] * 9 + ["SUM"]
        population = population_from_query_log(cube, log)
        selection = select_minimum_cost_basis(cube.shape_id, population)
        ms = MaterializedSet.from_cube(cube.values, selection.elements)
        names = cube.dimensions.names
        hot = cube.shape_id.aggregated_view(
            [
                cube.dimensions.axis_of(n)
                for n in names
                if n not in ("product", "store")
            ]
        )
        counter = OpCounter()
        ms.assemble(hot, counter=counter)
        assert counter.total == 0  # the dominant log entry is stored
