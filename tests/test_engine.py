"""Tests for the vectorized selection engine against the reference code."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.element import CubeShape
from repro.core.engine import SelectionEngine
from repro.core.graph import ViewElementGraph
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import (
    generation_cost,
    greedy_redundant_selection,
    total_processing_cost,
)


@pytest.fixture(scope="module")
def engine_4x4():
    return SelectionEngine(CubeShape((4, 4)))


class TestIndexMapping:
    def test_round_trip(self, engine_4x4):
        for index in range(engine_4x4.num_nodes):
            element = engine_4x4.element_of(index)
            assert engine_4x4.index_of(element) == index


class TestCostAgreement:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=8),
    )
    def test_node_costs_match_reference(self, engine_4x4, seed, size):
        """Engine T(V) equals the reference recursion on random selections."""
        shape = engine_4x4.shape
        graph = ViewElementGraph(shape)
        elements = list(graph.elements())
        rng = np.random.default_rng(seed)
        chosen = [elements[i] for i in rng.choice(len(elements), size=size, replace=False)]
        t_vals = engine_4x4.node_generation_costs(chosen)
        memo: dict = {}
        for probe in elements[:: max(1, len(elements) // 20)]:
            ref = generation_cost(probe, chosen, _memo=memo)
            got = float(t_vals[engine_4x4.index_of(probe)])
            if ref == float("inf"):
                assert not np.isfinite(got)
            else:
                assert got == pytest.approx(ref)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_total_cost_matches_reference(self, engine_4x4, seed):
        shape = engine_4x4.shape
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        basis = select_minimum_cost_basis(shape, population)
        ref = total_processing_cost(list(basis.elements), population)
        fast = engine_4x4.total_processing_cost(list(basis.elements), population)
        assert fast == pytest.approx(ref)

    def test_shape_mismatch(self, engine_4x4):
        other = CubeShape((8, 8))
        population = QueryPopulation.uniform_over_views(other)
        with pytest.raises(ValueError, match="different cube shape"):
            engine_4x4.total_processing_cost([other.root()], population)


class TestGreedyAgreement:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_matches_reference_greedy(self, seed):
        """Engine greedy and reference greedy take identical trajectories."""
        shape = CubeShape((2, 2))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        basis = select_minimum_cost_basis(shape, population)
        budget = 2.0 * shape.volume
        engine = SelectionEngine(shape)
        ref = greedy_redundant_selection(
            list(basis.elements), population, storage_budget=budget
        )
        fast = engine.greedy_redundant_selection(
            list(basis.elements), population, storage_budget=budget
        )
        assert [s.cost for s in fast.stages] == pytest.approx(
            [s.cost for s in ref.stages]
        )
        assert [s.storage for s in fast.stages] == [
            s.storage for s in ref.stages
        ]

    def test_budget_respected(self, engine_4x4, rng):
        shape = engine_4x4.shape
        population = QueryPopulation.random_over_views(shape, rng)
        budget = 1.3 * shape.volume
        result = engine_4x4.greedy_redundant_selection(
            [shape.root()], population, storage_budget=budget
        )
        assert all(s.storage <= budget for s in result.stages)

    def test_remove_obsolete_matches_reference(self):
        shape = CubeShape((2, 2))
        view = shape.aggregated_view([0])
        population = QueryPopulation.from_pairs([(view, 1.0)])
        start = list(shape.root().children(0))
        engine = SelectionEngine(shape)
        budget = shape.volume + view.volume
        ref = greedy_redundant_selection(
            start, population, storage_budget=budget, remove_obsolete=True
        )
        fast = engine.greedy_redundant_selection(
            start, population, storage_budget=budget, remove_obsolete=True
        )
        assert fast.final_cost == pytest.approx(ref.final_cost)
        assert fast.final_storage == ref.final_storage

    def test_stop_at_zero(self, engine_4x4, rng):
        shape = engine_4x4.shape
        population = QueryPopulation.random_over_views(shape, rng)
        views = list(shape.aggregated_views())
        result = engine_4x4.greedy_redundant_selection(
            views,  # everything already stored
            population,
            storage_budget=10 * shape.volume,
        )
        assert result.final_cost == 0.0
        assert len(result.stages) == 1


class TestChunkedCandidateEvaluation:
    def test_small_batch_cap_matches_unchunked(self, rng):
        """Chunked candidate totals equal the single-batch result."""
        shape = CubeShape((4, 4))
        population = QueryPopulation.random_over_views(shape, rng)
        basis = select_minimum_cost_basis(shape, population)
        budget = 1.5 * shape.volume

        wide = SelectionEngine(shape)
        narrow = SelectionEngine(shape)
        narrow.max_batch_cells = narrow.num_nodes * 3  # 3 candidates/chunk
        a = wide.greedy_redundant_selection(
            list(basis.elements), population, storage_budget=budget
        )
        b = narrow.greedy_redundant_selection(
            list(basis.elements), population, storage_budget=budget
        )
        assert [s.cost for s in a.stages] == pytest.approx(
            [s.cost for s in b.stages]
        )
        assert [s.storage for s in a.stages] == [s.storage for s in b.stages]
