"""Tests for the vectorized selection engine, Algorithm 2's one
implementation, against the explicit oracles in ``tests/oracles.py``."""

from __future__ import annotations

import itertools

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

from .oracles import greedy_explicit


@pytest.fixture(scope="module")
def engine_4x4():
    return SelectionEngine(CubeShape((4, 4)))


def _node_costs(engine: SelectionEngine, selected) -> np.ndarray:
    """``T(V)`` for every node in flat-index order (one scenario)."""
    column = np.zeros((engine.num_nodes, 1), dtype=bool)
    column[engine.indices_of(selected), 0] = True
    return engine._generation_costs(column)[:, 0]


def _total_cost(engine: SelectionEngine, selected, population) -> float:
    """Procedure 3's total (Eq 34) from the engine's sweeps."""
    q_idx, freqs = engine._population_arrays(population)
    return float((_node_costs(engine, selected)[q_idx] * freqs).sum())


#: Every shape of at most 150 view elements with sides 2..64 and up to
#: three dimensions (a side of ``n`` contributes ``2n - 1`` elements).
SMALL_SHAPES = [
    CubeShape(sizes)
    for d in (1, 2, 3)
    for sizes in itertools.product((2, 4, 8, 16, 32, 64), repeat=d)
    if np.prod([2 * n - 1 for n in sizes]) <= 150
]


@st.composite
def greedy_cases(draw):
    """A shape, a view or roll-up population, an initial selection, a
    budget in [1, 2.5] x Vol(A), candidates and the obsolete-removal flag."""
    shape = draw(st.sampled_from(SMALL_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        population = QueryPopulation.random_over_views(
            shape, rng, include_root=draw(st.booleans())
        )
    else:
        levels = [
            tuple(int(rng.integers(0, depth + 1)) for depth in shape.depths)
            for _ in range(draw(st.integers(1, 6)))
        ]
        rollups = list(dict.fromkeys(shape.intermediate(lv) for lv in levels))
        population = QueryPopulation.from_pairs(
            (q, float(rng.uniform(0.05, 1.0))) for q in rollups
        )
    if draw(st.booleans()):
        initial = [shape.root()]
    else:
        initial = list(select_minimum_cost_basis(shape, population).elements)
    budget = draw(st.floats(1.0, 2.5)) * shape.volume
    candidates = (
        list(shape.aggregated_views()) if draw(st.booleans()) else None
    )
    return shape, population, initial, budget, candidates, draw(st.booleans())


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
        t_vals = _node_costs(engine_4x4, chosen)
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
        fast = _total_cost(engine_4x4, list(basis.elements), population)
        assert fast == pytest.approx(ref)

    def test_shape_mismatch(self, engine_4x4):
        other = CubeShape((8, 8))
        population = QueryPopulation.uniform_over_views(other)
        with pytest.raises(ValueError, match="different cube shape"):
            engine_4x4._population_arrays(population)


class TestGreedyAgreement:
    @settings(max_examples=60, deadline=None)
    @given(case=greedy_cases())
    def test_matches_reference_greedy(self, case):
        """The one Algorithm 2 takes the explicit greedy's trajectory:
        the same elements in the same order, the same storage at every
        stage, and costs equal to 1e-12 relative."""
        shape, population, initial, budget, candidates, remove_obsolete = case
        args = (initial, population, budget, candidates, remove_obsolete)
        ours = greedy_redundant_selection(*args)
        oracle = greedy_explicit(*args)
        assert [s.added for s in ours.stages] == [
            s.added for s in oracle.stages
        ]
        assert ours.selected == oracle.selected
        assert [s.storage for s in ours.stages] == [
            s.storage for s in oracle.stages
        ]
        for got, want in zip(ours.stages, oracle.stages):
            assert got.cost == pytest.approx(want.cost, rel=1e-12, abs=0.0)

    def test_budget_respected(self, rng):
        shape = CubeShape((4, 4))
        population = QueryPopulation.random_over_views(shape, rng)
        budget = 1.3 * shape.volume
        result = greedy_redundant_selection(
            [shape.root()], population, storage_budget=budget
        )
        assert all(s.storage <= budget for s in result.stages)

    def test_remove_obsolete_matches_reference(self):
        shape = CubeShape((2, 2))
        view = shape.aggregated_view([0])
        population = QueryPopulation.from_pairs([(view, 1.0)])
        start = list(shape.root().children(0))
        budget = shape.volume + view.volume
        ref = greedy_explicit(
            start, population, storage_budget=budget, remove_obsolete=True
        )
        fast = greedy_redundant_selection(
            start, population, storage_budget=budget, remove_obsolete=True
        )
        assert fast.final_cost == pytest.approx(ref.final_cost)
        assert fast.final_storage == ref.final_storage

    def test_stop_at_zero(self, rng):
        shape = CubeShape((4, 4))
        population = QueryPopulation.random_over_views(shape, rng)
        views = list(shape.aggregated_views())
        result = greedy_redundant_selection(
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
            list(basis.elements), population, budget, None, False
        )
        b = narrow.greedy_redundant_selection(
            list(basis.elements), population, budget, None, False
        )
        assert [s.cost for s in a.stages] == pytest.approx(
            [s.cost for s in b.stages]
        )
        assert [s.storage for s in a.stages] == [s.storage for s in b.stages]
