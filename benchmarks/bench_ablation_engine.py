"""Ablation: vectorized selection engine vs the reference recursion.

DESIGN.md calls out the flat-index numpy engine as the choice that makes
Experiment 2's per-budget greedy sweeps feasible.  This bench measures one
Procedure 3 evaluation and one greedy stage under both implementations on
the Figure 9 shape (they compute identical numbers — asserted here and
cross-checked in the test-suite).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.engine import SelectionEngine
from repro.core import select_redundant
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import (
    greedy_redundant_selection,
    total_processing_cost,
)


@pytest.fixture(scope="module")
def setting():
    shape = CubeShape((4,) * 4)  # the Figure 9 graph: 2,401 elements
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(13), include_root=False
    )
    basis = select_minimum_cost_basis(shape, population)
    engine = SelectionEngine(shape)
    return shape, population, basis, engine


def test_procedure3_reference(benchmark, setting):
    _, population, basis, _ = setting
    cost = benchmark(
        total_processing_cost, list(basis.elements), population
    )
    assert cost >= 0


def test_procedure3_engine(benchmark, setting):
    _, population, basis, engine = setting
    ref = total_processing_cost(list(basis.elements), population)
    cost = benchmark(
        engine.total_processing_cost, list(basis.elements), population
    )
    assert cost == pytest.approx(ref)


def test_greedy_stage_engine(benchmark, setting):
    """One full Algorithm 2 run (engine) at a mid-sized budget."""
    shape, population, basis, engine = setting

    def run():
        return engine.greedy_redundant_selection(
            list(basis.elements),
            population,
            storage_budget=1.3 * shape.volume,
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.final_cost <= result.stages[0].cost


def test_greedy_stage_reference_view_candidates(
    benchmark, setting, monkeypatch
):
    """The reference greedy is only usable with tiny candidate pools."""
    shape, population, basis, _ = setting
    views = list(shape.aggregated_views())
    # Pin the explicit recursion: this bench exists to compare it against
    # the engine, so delegation must not kick in on the 2,401-element
    # Figure 9 graph.
    monkeypatch.setattr(
        select_redundant, "ENGINE_DELEGATION_THRESHOLD", float("inf")
    )

    def run():
        return greedy_redundant_selection(
            [shape.root()],
            population,
            storage_budget=1.3 * shape.volume,
            candidates=views,
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.final_cost <= result.stages[0].cost
