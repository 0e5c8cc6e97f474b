"""Ablation: vectorized selection engine vs the explicit greedy.

DESIGN.md calls out the flat-index numpy engine as the choice that makes
Experiment 2's per-budget greedy sweeps feasible.  This bench times
Algorithm 2 through its one entry point (the engine) and the explicit
greedy the paper states, the test-suite's oracle in ``tests/oracles.py``,
on the Figure 9 shape; they take the same trajectory (asserted here and
cross-checked by a property test).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import (
    greedy_redundant_selection,
    total_processing_cost,
)
from tests.oracles import explicit_total_cost, greedy_explicit


@pytest.fixture(scope="module")
def setting():
    shape = CubeShape((4,) * 4)  # the Figure 9 graph: 2,401 elements
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(13), include_root=False
    )
    basis = select_minimum_cost_basis(shape, population)
    return shape, population, basis


def test_procedure3_reference(benchmark, setting):
    _, population, basis = setting
    cost = benchmark(explicit_total_cost, list(basis.elements), population)
    assert cost == total_processing_cost(list(basis.elements), population)


def test_greedy_stage_engine(benchmark, setting):
    """One full Algorithm 2 run (engine) at a mid-sized budget."""
    shape, population, basis = setting

    def run():
        return greedy_redundant_selection(
            list(basis.elements),
            population,
            storage_budget=1.3 * shape.volume,
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.final_cost <= result.stages[0].cost


def test_greedy_stage_reference_view_candidates(benchmark, setting):
    """The explicit greedy is only usable with tiny candidate pools."""
    shape, population, _ = setting
    views = list(shape.aggregated_views())
    args = ([shape.root()], population, 1.3 * shape.volume, views)

    result = benchmark.pedantic(
        greedy_explicit, args=args, rounds=2, iterations=1
    )
    assert result.stages == greedy_redundant_selection(*args).stages
