"""Ablation: explicit element-level DP vs the signature DP.

DESIGN.md calls out the reduced-state collapse (per-dimension containment
signatures against the query intervals) as the implementation choice that
makes the paper's Experiment 1 feasible.  This bench quantifies it: both
DPs compute the *identical* optimum, but the signature DP visits thousands
of states where the explicit DP visits every view element.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from tests.oracles import _select_explicit


@pytest.fixture(scope="module")
def setting():
    shape = CubeShape((8, 8, 8))  # 3,375 elements; both DPs feasible
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(5)
    )
    return shape, population


def test_general_dp(benchmark, setting):
    shape, population = setting
    # The ablation times the explicit recursion the signature DP replaced.
    selection = benchmark(_select_explicit, shape, population)
    reduced = select_minimum_cost_basis(shape, population)
    assert selection.cost == reduced.cost


def test_reduced_dp(benchmark, setting):
    shape, population = setting
    result = benchmark(select_minimum_cost_basis, shape, population)
    assert result.storage == shape.volume


def test_reduced_dp_at_experiment1_scale(benchmark):
    """The explicit DP cannot touch this shape; the signature DP is instant."""
    shape = CubeShape((16,) * 4)
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(6)
    )
    result = benchmark(select_minimum_cost_basis, shape, population)
    assert result.storage == shape.volume
