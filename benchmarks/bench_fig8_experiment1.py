"""Benchmark + regeneration of the paper's Figure 8 (Experiment 1).

The full paper setting — a 4-D cube with n = 16 (923,521 view elements) and
random frequencies over its aggregated views — runs per trial here; the
summary printed at the end is the reproduced figure content.  Expected
shapes: ``[V] < [D] < [W]`` on every trial and a mean [V]/[D] ratio in the
0.4-0.85 bracket around the paper's 53.8% (the exact value depends on the
unspecified skew of the random frequencies; see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import element_population_cost
from repro.core.element import CubeShape
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.experiments import figure8


def test_fig8_single_trial_selection(benchmark):
    """Algorithm 1 (signature DP) on the 923,521-node graph, one trial."""
    shape = CubeShape((16,) * 4)
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(0)
    )

    result = benchmark(select_minimum_cost_basis, shape, population)
    assert result.storage == shape.volume
    assert result.cost < element_population_cost(shape.root(), population)


def test_fig8_full_experiment(benchmark):
    """The complete 100-trial experiment plus summary rendering."""
    config = figure8.Figure8Config(num_trials=100)

    result = benchmark.pedantic(
        figure8.run, args=(config,), rounds=1, iterations=1
    )
    assert result.v_always_best
    assert result.w_worse_than_d >= 0.5
    assert 0.4 <= result.mean_v_over_d <= 0.85
    print()
    print(figure8.main(figure8.Figure8Config(num_trials=20)))
