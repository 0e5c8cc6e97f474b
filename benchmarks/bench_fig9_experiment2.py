"""Benchmark + regeneration of the paper's Figure 9 (Experiment 2).

A per-budget Algorithm 2 sweep on the paper's 4-D, n = 4 cube.  The bench
default uses 4 trials x 7 budget points (the full 10 x 13 setting is a
``python -m repro.experiments.figure9`` run away).  Expected shapes: the
[V] curve dominates [D] at every sampled budget, point a < point b, [D]
needs ~1.25x storage to match [V]'s start, and both converge to zero cost.
"""

from __future__ import annotations

import pytest

from repro.experiments import figure9


def test_fig9_tradeoff_curves(benchmark):
    config = figure9.Figure9Config(num_trials=4, budget_points=7)

    result = benchmark.pedantic(
        figure9.run, args=(config,), rounds=1, iterations=1
    )
    assert result.start_cost_elements < result.start_cost_views
    assert result.elements_dominate
    assert result.curve_views[-1][1] == pytest.approx(0.0, abs=1.0)
    assert result.curve_elements[-1][1] == pytest.approx(0.0, abs=1.0)
    assert 1.0 <= result.d_storage_to_match_v_start <= 1.6
    print()
    from repro.obs.reporting import ascii_table

    print(
        ascii_table(
            ["storage", "[D] cost", "[V] cost"],
            [
                [s, d, v]
                for (s, d), (_, v) in zip(
                    result.curve_views, result.curve_elements
                )
            ],
            title="Figure 9 — averaged storage/processing trade-off",
            precision=2,
        )
    )
    print(
        f"\npoint a (V start): {result.start_cost_elements:.1f}   "
        f"point b (D start): {result.start_cost_views:.1f}   "
        f"point c (D storage to match a): "
        f"{result.d_storage_to_match_v_start:.2f} (paper: ~1.25)"
    )
