"""Ablation: the analytic cost model vs actually-counted operations.

Every result in the paper rests on the Eq 26-28 cost model.  This bench
assembles real views from materialized bases while counting every scalar
addition/subtraction performed and asserts the counts equal Procedure 3's
predictions — the cost model prices real work exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bases import random_wavelet_packet_basis
from repro.core.element import CubeShape
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import generation_cost
from repro.replay import seeded_cube


@pytest.fixture(scope="module")
def setting():
    shape = CubeShape((8, 8, 8))
    data = seeded_cube(11, shape.sizes).values
    population = QueryPopulation.random_over_views(
        shape, np.random.default_rng(12)
    )
    basis = select_minimum_cost_basis(shape, population)
    materialized = MaterializedSet.from_cube(data, basis.elements)
    return shape, population, basis, materialized


def test_assemble_all_views(benchmark, setting):
    shape, _, _, materialized = setting

    def assemble_all():
        return [
            materialized.assemble(view) for view in shape.aggregated_views()
        ]

    outputs = benchmark(assemble_all)
    assert len(outputs) == shape.num_aggregated_views()


def test_counted_ops_equal_predictions(benchmark, setting):
    shape, population, basis, materialized = setting

    def count_and_predict():
        counted = predicted_total = 0.0
        for view, f in population:
            counter = OpCounter()
            materialized.assemble(view, counter=counter)
            predicted = generation_cost(view, basis.elements)
            assert counter.total == predicted
            counted += f * counter.total
            predicted_total += f * predicted
        return counted, predicted_total

    total_counted, total_predicted = benchmark(count_and_predict)
    assert total_counted == pytest.approx(total_predicted)
    print(
        f"\ncost-model ablation: weighted counted ops "
        f"{total_counted:,.1f} == predicted {total_predicted:,.1f}"
    )


def test_random_basis_assembly_counts(benchmark):
    """Same exactness from arbitrary wavelet-packet bases."""
    shape = CubeShape((8, 4))
    data = np.arange(32, dtype=np.float64).reshape(shape.sizes)

    def verify_bases():
        for seed in range(10):
            basis = random_wavelet_packet_basis(
                shape, np.random.default_rng(seed)
            )
            ms = MaterializedSet.from_cube(data, basis)
            for view in shape.aggregated_views():
                counter = OpCounter()
                ms.assemble(view, counter=counter)
                assert counter.total == generation_cost(view, basis)

    benchmark(verify_bases)
