"""Ablation: range-aggregation via intermediate elements vs direct scans.

Section 6's payoff: with the Gaussian pyramid of intermediate elements
materialized, a range-SUM touches O(prod 2 log2 n_m) cells instead of the
range volume.  The bench measures both paths on identical query batches and
asserts the element path does strictly less scalar work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.operators import OpCounter
from repro.core.range_query import RangeQueryEngine, range_sum_direct
from repro.replay import seeded_cube
from repro.workloads import random_ranges


@pytest.fixture(scope="module")
def setting():
    shape = CubeShape((64, 64))
    data = seeded_cube(9, shape.sizes).values
    engine = RangeQueryEngine.with_gaussian_pyramid(data, shape)
    queries = random_ranges(shape, 50, np.random.default_rng(10))
    return shape, data, engine, queries


def test_range_via_elements(benchmark, setting):
    _, data, engine, queries = setting

    def run():
        return [engine.range_sum(q).value for q in queries]

    values = benchmark(run)
    expected = [range_sum_direct(data, q) for q in queries]
    assert values == pytest.approx(expected)


def test_range_direct_scan(benchmark, setting):
    _, data, _, queries = setting

    def run():
        return [range_sum_direct(data, q) for q in queries]

    benchmark(run)


def test_element_path_does_less_scalar_work(benchmark, setting):
    """Operation-count comparison (the paper's cost currency)."""
    _, data, engine, queries = setting

    def count_both():
        element = 0
        direct = OpCounter()
        for q in queries:
            element += engine.range_sum(q).operations
            range_sum_direct(data, q, counter=direct)
        return element, direct

    element_ops, direct_ops = benchmark(count_both)
    assert element_ops < direct_ops.total
    print(
        f"\nrange ablation: element path {element_ops:,} ops vs "
        f"direct scan {direct_ops.total:,} ops "
        f"({direct_ops.total / max(element_ops, 1):.0f}x reduction)"
    )
