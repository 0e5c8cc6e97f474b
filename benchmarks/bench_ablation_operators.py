"""Ablation: operator throughput and reconstruction round trips.

Measures the raw Haar analysis/synthesis cascades the whole system is built
on: total aggregation of a cube, full wavelet-basis decomposition, and
perfect reconstruction from a materialized basis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bases import wavelet_basis
from repro.core.element import CubeShape
from repro.core.materialize import MaterializedSet
from repro.core.operators import analyze, synthesize, total_aggregate
from repro.replay import seeded_cube


@pytest.fixture(scope="module")
def big_cube():
    shape = CubeShape((64, 64, 64))
    return shape, seeded_cube(7, shape.sizes).values


def test_total_aggregation_throughput(benchmark, big_cube):
    shape, data = big_cube
    out = benchmark(total_aggregate, data, (0, 1, 2))
    assert out.item() == pytest.approx(data.sum())


def test_analysis_pair_throughput(benchmark, big_cube):
    _, data = big_cube
    p, r = benchmark(analyze, data, 0)
    assert p.size + r.size == data.size


def test_synthesis_round_trip(benchmark, big_cube):
    _, data = big_cube
    p, r = analyze(data, 1)

    out = benchmark(synthesize, p, r, 1)
    np.testing.assert_allclose(out, data)


def test_wavelet_decompose_and_reconstruct(benchmark):
    shape = CubeShape((16, 16, 16))
    data = seeded_cube(8, shape.sizes).values
    basis = wavelet_basis(shape)

    def round_trip():
        ms = MaterializedSet.from_cube(data, basis)
        return ms.reconstruct_cube()

    out = benchmark(round_trip)
    np.testing.assert_allclose(out, data)
