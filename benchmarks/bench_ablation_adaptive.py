"""Ablation: static vs dynamic element selection under workload drift.

The paper's titular feature is that selection can re-run as observed
frequencies change.  This bench drives a three-phase drifting workload
through three :class:`OLAPServer`\\ s — one that keeps only the cube, one
tuned once for the first phase, and one that re-selects for its tracked
workload every :data:`RESELECT_EVERY` queries — and asserts the adaptive
server does less total scalar work than the cube-only one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import QueryPopulation
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer

#: Queries between the adaptive server's re-selections.
RESELECT_EVERY = 40


@pytest.fixture(scope="module")
def workload():
    sizes = (4, 4, 4)
    rng = np.random.default_rng(37)
    data = rng.integers(0, 50, size=sizes).astype(np.float64)
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    cube = DataCube(data, dims)
    views = list(cube.shape_id.aggregated_views())
    sequence = []
    for phase_views in ([views[1], views[4]], [views[5]], [views[2], views[7]]):
        for _ in range(80):
            sequence.append(
                phase_views[int(rng.integers(len(phase_views)))]
            )
    return cube, sequence


def _serve(cube, sequence, tune=None, reselect_every=None) -> OLAPServer:
    """Serve ``sequence`` on a fresh server; ``tune`` is a population to
    select for up front, ``reselect_every`` a harness-side re-selection
    period.  Returns the server (its ``stats`` hold the work done)."""
    server = OLAPServer(cube)
    if tune is not None:
        server.reconfigure(tune)
    names = cube.dimensions.names
    for served, view in enumerate(sequence, start=1):
        server.view(
            [n for axis, n in enumerate(names) if axis not in view.aggregated_dims]
        )
        if reselect_every and served % reselect_every == 0:
            server.reconfigure()
    return server


def test_static_cube_only(benchmark, workload):
    cube, sequence = workload
    server = benchmark.pedantic(
        _serve, args=(cube, sequence), rounds=2, iterations=1
    )
    assert server.stats.operations > 0


def test_static_phase1_tuned(benchmark, workload):
    cube, sequence = workload
    phase1 = QueryPopulation.point_mass(sequence[:80])
    server = benchmark.pedantic(
        _serve, args=(cube, sequence, phase1), rounds=2, iterations=1
    )
    assert server.stats.operations > 0


def test_dynamic_assembler(benchmark, workload):
    cube, sequence = workload
    server = benchmark.pedantic(
        _serve,
        args=(cube, sequence),
        kwargs={"reselect_every": RESELECT_EVERY},
        rounds=2,
        iterations=1,
    )
    cube_only_ops = _serve(cube, sequence).stats.operations
    assert server.stats.operations < cube_only_ops
    print(
        f"\nadaptive ablation: dynamic {server.stats.operations:,} ops "
        f"vs cube-only {cube_only_ops:,} ops over {len(sequence)} queries "
        f"({server.stats.reconfigurations} reconfigurations)"
    )
