"""Streaming-ingest equivalence: interleavings vs. recompute-from-scratch.

The property at stake: after *any* interleaving of ``update`` /
``update_many`` / ``query_batch`` / ``range_sum`` (with queries answered
mid-stream from patched warm state), the server is indistinguishable from
one freshly built on the final cube — bit-identically, because the cubes
are integer-valued.  Hypothesis drives random interleavings (dict ops
through :func:`repro.replay.replay`) across shard counts; the full
differential gate gets a deterministic run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.replay import Replica, load_trace, replay, save_trace
from repro.server import OLAPServer
from repro.soak import UpdateStreamConfig, run_update_differential
from repro.workloads import flat_trace

SIZES = (4, 8)
NAMES = ["d0", "d1"]
VIEWS = [[], ["d0"], ["d1"], ["d0", "d1"]]


def _build(values: np.ndarray, **kwargs) -> OLAPServer:
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(SIZES)]
    return OLAPServer(DataCube(values.copy(), dims, measure="m"), **kwargs)


def _op_strategy():
    """Dict ops in the :mod:`repro.replay` vocabulary."""
    coords = st.tuples(
        st.integers(0, SIZES[0] - 1), st.integers(0, SIZES[1] - 1)
    ).map(list)
    delta = st.integers(-9, 9)
    bounds = [
        st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
        for n in SIZES
    ]
    return st.one_of(
        st.builds(
            lambda c, d: {"op": "update", "coords": c, "delta": d}, coords, delta
        ),
        st.lists(st.tuples(coords, delta), min_size=1, max_size=4).map(
            lambda batch: {
                "op": "update_many",
                "coords": [c for c, _ in batch],
                "deltas": [d for _, d in batch],
            }
        ),
        st.lists(st.sampled_from(VIEWS), min_size=1, max_size=3).map(
            lambda requests: {"op": "query_batch", "requests": requests}
        ),
        st.tuples(*bounds).map(lambda r: {"op": "range", "ranges": list(r)}),
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestInterleavingsMatchFreshServer:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        ops=st.lists(_op_strategy(), min_size=1, max_size=12),
    )
    def test_final_state_is_bit_identical(self, shards, seed, ops):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 50, size=SIZES).astype(np.float64)
        server = _build(base, shards=shards)
        replica = Replica(base)
        assert len(list(replay(server, ops, replica))) == len(ops)
        # Every mid-stream answer and the final sweep matched the replica.
        assert replica.compared > 0 and replica.mismatches == []
        reference = replica.values
        fresh = _build(reference, shards=shards)
        assert server.cube.values.tobytes() == reference.tobytes()
        for request in VIEWS:
            assert (
                server.view(list(request)).tobytes()
                == fresh.view(list(request)).tobytes()
            )
        for ranges in (((0, 4), (0, 8)), ((1, 3), (2, 7))):
            assert server.range_sum(ranges) == fresh.range_sum(ranges)
        # The linear path never degraded to a coarse invalidation.
        assert server.health()["updates_cache_cleared"] == 0


class TestDifferentialGate:
    def test_gate_passes_monolithic_and_sharded(self):
        report = run_update_differential(
            UpdateStreamConfig(
                sizes=(4, 8, 8), shard_counts=(1, 2, 4), operations=36
            )
        )
        assert report["ok"], report
        for run in report["runs"]:
            assert run["bit_identical"]
            assert run["cache_patched"] > 0
            assert run["cache_cleared"] == 0
            assert not run["epoch_violations"]

    def test_trace_roundtrips_through_json(self, tmp_path):
        trace = flat_trace(23, (8, 16, 16), 10)
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_load_trace_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"op": "update"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_trace(path)

    def test_replayed_trace_is_deterministic(self):
        config = UpdateStreamConfig(sizes=(4, 8), shard_counts=(1,), operations=16)
        trace = flat_trace(config.seed, config.sizes, config.operations)
        first = run_update_differential(config, trace=trace)
        second = run_update_differential(config, trace=trace)
        assert first == second
        assert first["ok"]
