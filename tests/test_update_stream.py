"""Streaming-ingest equivalence: interleavings vs. recompute-from-scratch.

The property at stake: after *any* interleaving of ``update`` /
``update_many`` / ``query_batch`` / ``range_sum`` (with queries answered
mid-stream from patched warm state), the server is indistinguishable from
one freshly built on the final cube — bit-identically, because the cubes
are integer-valued.  Hypothesis drives random interleavings across shard
counts; the full differential gate gets a deterministic run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer
from repro.streaming import (
    UpdateStreamConfig,
    generate_trace,
    load_trace,
    run_update_differential,
    save_trace,
)

SIZES = (4, 8)
NAMES = ["d0", "d1"]
VIEWS = [[], ["d0"], ["d1"], ["d0", "d1"]]


def _build(values: np.ndarray, **kwargs) -> OLAPServer:
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(SIZES)]
    return OLAPServer(DataCube(values.copy(), dims, measure="m"), **kwargs)


def _op_strategy():
    coords = st.tuples(
        st.integers(0, SIZES[0] - 1), st.integers(0, SIZES[1] - 1)
    )
    delta = st.integers(-9, 9)
    return st.one_of(
        st.tuples(st.just("update"), coords, delta),
        st.tuples(
            st.just("update_many"),
            st.lists(st.tuples(coords, delta), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("query_batch"),
            st.lists(st.sampled_from(VIEWS), min_size=1, max_size=3),
        ),
        st.tuples(
            st.just("range"),
            st.tuples(
                st.tuples(st.integers(0, SIZES[0]), st.integers(0, SIZES[0])),
                st.tuples(st.integers(0, SIZES[1]), st.integers(0, SIZES[1])),
            ),
        ),
    )


def _replay(server: OLAPServer, reference: np.ndarray, ops) -> None:
    for op in ops:
        kind = op[0]
        if kind == "update":
            _, (i, j), delta = op
            server.update(float(delta), d0=i, d1=j)
            reference[i, j] += delta
        elif kind == "update_many":
            _, batch = op
            coords = np.array([c for c, _ in batch], dtype=np.int64)
            deltas = np.array([d for _, d in batch], dtype=np.float64)
            server.update_many(coords, deltas)
            np.add.at(reference, tuple(coords.T), deltas)
        elif kind == "query_batch":
            server.query_batch([list(r) for r in op[1]])
        elif kind == "range":
            _, ((a, b), (c, d)) = op
            server.range_sum(((min(a, b), max(a, b)), (min(c, d), max(c, d))))


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
        reference = base.copy()
        _replay(server, reference, ops)
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
        config = UpdateStreamConfig(operations=10)
        trace = generate_trace(config)
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
        trace = generate_trace(config)
        first = run_update_differential(config, trace=trace)
        second = run_update_differential(config, trace=trace)
        assert first == second
        assert first["ok"]
