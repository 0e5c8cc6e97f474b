"""TuningConfig: the single source of truth for performance knobs.

Covers the contract the autotuner leans on: construction reproduces the
historical module-constant defaults exactly (bit-identical serving),
persistence round-trips, unknown knobs fail loudly, the knob catalogue
stays in sync with the dataclass, and the profile threads through to
every layer that reads it — server result cache, buffer pools (monolithic
and sharded), and the ``health()`` audit surface.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer
from repro.tuning import DEFAULT_TUNING, KNOBS, TuningConfig, describe_knobs


def make_server(**kwargs) -> OLAPServer:
    sizes = (8, 4, 4)
    rng = np.random.default_rng(11)
    values = rng.integers(0, 100, size=sizes).astype(np.float64)
    dims = [
        Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)
    ]
    return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)


class TestConfigValueObject:
    def test_defaults_equal_shared_instance(self):
        assert TuningConfig() == DEFAULT_TUNING
        assert hash(TuningConfig()) == hash(DEFAULT_TUNING)

    def test_dict_round_trip(self):
        config = TuningConfig(dispatch_threshold=1 << 20, cache_entries=64)
        assert TuningConfig.from_dict(config.to_dict()) == config

    def test_save_load_round_trip(self, tmp_path):
        config = TuningConfig(
            dispatch_threshold=1 << 18,
            pool_min_cells=1 << 12,
            max_workers=2,
            cache_cells=100_000,
        )
        path = config.save(tmp_path / "tuned.json")
        assert TuningConfig.load(path) == config

    def test_unknown_knob_is_a_loud_error(self):
        with pytest.raises(ValueError, match="dispatch_treshold"):
            TuningConfig.from_dict({"dispatch_treshold": 1 << 16})
        # A profile saved before the process backend was removed.
        with pytest.raises(ValueError, match="unknown tuning knobs"):
            TuningConfig.from_dict({"process_threshold": 1 << 24})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dispatch_threshold": -1},
            {"pool_min_cells": -5},
            {"cache_entries": -1},
            {"max_workers": 0},
            {"max_retries": -1},
            {"retry_backoff_ms": -0.5},
            {"cache_cells": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            TuningConfig(**overrides)

    def test_replace_validates(self):
        tuned = DEFAULT_TUNING.replace(dispatch_threshold=1 << 20)
        assert tuned.dispatch_threshold == 1 << 20
        assert DEFAULT_TUNING.dispatch_threshold != 1 << 20
        with pytest.raises(ValueError):
            DEFAULT_TUNING.replace(max_workers=0)


class TestKnobCatalogue:
    def test_catalogue_matches_dataclass_fields(self):
        fields = {f.name for f in dataclasses.fields(TuningConfig)}
        catalogued = {name for name, _, _, _ in KNOBS}
        assert catalogued == fields

    def test_catalogue_defaults_match_config_defaults(self):
        defaults = DEFAULT_TUNING.to_dict()
        for name, default, subsystem, effect in KNOBS:
            assert defaults[name] == default
            assert subsystem and effect

    def test_describe_joins_effective_values(self):
        tuned = TuningConfig(dispatch_threshold=1 << 20)
        rows = {row["knob"]: row for row in describe_knobs(tuned)}
        assert rows["dispatch_threshold"]["value"] == 1 << 20
        assert (
            rows["dispatch_threshold"]["default"]
            == DEFAULT_TUNING.dispatch_threshold
        )


class TestServerThreading:
    def test_health_exposes_effective_tuning(self):
        server = make_server(tuning=TuningConfig(cache_entries=16))
        tuning = server.health()["tuning"]
        assert tuning["cache_entries"] == 16
        assert tuning == server.tuning.to_dict()

    def test_ctor_overrides_surface_in_health(self):
        server = make_server(cache_capacity=7, pool_max_cells=1 << 12)
        tuning = server.health()["tuning"]
        assert tuning["cache_entries"] == 7
        assert tuning["pool_max_cells"] == 1 << 12

    def test_cache_capacity_conflict_rejected(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            make_server(cache_capacity=7, cache_entries=9)

    def test_default_profile_serves_bit_identically(self):
        explicit = make_server(tuning=DEFAULT_TUNING)
        implicit = make_server()
        requests = [["d0"], ["d1", "d2"], [], ["d0", "d1", "d2"]]
        for got, want in zip(
            explicit.query_batch(requests), implicit.query_batch(requests)
        ):
            assert got.tobytes() == want.tobytes()

    def test_pool_floor_threads_to_monolithic_set(self):
        tuned = TuningConfig(pool_min_cells=1 << 13, pool_max_cells=1 << 15)
        server = make_server(tuning=tuned)
        pool = server._state.materialized.pool
        assert pool.min_cells == 1 << 13
        assert pool.max_cells == 1 << 15

    def test_pool_floor_threads_to_sharded_set(self):
        # The satellite fix: ShardedSet must take the pool floor from the
        # profile instead of hard-coding POOL_MIN_CELLS, so sharded and
        # monolithic paths tune identically.
        tuned = TuningConfig(pool_min_cells=1 << 13, pool_max_cells=1 << 15)
        server = make_server(tuning=tuned, shards=2)
        sharded = server._state.materialized
        pool = sharded._pool
        assert pool.min_cells == 1 << 13
        assert pool.max_cells == 1 << 15
        requests = [["d0"], ["d1", "d2"], []]
        reference = make_server().query_batch(requests)
        for got, want in zip(server.query_batch(requests), reference):
            assert got.tobytes() == want.tobytes()
