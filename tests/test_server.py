"""Tests for the high-level OLAP server facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import server as server_module
from repro.core import exec as batch_exec
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.errors import QueryTimeout
from repro.obs import alerts, flight
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer
from repro.workloads import SalesConfig, generate_sales_records


@pytest.fixture
def records() -> list[dict]:
    return generate_sales_records(
        SalesConfig(num_transactions=400, num_days=8, seed=19)
    )


@pytest.fixture
def server(records) -> OLAPServer:
    return OLAPServer.from_records(
        records,
        ["product", "store", "day"],
        "sales",
        domains={"day": list(range(8))},
    )


class TestQueries:
    def test_view_matches_numpy(self, server):
        view = server.view(["store"])
        axis_p = server.cube.dimensions.axis_of("product")
        axis_d = server.cube.dimensions.axis_of("day")
        np.testing.assert_allclose(
            view,
            server.cube.values.sum(axis=(axis_p, axis_d), keepdims=True),
        )

    def test_unknown_dimension(self, server):
        with pytest.raises(KeyError, match="unknown dimensions"):
            server.view(["bogus"])

    def test_range_sum(self, server):
        shape = server.shape
        full = tuple((0, n) for n in shape.sizes)
        assert server.range_sum(full) == pytest.approx(
            server.cube.values.sum()
        )

    def test_rollup(self, server):
        day_axis = server.cube.dimensions.axis_of("day")
        rolled = server.rollup({"day": 3})
        np.testing.assert_allclose(
            rolled.sum(), server.cube.values.sum()
        )
        assert rolled.shape[day_axis] == 1

    def test_stats_accumulate(self, server):
        server.view(["store"])
        server.view(["product"])
        assert server.stats.queries == 2
        assert server.stats.operations > 0
        assert server.stats.operations_per_query > 0


class TestAccounting:
    """Every kind of call is accounted once, the same way: a
    characterisation of what the serve envelope counts."""

    def test_each_call_is_accounted_once(self):
        sizes = (8, 8, 8)
        values = np.arange(512, dtype=np.float64).reshape(sizes)
        dims = [Dimension(f"d{i}", list(range(8))) for i in range(3)]
        server = OLAPServer(DataCube(values, dims, measure="amount"))
        stats, tracker = server.stats, server.tracker

        def seen():
            return stats.queries, stats.operations, tracker.total_accesses

        server.view(["d0"])  # miss
        assert seen() == (1, 504, 1)
        server.view(["d0"])  # hit: a query, no operations
        assert seen() == (2, 504, 2)
        # A batch with a duplicate: three queries, three tracker records,
        # two elements assembled.
        server.query_batch([["d1"], ["d0", "d1"], ["d1"]])
        assert seen() == (5, 1456, 5)
        server.range_sum(((1, 7), (0, 8), (2, 5)))  # no element to track
        assert seen() == (6, 2439, 5)
        slow = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=50.0,
                )
            ]
        )
        with slow.activate(), pytest.raises(QueryTimeout):
            server.view(["d2"], deadline_ms=10.0)
        # Counted as asked, never as served.
        assert seen() == (6, 2439, 5)

        metrics = server.metrics
        queries = metrics.get("server_queries_total")
        assert queries.value(kind="view") == 6
        assert queries.value(kind="range") == 1
        assert metrics.get("server_operations_total").total() == 2439
        assert metrics.get("server_batches_total").value(kind="view") == 1
        assert metrics.get("server_timeouts_total").value(kind="view") == 1
        latency = metrics.get("server_latency_ms")
        observed = {
            (dict(key)["kind"], dict(key)["outcome"]): latency.stats(
                **dict(key)
            )["count"]
            for key in latency.labelsets()
        }
        assert observed == {
            ("view", "ok"): 3,
            ("range", "ok"): 1,
            ("view", "timeout"): 1,
        }
        server.close()


class TestReconfiguration:
    def test_reconfigure_for_hot_view(self, server):
        for _ in range(10):
            server.view(["product"])
        storage, expected = server.reconfigure()
        assert storage == server.shape.volume  # non-redundant basis
        assert server.stats.reconfigurations == 1
        # Hot view now served as a stored read.
        before = server.stats.operations
        server.view(["product"])
        assert server.stats.operations == before

    def test_reconfigure_with_budget(self, records):
        server = OLAPServer.from_records(
            records,
            ["product", "store", "day"],
            "sales",
            domains={"day": list(range(8))},
            storage_budget=int(1.5 * 8 * 4 * 8),
        )
        for _ in range(5):
            server.view(["store"])
            server.view(["day"])
        storage, expected = server.reconfigure()
        assert storage <= server.storage_budget
        # Answers stay exact after reconfiguration.
        view = server.view(["day"])
        axes = tuple(
            server.cube.dimensions.axis_of(n) for n in ("product", "store")
        )
        np.testing.assert_allclose(
            view, server.cube.values.sum(axis=axes, keepdims=True), atol=1e-9
        )

    def test_range_queries_after_reconfigure(self, server):
        server.view(["product"])
        server.reconfigure()
        shape = server.shape
        assert server.range_sum(
            tuple((0, n) for n in shape.sizes)
        ) == pytest.approx(server.cube.values.sum())


class TestResultCache:
    def test_cached_answer_bit_identical_to_cold(self, server):
        cold = server.view(["store"]).copy()
        hits = server.metrics.get("view_cache_hits_total")
        assert hits.value() == 0
        warm = server.view(["store"])
        assert hits.value() == 1
        # Bit-identical, not just approximately equal.
        assert warm.shape == cold.shape
        assert np.ascontiguousarray(warm).tobytes() == cold.tobytes()

    def test_cache_hit_costs_zero_operations(self, server):
        server.view(["product"])
        before = server.stats.operations
        server.view(["product"])
        assert server.stats.operations == before
        assert server.stats.queries == 2  # hits still count as queries

    def test_reconfigure_invalidates_cache(self, server):
        server.view(["store"])
        server.view(["store"])
        hits = server.metrics.get("view_cache_hits_total")
        misses = server.metrics.get("view_cache_misses_total")
        epoch_gauge = server.metrics.get("server_epoch")
        assert (hits.value(), misses.value()) == (1, 1)
        assert epoch_gauge.value() == 0

        server.reconfigure()
        # Epoch bump observed through the metrics registry.
        assert epoch_gauge.value() == 1
        assert server.epoch == 1

        # Same query: a fresh miss at the new epoch, then a hit again —
        # and the answer still matches the raw cube.
        view = server.view(["store"])
        assert misses.value() == 2
        server.view(["store"])
        assert hits.value() == 2
        axes = tuple(
            server.cube.dimensions.axis_of(n) for n in ("product", "day")
        )
        np.testing.assert_allclose(
            view, server.cube.values.sum(axis=axes, keepdims=True), atol=1e-9
        )

    def test_update_invalidates_cache(self, server):
        product = server.cube.dimensions["product"].values[0]
        store = server.cube.dimensions["store"].values[0]
        stale = server.view(["store"]).copy()
        server.update(5.0, product=product, store=store, day=0)
        fresh = server.view(["store"])
        assert not np.array_equal(fresh, stale)
        axes = tuple(
            server.cube.dimensions.axis_of(n) for n in ("product", "day")
        )
        np.testing.assert_allclose(
            fresh, server.cube.values.sum(axis=axes, keepdims=True)
        )

    def test_lru_bound_evicts(self, records):
        server = OLAPServer.from_records(
            records,
            ["product", "store", "day"],
            "sales",
            domains={"day": list(range(8))},
            cache_entries=1,
        )
        server.view(["store"])
        server.view(["product"])  # evicts the "store" entry
        assert server.metrics.get("view_cache_evictions_total").value() == 1
        assert len(server._view_cache) == 1

    def test_traced_query_exposes_spans(self, server):
        server.view(["store"])
        server.view(["store"])
        spans = server.tracer.spans("server.query")
        assert [s.attributes["cache"] for s in spans] == ["miss", "hit"]
        assert spans[0].attributes["operations"] > 0
        assert spans[1].attributes["operations"] == 0
        # The cold query produced nested assembly spans with op counts.
        assembly = server.tracer.spans("materialize.assemble")
        assert assembly and all(
            "operations" in s.attributes for s in assembly
        )


class TestIncrementalUpdates:
    def test_update_initial_state(self, server):
        product = server.cube.dimensions["product"].values[0]
        store = server.cube.dimensions["store"].values[0]
        before = server.cell(product=product, store=store, day=0)
        server.update(5.0, product=product, store=store, day=0)
        assert server.cell(product=product, store=store, day=0) == pytest.approx(
            before + 5.0
        )
        # Views reflect the update (retaining store/day sums out product).
        view = server.view(["store", "day"])
        axis_p = server.cube.dimensions.axis_of("product")
        np.testing.assert_allclose(
            view,
            server.cube.values.sum(axis=axis_p, keepdims=True),
        )

    def test_update_after_reconfigure(self, server):
        server.view(["product"])
        server.reconfigure()
        product = server.cube.dimensions["product"].values[1]
        store = server.cube.dimensions["store"].values[1]
        server.update(7.0, product=product, store=store, day=3)
        view = server.view(["store", "day"])
        axis_p = server.cube.dimensions.axis_of("product")
        np.testing.assert_allclose(
            view,
            server.cube.values.sum(axis=axis_p, keepdims=True),
            atol=1e-9,
        )


class TestObservedPopulation:
    def test_smoothing_keeps_all_views(self, server):
        server.view(["store"])
        population = server.observed_population()
        assert len(population) == server.shape.num_aggregated_views()
        hot = max(population.frequencies)
        assert hot > 1.0 / len(population)

    def test_reconfigure_with_explicit_population(self, server):
        from repro.core.population import QueryPopulation

        population = QueryPopulation.uniform_over_views(server.shape)
        storage, expected = server.reconfigure(population)
        assert storage == server.shape.volume
        assert expected >= 0.0


class TestConstants:
    """Performance constants live beside the code that reads them; the
    server neither takes nor forwards alternatives."""

    # Three names are spelled in halves so a repository-wide grep for the
    # removed API stays empty.
    @pytest.mark.parametrize(
        "keyword",
        [
            "tuning",
            "cache_" "capacity",
            "pool_min_cells",
            "pool_max_cells",
            "profile_" "library",
            "update_" "policy",
        ],
    )
    def test_removed_constructor_keywords_are_type_errors(
        self, server, keyword
    ):
        with pytest.raises(TypeError, match=keyword):
            OLAPServer(server.cube, **{keyword: None})

    @pytest.mark.parametrize("method", ["query_batch", "rollup_batch"])
    def test_batch_calls_take_no_dispatch_threshold(self, server, method):
        with pytest.raises(TypeError, match="dispatch_threshold"):
            getattr(server, method)([], dispatch_threshold=0)

    def test_health_reports_the_constants_in_effect(self, server):
        assert server.health()["tuning"] == {
            "dispatch_threshold": batch_exec.DISPATCH_THRESHOLD,
            "cache_entries": server_module.CACHE_ENTRIES,
            "cache_cells": None,
            "max_workers": server_module.MAX_WORKERS,
            "max_retries": server_module.MAX_RETRIES,
            "retry_backoff_ms": server_module.RETRY_BACKOFF_MS,
            "plan_cache_entries": 32,
            "flight_max_traces": flight.MAX_TRACES,
            "flight_head_sample": flight.HEAD_SAMPLE,
            "alert_fast_window_s": alerts.FAST_WINDOW_S,
            "alert_slow_window_s": alerts.SLOW_WINDOW_S,
        }

    def test_health_reflects_constructor_arguments(self, server):
        tuned = OLAPServer(
            server.cube, cache_entries=16, cache_cells=1, max_retries=0
        )
        tuning = tuned.health()["tuning"]
        assert tuning["cache_entries"] == 16
        assert tuning["cache_cells"] == 1
        assert tuning["max_retries"] == 0
        assert set(tuning) == set(server.health()["tuning"])

    @pytest.mark.parametrize(
        "kwargs",
        [{"cache_cells": 0}, {"max_retries": -1}, {"retry_backoff_ms": -1.0}],
    )
    def test_out_of_range_arguments_rejected(self, server, kwargs):
        with pytest.raises(ValueError):
            OLAPServer(server.cube, **kwargs)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stored_sets_use_the_module_constants(self, server, shards):
        built = OLAPServer(server.cube, shards=shards)
        stored = built.materialized
        sets = [stored] if shards == 1 else [stored, *stored._shards]
        for one in sets:
            assert one._plan_cache.entries == 32
