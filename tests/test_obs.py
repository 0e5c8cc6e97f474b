"""Tests for the observability layer (metrics, tracing, cache, reporting)."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs import (
    LRUCache,
    MetricsRegistry,
    Observability,
    Tracer,
    current_registry,
    current_span,
    current_tracer,
    default_registry,
    span,
)
from repro.obs.reporting import render_json, render_text, stats_payload


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("queries_total")
        assert c.value() == 0
        c.inc()
        c.inc(2)
        assert c.value() == 3

    def test_labels_are_independent_series(self):
        registry = MetricsRegistry()
        c = registry.counter("queries_total")
        c.inc(kind="view")
        c.inc(kind="view")
        c.inc(kind="range")
        assert c.value(kind="view") == 2
        assert c.value(kind="range") == 1
        assert c.value() == 0  # unlabelled series untouched
        assert c.total() == 3

    def test_decrease_rejected(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_idempotent_creation_and_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")


class TestGaugeAndHistogram:
    def test_gauge_set_and_adjust(self):
        g = MetricsRegistry().gauge("size")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("ops")
        for v in (1, 2, 9):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 3
        assert stats["sum"] == 12
        assert stats["min"] == 1
        assert stats["max"] == 9
        assert stats["mean"] == 4

    def test_empty_histogram_stats(self):
        assert MetricsRegistry().histogram("ops").stats()["count"] == 0

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        c = registry.counter("n")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000


class TestRegistryContext:
    def test_default_registry_is_fallback(self):
        assert current_registry() is default_registry()

    def test_activation_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with outer.activate():
            assert current_registry() is outer
            with inner.activate():
                assert current_registry() is inner
            assert current_registry() is outer
        assert current_registry() is default_registry()

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a", "a counter").inc(kind="x")
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert snap["a"]["type"] == "counter"
        assert snap["a"]["description"] == "a counter"
        assert snap["a"]["values"] == {"kind=x": 1.0}
        assert snap["h"]["values"][""]["count"] == 1


class TestTracing:
    def test_span_records_parent_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=1) as inner:
                inner.set(extra="yes")
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attributes == {"depth": 1, "extra": "yes"}
        assert inner.duration >= 0
        assert inner.end is not None

    def test_span_starts_at_enter_and_records_how_it_exited(self):
        tracer = Tracer()
        opened = tracer.span("work", step=1)
        assert tracer.spans() == () and current_span() is None
        with pytest.raises(KeyError):
            with opened as active:
                assert current_span() is active
                raise KeyError("boom")
        assert current_span() is None
        (failed,) = tracer.spans()
        assert failed.attributes == {"step": 1, "error": "KeyError"}
        assert failed.end is not None and failed.end >= failed.start
        with tracer.span("work", error="mine"):
            pass  # an attribute the code set itself is never overwritten
        assert tracer.spans()[-1].attributes == {"error": "mine"}

    def test_process_id_is_the_running_process_even_after_fork(self):
        tracer = Tracer()
        with tracer.span("parent"):
            pass
        assert tracer.spans()[-1].process_id == os.getpid()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report and leave without running pytest's exit
            try:
                with tracer.span("child") as child:
                    pass
                os.write(write_end, f"{child.process_id} {os.getpid()}".encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            recorded, actual = pipe.read().split()
        os.waitpid(pid, 0)
        assert recorded == actual == str(pid)

    def test_module_helper_noops_without_tracer(self):
        assert current_tracer() is None
        with span("orphan") as s:
            s.set(ignored=True)  # must not raise

    def test_module_helper_routes_to_active_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with span("work", operations=7):
                pass
        assert tracer.spans("work")[0].attributes["operations"] == 7

    def test_ring_buffer_bounded(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_summary_aggregates_operations(self):
        tracer = Tracer()
        with tracer.activate():
            for ops in (3, 4):
                with span("q", operations=ops):
                    pass
        summary = tracer.summary()
        assert summary["q"]["count"] == 2
        assert summary["q"]["operations"] == 7
        assert summary["q"]["mean_ms"] >= 0


class TestLRUCache:
    def test_hit_miss_metrics(self):
        registry = MetricsRegistry()
        cache = LRUCache(max_entries=2, registry=registry, name="c")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert registry.get("c_hits_total").value() == 1
        assert registry.get("c_misses_total").value() == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        registry = MetricsRegistry()
        cache = LRUCache(max_entries=2, registry=registry, name="c")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.keys() == ("a", "c")
        assert registry.get("c_evictions_total").value() == 1

    def test_weight_bound(self):
        registry = MetricsRegistry()
        cache = LRUCache(
            max_entries=10,
            max_weight=10,
            weigh=len,
            registry=registry,
            name="c",
        )
        cache.put("a", [0] * 6)
        cache.put("b", [0] * 6)  # 12 > 10: evicts "a"
        assert "a" not in cache and "b" in cache
        assert cache.weight == 6
        cache.put("big", [0] * 99)  # heavier than the whole budget
        assert "big" not in cache

    def test_clear_counts_separately(self):
        registry = MetricsRegistry()
        cache = LRUCache(max_entries=4, registry=registry, name="c")
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert registry.get("c_clears_total").value() == 1
        assert registry.get("c_evictions_total").value() == 0
        assert registry.get("c_size").value() == 0

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(max_entries=2, registry=MetricsRegistry())
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestObservability:
    def test_activation_routes_both(self):
        obs = Observability()
        with obs.activate():
            assert current_registry() is obs.registry
            assert current_tracer() is obs.tracer
            with span("x", operations=1):
                current_registry().counter("n").inc()
        assert obs.registry.get("n").value() == 1
        assert obs.tracer.spans("x")

    def test_reset(self):
        obs = Observability()
        obs.registry.counter("n").inc()
        with obs.tracer.span("x"):
            pass
        obs.reset()
        assert obs.registry.names() == ()
        assert obs.tracer.spans() == ()


class TestReporting:
    def _populated(self) -> Observability:
        obs = Observability()
        obs.registry.counter("queries_total", "queries").inc(kind="view")
        obs.registry.histogram("ops").observe(5)
        with obs.tracer.span("server.query", operations=5):
            pass
        return obs

    def test_json_round_trips(self):
        obs = self._populated()
        payload = json.loads(render_json(obs.registry, obs.tracer))
        assert payload["metrics"]["queries_total"]["values"] == {
            "kind=view": 1.0
        }
        assert payload["spans"][0]["name"] == "server.query"
        assert payload["spans"][0]["attributes"]["operations"] == 5
        assert payload["span_summary"]["server.query"]["operations"] == 5

    def test_payload_without_tracer(self):
        obs = self._populated()
        assert "spans" not in stats_payload(obs.registry)

    def test_text_contains_sections(self):
        obs = self._populated()
        text = render_text(obs.registry, obs.tracer)
        assert "metrics" in text
        assert "queries_total" in text
        assert "histograms" in text
        assert "server.query" in text

    def test_text_empty_registry(self):
        assert "no metrics" in render_text(MetricsRegistry())