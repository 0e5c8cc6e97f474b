"""End-to-end telemetry: cross-executor traces, profiles, exporters, SLOs.

The tentpole guarantees of the telemetry layer, tested at the server
boundary:

- one ``query_batch`` yields exactly one connected trace even when its DAG
  nodes run on pool worker threads;
- measured operation counts in the profile equal the planned cost exactly
  on the unfaulted path;
- seeded chaos (retries, degradation, fault injections) lands as events on
  the query span it happened inside;
- the exporters (Chrome trace JSON, Prometheus text, the stdlib HTTP
  endpoint, JSONL events) produce well-formed output from live servers.
"""

import json
import threading
from urllib.request import urlopen

import numpy as np
import pytest

from repro.core.adaptive import CostModelMonitor
from repro.errors import TransientFault
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Observability,
    Tracer,
    log_event,
    span,
)
from repro.obs.export import chrome_trace, prometheus_text, render_chrome_trace
from repro.obs.profile import query_profile, render_profile
from repro.replay import seeded_cube
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer

BATCH = [["d0"], ["d1"], ["d2"], ["d0", "d1"], ["d0", "d2"], ["d1", "d2"]]


def _make_server(seed=11, sizes=(8, 8, 8), **kwargs):
    return OLAPServer(seeded_cube(seed, sizes), **kwargs)


@pytest.fixture
def pool_every_node(monkeypatch):
    """Dispatch every node: the 8^3 cube's largest is far below the
    shipped threshold, which would demote these batches to serial."""
    monkeypatch.setattr("repro.core.exec.DISPATCH_THRESHOLD", 0)


def _assert_connected(spans):
    """Every span shares the root's trace id and parents resolve."""
    trace_ids = {s.trace_id for s in spans}
    assert len(trace_ids) == 1
    span_ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    for s in spans:
        assert s.parent_id is None or s.parent_id in span_ids


class TestPooledTrace:
    @pytest.mark.usefixtures("pool_every_node")
    def test_pooled_batch_is_one_connected_trace(self):
        server = _make_server()
        results = server.query_batch(BATCH, max_workers=4)
        spans = server.tracer.trace()
        _assert_connected(spans)
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == "server.query_batch"
        # The batch really crossed threads: exec.node spans ran on pool
        # workers, the root on the scheduler thread, all in one trace.
        nodes = [s for s in spans if s.name == "exec.node"]
        assert nodes
        worker_threads = {s.thread_id for s in nodes} - {root.thread_id}
        assert worker_threads
        # And the answers match serial serving bit for bit.
        plain = _make_server()
        for dims, result in zip(BATCH, results):
            assert result.tobytes() == plain.view(dims).tobytes()

    def test_every_view_call_is_its_own_trace(self):
        server = _make_server()
        server.view(["d0"])
        server.view(["d1"])
        assert len(server.tracer.trace_ids()) == 2

    @pytest.mark.usefixtures("pool_every_node")
    def test_pooled_profile_measured_equals_planned(self):
        server = _make_server()
        server.query_batch(BATCH, max_workers=4)
        profile = query_profile(server.tracer)
        totals = profile["totals"]
        assert totals["nodes"] > 0
        assert totals["measured"] == totals["planned"]
        assert totals["divergence"] == 1.0
        for node in profile["nodes"]:
            assert node["divergence"] == 1.0
        # render_profile produces the human table without blowing up.
        assert "meas/plan" in render_profile(profile)


class TestChaosEventsOnSpans:
    def test_retry_events_attach_to_the_query_span(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)
        server = _make_server(max_retries=2)
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    max_fires=1,
                )
            ],
            seed=3,
        )
        with injector.activate():
            server.view(["d0"])
        (query_span,) = server.tracer.spans("server.query")
        retry = next(
            e for e in query_span.events if e["name"] == "retry"
        )
        assert retry["attempt"] == 1
        assert retry["exhausted"] is False
        # The injection itself annotated the assembly span it fired
        # inside — a child of this very query in the same trace.
        fault_spans = [
            s
            for s in server.tracer.trace(query_span.trace_id)
            if any(e["name"] == "fault_injected" for e in s.events)
        ]
        assert fault_spans
        assert all(s.name == "materialize.assemble_batch" for s in fault_spans)

    @staticmethod
    def _assemble_faults(max_fires):
        return FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    max_fires=max_fires,
                )
            ],
            seed=3,
        )

    @staticmethod
    def _retry_counts(server):
        return (
            server.metrics.counter("server_retries_total").total(),
            server.metrics.counter("server_retry_exhausted_total").total(),
        )

    def test_batch_that_recovers_per_element_is_not_exhausted(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)
        expected = _make_server().query_batch([["d0"], ["d1"]])
        server = _make_server(max_retries=2)
        # Three faults spend the whole batch budget; the per-element
        # recovery then serves both answers.
        with self._assemble_faults(max_fires=3).activate():
            answers = server.query_batch([["d0"], ["d1"]])
        for got, want in zip(answers, expected):
            assert np.array_equal(got, want)
        assert self._retry_counts(server) == (3, 0)
        (batch_span,) = server.tracer.spans("server.query_batch")
        retries = [e for e in batch_span.events if e["name"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2, 3]
        assert not any(e["exhausted"] for e in retries)
        assert not any(
            e["exhausted"] for e in server.obs.events.events("retry")
        )

    def test_exhaustion_is_counted_when_the_call_fails_with_the_fault(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)
        server = _make_server(max_retries=2)
        with self._assemble_faults(max_fires=None).activate():
            with pytest.raises(TransientFault):
                server.query_batch([["d0"], ["d1"]])
        # Batch budget (3 faults, recovered from), then the first
        # element's own budget (3 faults, fatal).
        assert self._retry_counts(server) == (6, 1)
        flagged = [
            e["attempt"]
            for e in server.obs.events.events("retry")
            if e["exhausted"]
        ]
        assert flagged == [3]

    def test_shard_legs_that_fall_back_to_their_slabs_are_not_exhausted(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)
        expected = _make_server().view(["d0"])
        server = _make_server(shards=2, max_retries=2)
        broken_nodes = FaultInjector(
            [FaultRule(site="exec.compute_node", kind="error")], seed=3
        )
        with broken_nodes.activate():
            result = server.view(["d0"])
        assert np.array_equal(result, expected)
        # Each leg spent its own budget and served from its base slab; no
        # fault ever reached the server's retry loop.
        retries = server.metrics.get("shard_retries_total")
        degraded = server.metrics.get("shard_degraded_total")
        for shard in ("0", "1"):
            assert retries.value(shard=shard) == 3
            assert degraded.value(shard=shard) == 1
        assert self._retry_counts(server) == (0, 0)

    def test_fallback_event_attaches_when_set_goes_incomplete(self):
        server = _make_server()
        expected = _make_server().view(["d0"])
        # Quarantine the only stored element: assembly must degrade to a
        # base-cube recompute, annotated on the query span.
        server.materialized.quarantine(server.shape.root(), reason="test")
        result = server.view(["d0"])
        assert np.array_equal(result, expected)
        (query_span,) = server.tracer.spans("server.query")
        fallback = next(
            e for e in query_span.events if e["name"] == "fallback"
        )
        assert fallback["target"] == "base_cube"
        # The same story lands in the event log for log shippers.
        assert server.obs.events.events("fallback")


class TestHistogramQuantiles:
    @staticmethod
    def _hist(buckets=None):
        return MetricsRegistry().histogram("h", "test", buckets=buckets)

    def test_quantiles_interpolate_within_buckets(self):
        hist = self._hist(buckets=(1.0, 10.0, 100.0))
        for value in [2.0] * 50 + [20.0] * 50:
            hist.observe(value)
        stats = hist.stats()
        assert stats["count"] == 100
        # p50 falls in the (1, 10] bucket, p95/p99 in (10, 100].
        assert 1.0 <= stats["p50"] <= 10.0
        assert 10.0 <= stats["p95"] <= 100.0
        assert 10.0 <= stats["p99"] <= 100.0
        assert stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_quantiles_clamped_to_observed_range(self):
        hist = self._hist(buckets=(100.0,))
        hist.observe(5.0)
        hist.observe(7.0)
        stats = hist.stats()
        assert 5.0 <= stats["p50"] <= 7.0
        assert 5.0 <= stats["p99"] <= 7.0

    def test_empty_series_reports_zeros(self):
        hist = self._hist()
        assert hist.stats()["p99"] == 0.0
        assert hist.quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = self._hist()
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestTracerDrops:
    def test_ring_overflow_counts_drops_and_metric(self):
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=4)
        with registry.activate(), tracer.activate():
            for i in range(10):
                with span("work", index=i):
                    pass
        assert len(tracer.spans()) == 4
        assert tracer.dropped_spans == 6
        assert registry.counter("tracer_dropped_spans").total() == 6


class TestTracerInbox:
    def test_racing_writers_and_readers_lose_and_repeat_nothing(
        self, monkeypatch
    ):
        # Writers append lock-free while readers fold and trim the inbox,
        # and a tiny fold bound makes the writers fold too.
        import contextvars
        import sys

        from repro.obs import FlightRecorder, SiteProfiler, tracing

        monkeypatch.setattr(tracing, "FOLD_AT", 3)
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=64)
        recorder = FlightRecorder(tracer, registry)
        profiler = SiteProfiler(tracer)
        threads, traces = 4, 300
        done = threading.Event()
        failures: list[BaseException] = []

        def write() -> None:
            with tracer.activate():
                for _ in range(traces):
                    with span("root", kind="view"):
                        with span("child"):
                            pass

        def read() -> None:
            try:
                while not done.is_set():
                    profiler.snapshot()
                    recorder.loss()
                    tracer.spans()
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        writers = [
            threading.Thread(target=contextvars.copy_context().run, args=(write,))
            for _ in range(threads)
        ]
        reader = threading.Thread(target=read)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in (*writers, reader))
        assert failures == []
        sites = profiler.snapshot()
        assert {name: sites[name]["count"] for name in sites} == {
            "root": threads * traces,
            "child": threads * traces,
        }
        assert recorder.traces_seen == threads * traces
        assert recorder.loss()["pending_traces_dropped"] == 0
        assert len(tracer.spans()) == 64
        assert tracer.dropped_spans == 2 * threads * traces - 64

    def test_when_a_reader_folds_the_inbox_is_invisible(self, monkeypatch):
        # Two recorders and two profilers read one tracer's inbox: one of
        # each folds after every trace, the other at seeded points and when
        # the inbox bound folds both, so it decides on whole batches.
        import contextvars
        import random

        from repro.obs import FlightRecorder, SiteProfiler, add_span_event
        from repro.obs import flight, tracing

        small = {
            "MIN_SAMPLES": 4, "REFRESH_EVERY": 3, "WINDOW": 8,
            "HEAD_SAMPLE": 5, "MAX_TRACES": 6, "MAX_PENDING": 3,
            "MAX_SPANS_PER_TRACE": 2,
        }
        for name, value in small.items():
            monkeypatch.setattr(flight, name, value)
        monkeypatch.setattr(tracing, "FOLD_AT", 40)
        tracer = Tracer()
        readers = []
        for _ in range(2):
            recorder = FlightRecorder(tracer, MetricsRegistry())
            recorder._wall_offset = 1.7e9
            readers.append((recorder, SiteProfiler(tracer)))
        (every, every_sites), (batched, batched_sites) = readers
        batches: list[int] = []
        take = batched._take

        def counted(spans):
            batches.append(len(spans))
            take(spans)

        batched._take = counted

        def child() -> None:
            with span("exec.compute_node"):
                pass

        rng = random.Random(46)
        with tracer.activate():
            for _ in range(400):
                roll, late = rng.random(), None
                try:
                    with span("server.query", kind=rng.choice(("view", "range"))):
                        for _ in range(rng.choice((0, 1, 3))):
                            with span("exec.compute_node"):
                                if rng.random() < 0.05:
                                    add_span_event("retry")
                        if roll < 0.1:
                            late = contextvars.copy_context()
                        elif roll > 0.95:
                            raise ValueError("boom")
                except ValueError:
                    pass
                if late is not None:
                    late.run(child)  # a straggler: it outlives its root
                every.fold()
                every_sites.fold()
                if rng.random() < 0.05:
                    batched.fold()
                    batched_sites.fold()

        def state(recorder, profiler) -> dict:
            return {
                "kept": [
                    (t.trace_id, t.reason, t.unix_ts, len(t.spans))
                    for t in recorder.kept()
                ],
                "kept_counts": dict(recorder.kept_counts),
                "loss": recorder.loss(),
                "flight": recorder.snapshot(),
                "registry": recorder.registry.snapshot(),
                "profiler": profiler.snapshot(),
            }

        assert max(batches) > 40
        assert set(every.kept_counts) == {"error", "event", "slow", "head"}
        assert all(every.kept_counts.values())
        assert state(batched, batched_sites) == state(every, every_sites)


@pytest.mark.usefixtures("pool_every_node")
class TestExporters:
    def _traced_server(self):
        server = _make_server()
        server.query_batch(BATCH, max_workers=2)
        return server

    def test_chrome_trace_shape(self):
        server = self._traced_server()
        doc = chrome_trace(server.tracer)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert complete and metadata
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"pid", "tid", "name", "args"} <= set(e)
        # The rendered form is valid JSON and loads back identically.
        assert json.loads(render_chrome_trace(server.tracer)) == doc

    def test_chrome_trace_filters_by_trace_id(self):
        server = self._traced_server()
        server.view(["d0"])
        first_id = server.tracer.trace_ids()[0]
        doc = chrome_trace(server.tracer, first_id)
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "server.query_batch" in names
        assert "server.query" not in names

    def test_prometheus_text_exposition(self):
        server = self._traced_server()
        text = prometheus_text(server.metrics)
        assert "# TYPE server_queries_total counter" in text
        assert "# TYPE server_latency_ms histogram" in text
        assert 'kind="view"' in text
        # Histograms expose cumulative buckets ending at +Inf plus
        # _sum/_count series.
        assert 'le="+Inf"' in text
        assert "_sum" in text and "_count" in text
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_event_log_jsonl(self):
        log = EventLog(max_events=3)
        with log.activate():
            for i in range(5):
                log_event("tick", index=i)
        events = log.events()
        assert len(events) == 3
        assert log.dropped_events == 2
        assert [e["seq"] for e in events] == [3, 4, 5]
        for line in log.to_jsonl().splitlines():
            parsed = json.loads(line)
            assert parsed["kind"] == "tick"


class TestTelemetryEndpoint:
    def test_metrics_and_health_over_http(self):
        server = _make_server()
        server.view(["d0"])
        endpoint = server.serve_telemetry(port=0)
        try:
            with urlopen(f"{endpoint.url}/metrics", timeout=5) as resp:
                assert resp.status == 200
                body = resp.read().decode()
                assert "server_queries_total" in body
            with urlopen(f"{endpoint.url}/health", timeout=5) as resp:
                assert resp.status == 200
                health = json.loads(resp.read().decode())
                assert health["status"] == "ok"
                assert "slo" in health
        finally:
            endpoint.stop()

    def test_unknown_path_is_404(self):
        server = _make_server()
        endpoint = server.serve_telemetry(port=0)
        try:
            import urllib.error

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urlopen(f"{endpoint.url}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            endpoint.stop()


class TestServerSLO:
    def test_health_reports_latency_quantiles_per_kind(self):
        server = _make_server()
        for _ in range(4):
            server.view(["d0"])
        server.rollup({"d1": 1})
        slo = server.health()["slo"]
        assert set(slo["latency_ms"]) == {"view", "rollup"}
        view_stats = slo["latency_ms"]["view"]
        assert view_stats["count"] == 4
        assert 0.0 <= view_stats["p50_ms"] <= view_stats["p95_ms"]
        assert view_stats["p99_ms"] <= view_stats["max_ms"] or (
            abs(view_stats["p99_ms"] - view_stats["max_ms"]) < 1e-6
        )
        assert slo["timeout_rate"] == 0.0
        assert slo["rejection_rate"] == 0.0
        assert slo["tracer_dropped_spans"] == 0
        assert slo["events_dropped"] == 0

    def test_retry_rate_counts_chaos(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)
        server = _make_server(max_retries=2)
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble", kind="error", max_fires=1
                )
            ],
            seed=3,
        )
        with injector.activate():
            server.view(["d0"])
        assert server.health()["slo"]["retry_rate"] > 0.0


class TestCostModelFeedback:
    def test_unfaulted_profiles_never_trigger(self):
        monitor = CostModelMonitor()
        for _ in range(10):
            monitor.ingest(
                {"totals": {"nodes": 3, "planned": 100, "measured": 100}}
            )
        assert monitor.divergence == 1.0
        assert not monitor.should_reconfigure()

    def test_sustained_divergence_triggers(self):
        monitor = CostModelMonitor()
        for _ in range(10):
            monitor.ingest(
                {"totals": {"nodes": 3, "planned": 100, "measured": 200}}
            )
        assert monitor.divergence > 1.25
        assert monitor.should_reconfigure()

    def test_empty_profile_is_ignored(self):
        monitor = CostModelMonitor()
        monitor.ingest({"totals": {"nodes": 0, "planned": 0, "measured": 0}})
        assert monitor.profiles_ingested == 0

    def test_observe_profile_reconfigures_the_assembler(self):
        """``OLAPServer.observe_profile`` folds the profile into the
        server's own monitor and re-selects when it trips."""
        server = _make_server(sizes=(8, 8))
        server.view(["d1"])
        divergent = {
            "totals": {"nodes": 2, "planned": 100, "measured": 300},
            "elements": {"A(1,0)": {"divergence": 3.0}},
        }
        monitor = server.cost_monitor
        # The first profile seeds the decayed mean at 3.0: past tolerance.
        assert server.observe_profile(divergent) is True
        assert server.stats.reconfigurations == 1
        assert server.epoch == 1
        assert monitor.divergence == 3.0
        assert server.metrics.get("cost_model_mean_divergence").value() == 3.0
        assert server.fingerprints.fingerprint().divergence_norm == 0.75
        # The evidence resets with the new configuration.
        assert server.cost_monitor is not monitor
        assert server.cost_monitor.divergence == 1.0
        exact = {"totals": {"nodes": 2, "planned": 100, "measured": 100}}
        assert server.observe_profile(exact) is False
        assert server.epoch == 1

    @pytest.mark.usefixtures("pool_every_node")
    def test_server_profile_feeds_the_monitor(self):
        server = _make_server()
        server.query_batch(BATCH, max_workers=2)
        profile = server.query_profile()
        monitor = CostModelMonitor()
        monitor.ingest(profile)
        assert monitor.profiles_ingested == 1
        assert monitor.divergence == 1.0


class TestUntracedServer:
    def test_tracing_false_records_no_spans_but_serves(self):
        server = _make_server(observability=Observability(tracing=False))
        result = server.query_batch(BATCH, max_workers=2)
        assert len(result) == len(BATCH)
        assert server.tracer.spans() == ()
        # Metrics still flow: the registry is active regardless.
        assert server.metrics.counter("server_queries_total").total() > 0


class TestConcurrentTraces:
    def test_parallel_batches_get_distinct_connected_traces(self):
        server = _make_server()
        errors = []

        def work():
            try:
                server.query_batch(BATCH[:3], max_workers=2)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        trace_ids = server.tracer.trace_ids()
        assert len(trace_ids) == 3
        for trace_id in trace_ids:
            _assert_connected(server.tracer.trace(trace_id))


class TestCardinalityGuard:
    def test_overflow_folds_and_counts(self):
        registry = MetricsRegistry(max_label_sets=4)
        counter = registry.counter("hot_keys_total", "per-key hits")
        for i in range(10):
            counter.inc(key=f"k{i}")
        # Four real series survive; six writes folded into the overflow
        # bucket and were accounted.
        assert counter.value(overflow="true") == 6
        assert registry.dropped_series_total() == 6
        assert (
            registry.counter("metrics_dropped_series_total").value(
                metric="hot_keys_total"
            )
            == 6
        )
        # Established series keep counting normally under overflow.
        counter.inc(key="k0")
        assert counter.value(key="k0") == 2
        assert registry.dropped_series_total() == 6

    def test_overflow_series_visible_in_exposition(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("wild_total", "wild labels")
        for i in range(5):
            counter.inc(key=f"k{i}")
        text = prometheus_text(registry)
        assert 'wild_total{overflow="true"} 3' in text
        assert "metrics_dropped_series_total" in text

    def test_server_surfaces_drops_in_health(self):
        server = _make_server()
        counter = server.metrics.counter("custom_total", "test series")
        for i in range(server.metrics.max_label_sets + 5):
            counter.inc(key=f"k{i}")
        server.view(["d0"])
        loss = server.health()["slo"]["telemetry_loss"]
        assert loss["metrics_dropped_series"] == 5
        server.close()


class TestTelemetryLoss:
    def test_loss_sections_present_and_zero_when_healthy(self):
        server = _make_server()
        server.view(["d0"])
        loss = server.health()["slo"]["telemetry_loss"]
        assert loss["tracer_dropped_spans"] == 0
        assert loss["events_dropped"] == 0
        assert loss["metrics_dropped_series"] == 0
        assert loss["flight"] == {
            "pending_traces_dropped": 0,
            "trace_spans_dropped": 0,
            "kept_traces_evicted": 0,
        }
        server.close()

    def test_event_ring_drops_are_accounted(self):
        server = _make_server(observability=Observability(max_events=4))
        with server.obs.activate():
            for i in range(10):
                log_event("noise", i=i)
        loss = server.health()["slo"]["telemetry_loss"]
        assert loss["events_dropped"] == 6
        # The flat key dashboards already scrape stays in lockstep.
        assert server.health()["slo"]["events_dropped"] == 6
        server.close()
