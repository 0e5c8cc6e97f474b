"""Schema snapshots for the externally-consumed telemetry surfaces.

Dashboards, Perfetto, scrapers, and bundle tooling parse these formats
outside this repo, so their key sets are contracts: a rename here is a
breaking change and must show up as a deliberate golden-file /
snapshot-test edit, never as an incidental refactor.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.obs import MetricsRegistry
from repro.obs.export import prometheus_text, render_chrome_trace
from repro.obs.flight import (
    BUNDLE_REQUIRED_KEYS,
    MANIFEST_REQUIRED_KEYS,
    validate_bundle,
)
from repro.obs.reporting import stats_payload
from repro.server import OLAPServer

GOLDEN = Path(__file__).parent / "golden"


def make_server(**kwargs) -> OLAPServer:
    rng = np.random.default_rng(11)
    sizes = (8, 8)
    values = rng.integers(0, 100, size=sizes).astype(np.float64)
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)


def serve_some(server: OLAPServer) -> None:
    server.view(["d0"])
    server.rollup({"d0": 1, "d1": 1})
    server.range_sum(((0, 4), (0, 4)))


class TestPrometheusGolden:
    def test_exposition_matches_golden(self):
        # Deterministic registry -> byte-identical exposition, including
        # the histogram _bucket/_sum/_count family and label escaping.
        registry = MetricsRegistry()
        counter = registry.counter("queries_total", "queries served, by kind")
        counter.inc(kind="view")
        counter.inc(kind="view")
        counter.inc(kind="rollup")
        registry.gauge("inflight", "queries currently admitted").set(3)
        histogram = registry.histogram(
            "latency_ms", "serve latency", buckets=(1.0, 5.0, 25.0)
        )
        for value in (0.5, 2.0, 30.0):
            histogram.observe(value, kind="view")
        expected = (GOLDEN / "prometheus_exposition.txt").read_text()
        assert prometheus_text(registry) == expected


class TestStatsPayload:
    def test_top_level_keys(self):
        server = make_server()
        serve_some(server)
        payload = stats_payload(
            server.metrics,
            server.tracer,
            health=server.health(),
            events=server.obs.events,
        )
        assert set(payload) == {
            "metrics",
            "spans",
            "span_summary",
            "tracer",
            "events",
            "health",
        }
        assert set(payload["tracer"]) == {
            "finished_spans",
            "dropped_spans",
            "max_spans",
            "traces",
        }
        server.close()

    def test_health_slo_keys_are_stable(self):
        server = make_server()
        serve_some(server)
        slo = server.health()["slo"]
        # The flat scalar keys dashboards alert on.
        for key in (
            "timeout_rate",
            "rejection_rate",
            "retry_rate",
            "degraded_rate",
            "tracer_dropped_spans",
            "events_dropped",
            "telemetry_loss",
            "latency_ms",
        ):
            assert key in slo, key
        assert set(slo["telemetry_loss"]) >= {
            "tracer_dropped_spans",
            "events_dropped",
            "metrics_dropped_series",
        }
        server.close()

    def test_new_observability_sections_present(self):
        server = make_server()
        serve_some(server)
        health = server.health()
        assert health["alerts"]["firing_now"] == []
        assert set(health["fingerprint"]["fingerprint"]) == {
            "view_frac",
            "rollup_frac",
            "range_frac",
            "hot_share",
            "ingest_norm",
            "divergence_norm",
        }
        assert health["flight"]["traces_seen"] > 0
        server.close()


class TestAdaptCycleAttributes:
    """What a dashboard reads to tell a reduced-state re-selection and a
    cold plan from a graph walk (``docs/observability.md``)."""

    def test_reconfigure_span_and_epoch_bump_event(self):
        server = make_server()
        serve_some(server)
        server.reconfigure()
        span = server.tracer.spans("server.reconfigure")[-1]
        assert set(span.attributes) >= {
            "operations",
            "epoch",
            "storage",
            "expected_cost",
            "selector",
            "states",
            "select_ms",
        }
        assert span.attributes["selector"] in ("reduced", "general")
        event = server.obs.events.events("epoch_bump")[-1]
        assert set(event) == {
            "seq",
            "ts",
            "kind",
            "epoch",
            "stored_elements",
            "expected_cost",
            "selector",
            "states",
            "select_ms",
        }
        server.close()

    def test_plan_span_reports_priced_states(self):
        server = make_server()
        server.query_batch([["d0"], ["d1"], []])
        span = server.tracer.spans("exec.plan")[-1]
        assert set(span.attributes) >= {
            "targets",
            "nodes",
            "planned_cost",
            "naive_cost",
            "plan_ms",
            "priced_states",
        }
        assert span.attributes["priced_states"] > 0
        server.close()


class TestChromeTraceSchema:
    def test_event_keys(self):
        server = make_server()
        serve_some(server)
        doc = json.loads(render_chrome_trace(server.tracer))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert set(event) == {
                    "ph",
                    "name",
                    "cat",
                    "pid",
                    "tid",
                    "ts",
                    "dur",
                    "args",
                }
                assert {"trace_id", "span_id", "parent_id"} <= set(
                    event["args"]
                )
            elif event["ph"] == "M":
                assert event["name"] == "thread_name"
                assert set(event) == {"ph", "name", "pid", "tid", "args"}
        server.close()


class TestBundleSchema:
    def test_dump_diagnostics_manifest_stability(self, tmp_path):
        server = make_server(diagnostics_dir=tmp_path)
        serve_some(server)
        path = server.dump_diagnostics(trigger={"kind": "test"})
        bundle = json.loads(Path(path).read_text())
        assert validate_bundle(bundle) == []
        # The full key set is the contract — additions require touching
        # BUNDLE_REQUIRED_KEYS (and docs/observability.md) on purpose.
        assert set(bundle) == set(BUNDLE_REQUIRED_KEYS)
        manifest = bundle["manifest"]
        assert set(manifest) == set(MANIFEST_REQUIRED_KEYS)
        assert manifest["bundle_format"] == 1
        assert manifest["contents"] == sorted(bundle)
        # tuning.json is the health section, not a second source.
        assert bundle["tuning"] == bundle["health"]["tuning"]
        assert len(bundle["tuning"]) == 11
        server.close()

    def test_bundle_sections_match_documented_constants(self):
        assert BUNDLE_REQUIRED_KEYS == (
            "manifest",
            "trigger",
            "health",
            "tuning",
            "metrics",
            "events_tail",
            "telemetry_loss",
            "exemplar_traces",
            "flight",
            "alerts",
            "fingerprint",
            "profiler",
            "durability",
        )
        assert MANIFEST_REQUIRED_KEYS == (
            "bundle_format",
            "created_unix",
            "trigger",
            "contents",
        )
