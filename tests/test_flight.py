"""Flight recorder: keep decisions, bounded state, diag bundle format.

The recorder is driven through a real :class:`~repro.obs.Tracer` (it is
a finish listener, not a parallel instrumentation path), with spans
opened directly so each test controls exactly what the root looks like:
errored, event-carrying, slow, or healthy.
"""

import json

import pytest

from repro.obs import MetricsRegistry, Tracer, add_span_event, flight
from repro.obs.flight import (
    BUNDLE_FORMAT,
    BUNDLE_REQUIRED_KEYS,
    KEEP_REASONS,
    MANIFEST_REQUIRED_KEYS,
    FlightRecorder,
    load_bundle,
    validate_bundle,
    write_bundle,
)


def make_recorder(monkeypatch=None, **constants):
    """A recorder on a fresh tracer, built with the named module
    ``constants`` of :mod:`repro.obs.flight` patched."""
    for name, value in constants.items():
        monkeypatch.setattr(flight, name, value)
    tracer = Tracer(max_spans=4096)
    recorder = FlightRecorder(tracer, MetricsRegistry())
    return tracer, recorder


def run_trace(tracer, name="serve", kind="view", fail=False, event=None):
    """One two-span trace (root + child) through the recorder."""
    with tracer.activate():
        try:
            with tracer.span(name, kind=kind):
                with tracer.span("inner"):
                    if event:
                        add_span_event(event)
                if fail:
                    raise RuntimeError("boom")
        except RuntimeError:
            pass


class TestKeepDecisions:
    def test_errored_root_is_kept(self):
        tracer, recorder = make_recorder()
        run_trace(tracer, fail=True)
        (trace,) = recorder.kept()
        assert trace.reason == "error"
        assert trace.root_name == "serve"
        assert trace.kind == "view"
        assert len(trace.spans) == 2  # the whole trace, not just the root

    def test_span_event_anywhere_keeps_the_trace(self):
        tracer, recorder = make_recorder()
        run_trace(tracer, event="retry")
        (trace,) = recorder.kept()
        assert trace.reason == "event"

    def test_error_outranks_event(self):
        tracer, recorder = make_recorder()
        run_trace(tracer, fail=True, event="retry")
        (trace,) = recorder.kept()
        assert trace.reason == "error"

    def test_head_sampling_keeps_one_in_n(self, monkeypatch):
        tracer, recorder = make_recorder(
            monkeypatch, HEAD_SAMPLE=8, MIN_SAMPLES=10**9
        )
        for _ in range(24):
            run_trace(tracer)
        heads = recorder.kept("head")
        assert len(heads) == 3  # roots 1, 9, 17
        assert recorder.traces_seen == 24

    def test_head_sampling_disabled(self, monkeypatch):
        tracer, recorder = make_recorder(
            monkeypatch, HEAD_SAMPLE=0, MIN_SAMPLES=10**9
        )
        for _ in range(16):
            run_trace(tracer)
        assert recorder.kept() == ()

    def test_slow_tail_sampling_by_quantile(self, monkeypatch):
        import time

        tracer, recorder = make_recorder(
            monkeypatch,
            HEAD_SAMPLE=0,
            MIN_SAMPLES=8,
            REFRESH_EVERY=1,
            SLOW_QUANTILE=0.9,
        )
        for _ in range(12):
            run_trace(tracer)  # fast baseline
        with tracer.activate():
            with tracer.span("serve", kind="view"):
                time.sleep(0.05)  # >> any baseline root
        slows = recorder.kept("slow")
        # Baseline roots near the quantile may also qualify; the genuinely
        # slow outlier must.
        assert any(t.duration_ms >= 50.0 for t in slows)
        key = "serve|view"
        assert key in recorder.snapshot()["slow_thresholds_ms"]

    def test_quantile_is_per_name_kind_site(self, monkeypatch):
        # A slow *rollup* must not be judged against *view* latencies:
        # before "rollup" has MIN_SAMPLES of its own, nothing is kept.
        import time

        tracer, recorder = make_recorder(
            monkeypatch, HEAD_SAMPLE=0, MIN_SAMPLES=8, REFRESH_EVERY=1
        )
        for _ in range(12):
            run_trace(tracer, kind="view")
        with tracer.activate():
            with tracer.span("serve", kind="rollup"):
                time.sleep(0.02)
        # A jittery baseline *view* root may legitimately cross its own
        # quantile; the isolation claim is only about the rollup.
        assert all(t.kind != "rollup" for t in recorder.kept("slow"))

    def test_kept_counter_lands_in_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        recorder = FlightRecorder(tracer, registry=registry)
        run_trace(tracer, fail=True)
        counter = registry.counter(
            "flight_traces_kept_total", "traces kept",
        )
        assert counter.value(reason="error") == 1
        assert recorder.kept_counts["error"] == 1


class TestBounds:
    def test_kept_ring_evicts_and_counts(self, monkeypatch):
        tracer, recorder = make_recorder(monkeypatch, MAX_TRACES=4)
        for _ in range(10):
            run_trace(tracer, fail=True)
        assert len(recorder.kept()) == 4
        assert recorder.loss()["kept_traces_evicted"] == 6

    def test_pending_traces_are_bounded(self, monkeypatch):
        from repro.obs import Span

        _, recorder = make_recorder(monkeypatch, MAX_PENDING=2)
        # Three in-flight traces whose children finish but whose roots
        # never do: the third sheds the oldest (most likely orphaned).
        for trace_id in (1, 2, 3):
            recorder.on_span(
                Span(name="inner", span_id=trace_id * 10, trace_id=trace_id,
                     parent_id=trace_id)
            )
        assert recorder.loss()["pending_traces_dropped"] == 1
        assert set(recorder._pending) == {2, 3}

    def test_spans_per_trace_are_bounded(self, monkeypatch):
        tracer, recorder = make_recorder(monkeypatch, MAX_SPANS_PER_TRACE=4)
        with tracer.activate():
            with tracer.span("serve", kind="view"):
                for _ in range(10):
                    with tracer.span("inner"):
                        pass
        assert recorder.loss()["trace_spans_dropped"] == 6
        # Head-sampled root 1 keeps what survived the span cap + the root.
        (trace,) = recorder.kept()
        assert len(trace.spans) == 5

    def test_close_detaches_idempotently(self):
        tracer, recorder = make_recorder()
        recorder.close()
        recorder.close()
        run_trace(tracer, fail=True)
        assert recorder.kept() == ()


class TestExemplars:
    def test_problems_first_then_heads(self, monkeypatch):
        tracer, recorder = make_recorder(
            monkeypatch, HEAD_SAMPLE=1, MIN_SAMPLES=10**9
        )
        run_trace(tracer)  # head
        run_trace(tracer, fail=True)  # error (also head slot 2, error wins)
        run_trace(tracer, event="retry")
        run_trace(tracer)
        picked = recorder.exemplars(limit=3)
        assert [t.reason for t in picked] == ["event", "error", "head"]

    def test_to_dict_renders_chrome_trace(self):
        tracer, recorder = make_recorder()
        run_trace(tracer, fail=True)
        doc = recorder.kept()[0].to_dict()
        assert doc["reason"] == "error"
        assert doc["spans"] == 2
        assert len(doc["chrome_trace"]["traceEvents"]) >= 2

    def test_health_ring_is_bounded(self, monkeypatch):
        _, recorder = make_recorder(monkeypatch, MAX_HEALTH=2)
        for i in range(5):
            recorder.note_health({"i": i})
        snaps = recorder.health_snapshots()
        assert [s["i"] for s in snaps] == [3, 4]
        assert all("unix_ts" in s for s in snaps)


def minimal_bundle(tracer=None, recorder=None):
    if recorder is None:
        tracer, recorder = make_recorder()
        run_trace(tracer, fail=True)
    bundle = {key: None for key in BUNDLE_REQUIRED_KEYS}
    bundle.update(
        {
            "trigger": {"kind": "test"},
            "health": {"slo": {"timeout_rate": 0.0}},
            "tuning": {"knobs": []},
            "metrics": {"counters": {}},
            "events_tail": [{"name": "epoch_bump"}],
            "telemetry_loss": recorder.loss(),
            "exemplar_traces": [t.to_dict() for t in recorder.exemplars()],
            "flight": recorder.snapshot(),
        }
    )
    bundle["manifest"] = {
        "bundle_format": BUNDLE_FORMAT,
        "created_unix": 0.0,
        "trigger": "test",
        "contents": sorted(bundle),
    }
    return bundle


class TestBundles:
    def test_file_bundle_round_trips(self, tmp_path):
        bundle = minimal_bundle()
        path = write_bundle(bundle, tmp_path / "diag.json")
        assert path.suffix == ".json"
        loaded = load_bundle(path)
        assert validate_bundle(loaded) == []
        assert loaded["exemplar_traces"][0]["reason"] == "error"

    def test_directory_bundle_round_trips(self, tmp_path):
        bundle = minimal_bundle()
        path = write_bundle(bundle, tmp_path / "diag")
        assert (path / "manifest.json").is_file()
        assert (path / "events.jsonl").is_file()
        traces = sorted(p.name for p in (path / "traces").glob("*.json"))
        assert traces and traces[0].startswith("trace_00_")
        loaded = load_bundle(path)
        assert validate_bundle(loaded) == []
        for key in BUNDLE_REQUIRED_KEYS:
            assert key in loaded
        assert loaded["events_tail"] == [{"name": "epoch_bump"}]

    def test_validate_accepts_paths(self, tmp_path):
        path = write_bundle(minimal_bundle(), tmp_path / "diag.json")
        assert validate_bundle(path) == []
        assert validate_bundle(str(path)) == []

    def test_validate_flags_missing_sections(self):
        bundle = minimal_bundle()
        del bundle["telemetry_loss"]
        problems = validate_bundle(bundle)
        assert any("telemetry_loss" in p for p in problems)

    def test_validate_flags_bad_manifest(self):
        bundle = minimal_bundle()
        bundle["manifest"]["bundle_format"] = 99
        assert any(
            "bundle_format" in p for p in validate_bundle(bundle)
        )
        bundle["manifest"] = "nope"
        assert validate_bundle(bundle) == ["manifest is not a mapping"]

    def test_validate_flags_empty_exemplar(self):
        bundle = minimal_bundle()
        bundle["exemplar_traces"] = [{"reason": "error", "chrome_trace": {}}]
        assert any("traceEvents" in p for p in validate_bundle(bundle))

    def test_validate_flags_unreadable_path(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert any(
            "unreadable" in p for p in validate_bundle(bad)
        )

    def test_manifest_schema_constants(self):
        # The documented schema: the constants the docs and external
        # tooling rely on must not silently change.
        assert BUNDLE_FORMAT == 1
        assert set(MANIFEST_REQUIRED_KEYS) == {
            "bundle_format",
            "created_unix",
            "trigger",
            "contents",
        }
        assert set(KEEP_REASONS) == {"error", "event", "slow", "head"}
