"""The telemetry budget of the hit path, as counts — not timings.

A cached view, a cached roll-up batch and a range sum each pay for a fixed,
small amount of telemetry: every metric through a series bound at
construction (no label key built, no by-name registry lookup), no alert
evaluation pass on a healthy stream, no generator-based context manager in
the envelope, one span for the call — and no incident-layer work: the
flight recorder, site profiler, alert rules and fingerprint only append,
and fold when read.  A timing gate would need a quiet
machine; these counts repeat exactly.

The second half pins that the cheaper write paths are the *same*
telemetry: bound and keyword writes share series, the cardinality guard
still folds, and a replayed trace leaves the registry the parent commit
left (``tests/golden/telemetry_replay.json``, written by running this file
as a script against the parent commit's ``src``:
``PYTHONPATH=<parent>/src python tests/test_telemetry_budget.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.element import ElementId
from repro.obs import MetricsRegistry, Observability, SiteProfiler, Tracer
from repro.obs import metrics as metrics_module
from repro.obs import alerts as alerts_module
from repro.obs.alerts import AlertEngine
from repro.obs.export import prometheus_text
from repro.obs.fingerprint import FingerprintTracker
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MAX_LABEL_SETS, OVERFLOW_KEY
from repro.replay import Replica, replay, seeded_cube
from repro.server import OLAPServer
from repro.workloads.traces import flat_trace

GOLDEN = Path(__file__).parent / "golden" / "telemetry_replay.json"

SIZES = (16, 8, 4)
ROLLUPS = [{"d0": 1}, {"d1": 1}, {"d0": 2, "d1": 1}, {"d2": 1}, {"d0": 1, "d2": 2}]
VIEWS = [["d0"], ["d1"], ["d2"], ["d0", "d1"], ["d1", "d2"]]
FULL_RANGE = tuple((1, n - 1) for n in SIZES)

#: The calls under budget, with the spans each records: the envelope's one
#: (a range sum's engine opens none of its own).
CALLS = {
    "view": (lambda server: server.view(["d0"]), 1),
    "rollup_batch": (lambda server: server.rollup_batch(ROLLUPS), 1),
    "query_batch": (lambda server: server.query_batch(VIEWS), 1),
    "range_sum": (lambda server: server.range_sum(FULL_RANGE), 1),
}


class Calls:
    """Counts calls of patched functions, by label."""

    def __init__(self, monkeypatch):
        self.counts: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def watch(self, owner, name: str, label: str) -> None:
        original = getattr(owner, name)
        self.counts[label] = 0

        def counted(*args, **kwargs):
            self.counts[label] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name", CALLS)
def test_warm_call_stays_inside_the_budget(name, monkeypatch):
    call, spans = CALLS[name]
    # A ring this small has wrapped before the counted call, as a serving
    # process's has within its first second: every span overwrites one.
    server = OLAPServer(
        seeded_cube(5, SIZES), observability=Observability(max_spans=4)
    )
    for _ in range(4):  # fill the result cache, bind every lazy handle
        call(server)
    # Read before the watches: the read folds the call log, which is not
    # the served call's own work.
    evaluations = server.alerts.snapshot()["evaluations"]
    calls = Calls(monkeypatch)
    calls.watch(metrics_module, "_label_key", "label keys built")
    calls.watch(MetricsRegistry, "_get_or_create", "by-name lookups")
    calls.watch(MetricsRegistry, "histogram", "by-name lookups (histogram)")
    calls.watch(AlertEngine, "_evaluate_locked", "alert evaluation passes")
    # The incident layer only appends during the call; it folds when read.
    calls.watch(FlightRecorder, "_classify", "flight classifications")
    calls.watch(SiteProfiler, "_account", "profiler site accounts")
    calls.watch(alerts_module._RuleState, "add", "alert rule adds")
    calls.watch(FingerprintTracker, "_bump", "fingerprint ticks")
    calls.watch(
        contextlib._GeneratorContextManagerBase,
        "__init__",
        "generator context managers",
    )
    newest = max(s.span_id for s in server.tracer.spans())
    overwritten = server.tracer.dropped_spans
    call(server)
    recorded = [s for s in server.tracer.spans() if s.span_id > newest]
    assert calls.counts == {
        "label keys built": 0,
        "by-name lookups": 0,
        "by-name lookups (histogram)": 0,
        "alert evaluation passes": 0,
        "generator context managers": 0,
        "flight classifications": 0,
        "profiler site accounts": 0,
        "alert rule adds": 0,
        "fingerprint ticks": 0,
    }
    assert len(recorded) == spans
    assert [s.name for s in recorded if s.parent_id is None] == [
        "server.query_batch" if name.endswith("_batch") else "server.query"
    ]
    assert server.alerts.snapshot()["evaluations"] == evaluations
    assert server.alerts.snapshot()["records"] == 5
    # Overwrites are still counted, through the series bound on the first.
    assert server.tracer.dropped_spans == overwritten + spans
    assert (
        server.metrics.counter("tracer_dropped_spans").total()
        == server.tracer.dropped_spans
    )
    server.close()


#: Per warm call: bound-series writes (``inc`` / ``observe``) and Python
#: calls into ``repro``.  A served call appends one record to the call log
#: and folds nothing, so what is left is the call's own work: a view's one
#: write is the result cache's hit counter.  The envelope sets its
#: contextvars itself and opens and closes its span with two tracer calls
#: (``_open`` / ``_close``, one inbox append), and the alert sample is one
#: ``defer`` riding the call-log record.  Comprehension frames are not
#: counted: Python 3.12 inlines them (PEP 709), 3.11 does not.  (With the
#: envelope writing per call these were 5 / 10 / 9 writes and 51 / 133 / 92
#: calls; with it polling the stored set's quarantine, 37 / 108 / 78 calls;
#: with nested activation and span context managers and two trace
#: listeners, 36 / 107 / 77, and 110 for the query batch; with a separate
#: single-element path, a range engine span and comprehensions uncounted,
#: 26 / 94 / 97 / 60; with the range's cell count summed through
#: generators, 48 for the range sum.)
#:
#: A warm burst on a one-shard server — after its first, with every read
#: above warm — has a budget too: one compiled scatter over the stored and
#: warm arrays, no liveness sweep (no owner dropped anything), its
#: fingerprint note appended to the call log, not folded, and the burst's
#: own counters written through bound series.  (With a second scatter, a
#: liveness poll per owner and a call-log fold per burst it was 92 calls.)
#:
#: A request list resolves in one pass, by table (the cube's name-to-axis
#: table, the shape's depths, its intern table), and the result cache is
#: probed once per call, so a view's hit is 18 calls and a batch of five
#: hits 36; a
#: counter's write is one call, as a gauge's is, so the range sum makes
#: 32 and the burst 63.  (Resolving each name through ``axis_of`` and a
#: level through ``as_index``, with one cache ``get`` and one hit
#: increment per member and a counter write delegating to the gauge's, it
#: was 23 / 78 / 81 / 35 / 68, with 6 writes per batch.)
#:
#: A roll-up batch whose one member is derived from a warm ancestor — the
#: rest warm range intermediates, the result cache dropped before each
#: call — runs the route the range engine compiled for it: one fused
#: cascade, every assembly series bound per set.  (Re-deriving the steps
#: and re-checking containment per miss, with four by-name registry
#: lookups and an f-string label per cascade step, it was 164 calls.)
#:
#: Warm state is read by level-vector slot: a member's slot indexes the
#: range engine's warm table, the result cache is keyed by slot, a request
#: resolves through the shape's slot table, and a range read finds a
#: verified stored array by slot too — so a warm read hashes no
#: ``ElementId`` (``__hash__`` is a Python method: each dict probe keyed by
#: one is a call).  A miss walks its ancestor slots, smallest first, and
#: one whose smallest warm ancestor is a cached answer derives from it.
#: (Keyed by element, with the engine's lookup a method of its own, it was
#: 18 / 36 / 36 / 32 / 63 / 79 calls, with 2 / 15 / 15 / 3 / 8 / 18 of
#: them hashes.)
HIT_PATH = {
    "view": {"series writes": 1, "repro calls": 14, "ElementId hashes": 0},
    "rollup_batch": {"series writes": 2, "repro calls": 15, "ElementId hashes": 0},
    "query_batch": {"series writes": 2, "repro calls": 15, "ElementId hashes": 0},
    "range_sum": {"series writes": 4, "repro calls": 24, "ElementId hashes": 0},
    "update_many": {"series writes": 5, "repro calls": 63, "ElementId hashes": 8},
    "derived_miss": {"series writes": 7, "repro calls": 62, "ElementId hashes": 8},
    "cached_ancestor_miss": {
        "series writes": 5,
        "repro calls": 60,
        "ElementId hashes": 8,
    },
}
BURST = ([[1, 2, 3], [15, 0, 1], [1, 2, 3], [7, 7, 0]], [2.0, -1.0, 3.0, 5.0])
#: Four aligned one-block ranges: their level combinations (1, 0, 0),
#: (2, 1, 0), (0, 1, 0) and (1, 1, 1) are held warm by the range engine.
WARM_RANGES = [
    ((0, 2), (0, 1), (0, 1)),
    ((4, 8), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 1)),
    ((0, 2), (0, 2), (0, 2)),
]
#: Four warm members, and levels (3, 2, 0), derived from (2, 1, 0).
DERIVED = [
    {"d0": 1},
    {"d0": 2, "d1": 1},
    {"d1": 1},
    {"d0": 1, "d1": 1, "d2": 1},
    {"d0": 3, "d1": 2},
]


def _burst(server: OLAPServer) -> None:
    server.update_many(*BURST)


def _derived_miss(server: OLAPServer) -> None:
    server.rollup_batch(DERIVED)


def _cached_ancestor_miss(server: OLAPServer) -> None:
    server.rollup({"d0": 3, "d1": 2})


def _cache_the_ancestor(server: OLAPServer) -> None:
    """Drop the result cache, then cache levels (2, 1, 0) — derived from
    the engine's (1, 0, 0) — so that the counted roll-up to (3, 2, 0)
    misses, and its smallest warm ancestor is the cached answer."""
    server._state.cache.clear()
    server.rollup({"d0": 2, "d1": 1})


#: Per row: the counted call, what runs once before its warm-up, and what
#: runs uncounted before every call.
ROWS = {
    **{name: (call, None, None) for name, (call, _) in CALLS.items()},
    "update_many": (
        _burst, lambda server: [read(server) for read, _ in CALLS.values()],
        None,
    ),
    "derived_miss": (
        _derived_miss,
        lambda server: [server.range_sum(r) for r in WARM_RANGES],
        lambda server: server._state.cache.clear(),
    ),
    "cached_ancestor_miss": (
        _cached_ancestor_miss,
        lambda server: server.range_sum(WARM_RANGES[0]),
        _cache_the_ancestor,
    ),
}
REPRO = str(Path(repro.__file__).parent)
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>")


@pytest.mark.parametrize("name", HIT_PATH)
def test_warm_call_writes_and_calls_stay_inside_the_budget(name, monkeypatch):
    call, setup, before = ROWS[name]
    before = before or (lambda server: None)
    server = OLAPServer(
        seeded_cube(5, SIZES), observability=Observability(max_spans=4)
    )
    if setup is not None:
        setup(server)
    for _ in range(4):
        before(server)
        call(server)
    before(server)
    calls = Calls(monkeypatch)
    calls.watch(metrics_module._BoundScalar, "inc", "series writes")
    calls.watch(metrics_module._BoundHistogram, "observe", "histogram writes")
    call(server)
    monkeypatch.undo()
    before(server)
    writes = calls.counts["series writes"] + calls.counts["histogram writes"]
    # Calls are counted inside the package only: the standard library's
    # own Python frames differ between the supported interpreters.
    entered = []
    hashes = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(REPRO)
            and code.co_name not in COMPREHENSIONS
        ):
            entered.append(code.co_name)
            if code is ElementId.__hash__.__code__:
                hashes.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        call(server)
    finally:
        sys.setprofile(None)
    assert {
        "series writes": writes,
        "repro calls": len(entered),
        "ElementId hashes": len(hashes),
    } == HIT_PATH[name], (entered, hashes)
    server.close()


READERS = {
    "health": lambda server, tmp_path: server.health(),
    "dump_diagnostics": lambda server, tmp_path: server.dump_diagnostics(
        tmp_path / "bundle.json"
    ),
    "prometheus_text": lambda server, tmp_path: prometheus_text(
        server.metrics
    ),
    "snapshot": lambda server, tmp_path: server.metrics.snapshot(),
}


@pytest.mark.parametrize("reader", READERS)
def test_a_reader_runs_each_pre_read_hook_once(reader, tmp_path):
    # Each hook folds a log or, for the quarantine gauge, takes every
    # shard's integrity lock: a report runs it once, however many metrics
    # it reads (one health() used to run each 24 times).
    server = OLAPServer(seeded_cube(5, SIZES), shards=2)
    server.reconfigure()
    for name in CALLS:
        CALLS[name][0](server)
    hooks = server.metrics._pre_read_hooks
    assert len(hooks) == 3  # call log, flight recorder, quarantine gauge
    runs = [0] * len(hooks)

    def counted(index, hook):
        def run():
            runs[index] += 1
            hook()

        return run

    server.metrics._pre_read_hooks = tuple(
        counted(index, hook) for index, hook in enumerate(hooks)
    )
    READERS[reader](server, tmp_path)
    assert runs == [1] * len(hooks)
    # Outside a report, every read still runs them.
    server.metrics.get("server_queries_total").total()
    assert runs == [3] * len(hooks)
    server.close()


def test_a_deadline_costs_the_one_generator_context_manager(monkeypatch):
    server = OLAPServer(seeded_cube(5, SIZES))
    server.view(["d0"])
    calls = Calls(monkeypatch)
    calls.watch(
        contextlib._GeneratorContextManagerBase,
        "__init__",
        "generator context managers",
    )
    server.view(["d0"], deadline_ms=1000.0)
    assert calls.counts["generator context managers"] == 1
    server.close()


class TestBoundSeries:
    def test_bound_and_keyword_writes_share_a_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        counter.labels(kind="view", outcome="ok").inc(2)
        counter.inc(outcome="ok", kind="view")
        assert counter.value(kind="view", outcome="ok") == 3
        assert counter.labels(outcome="ok", kind="view").value() == 3
        assert len(counter.labelsets()) == 1

        gauge = registry.gauge("depth")
        gauge.labels().set(4)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5 and gauge.labelsets() == ((),)

        histogram = registry.histogram("latency_ms", buckets=(1.0, 10.0))
        histogram.labels(kind="view").observe(0.5)
        histogram.observe(5.0, kind="view")
        assert histogram.stats(kind="view")["count"] == 2
        assert histogram.buckets(kind="view") == (
            (1.0, 1),
            (10.0, 2),
            (float("inf"), 2),
        )

    def test_binding_creates_no_series(self):
        counter = MetricsRegistry().counter("idle_total")
        counter.labels(kind="view")
        assert counter.labelsets() == ()

    def test_bound_counter_still_refuses_to_decrease(self):
        bound = MetricsRegistry().counter("up_total").labels()
        with pytest.raises(ValueError, match="cannot decrease"):
            bound.inc(-1)

    def test_a_series_bound_past_the_bound_folds_on_every_write(self):
        registry = MetricsRegistry()
        counter = registry.counter("keys_total")
        for i in range(MAX_LABEL_SETS):
            counter.inc(key=f"k{i}")
        late = counter.labels(key="late")
        established = counter.labels(key="k0")
        late.inc()
        late.inc(3)
        established.inc()
        assert counter.value(key="late") == 0
        assert counter.value(overflow="true") == 4
        assert OVERFLOW_KEY in counter.labelsets()
        assert counter.value(key="k0") == 2
        assert registry.dropped_series_total() == 2
        assert (
            registry.counter("metrics_dropped_series_total").value(
                metric="keys_total"
            )
            == 2
        )


class TestListenersAreFedPerTrace:
    def test_one_call_per_root_with_the_whole_trace(self):
        tracer = Tracer()
        deliveries = []
        tracer.add_listener(deliveries.append)
        with tracer.activate():
            for _ in range(2):
                with tracer.span("root"):
                    with tracer.span("a"):
                        with tracer.span("a.inner"):
                            pass
                    with tracer.span("b"):
                        pass
        assert [[s.name for s in trace] for trace in deliveries] == [
            ["a.inner", "a", "b", "root"]
        ] * 2
        assert {len({s.trace_id for s in trace}) for trace in deliveries} == {1}

    def test_a_span_that_outlives_its_root_arrives_alone(self):
        tracer = Tracer()
        deliveries = []
        tracer.add_listener(deliveries.append)
        opened, release = threading.Event(), threading.Event()

        def straggler():
            with tracer.span("late"):
                opened.set()
                assert release.wait(timeout=10)

        with tracer.activate():
            with tracer.span("root"):
                worker = threading.Thread(
                    target=contextvars.copy_context().run, args=(straggler,)
                )
                worker.start()
                assert opened.wait(timeout=10)
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert [[s.name for s in trace] for trace in deliveries] == [
            ["root"],
            ["late"],
        ]
        assert deliveries[1][0].trace_id == deliveries[0][0].trace_id

    def test_profiler_counts_every_span_once(self):
        tracer = Tracer(max_spans=4)
        profiler = SiteProfiler(tracer)
        with tracer.activate():
            for _ in range(5):
                with tracer.span("root"):
                    for _ in range(3):
                        with tracer.span("node"):
                            pass
        sites = profiler.snapshot()
        assert {name: site["count"] for name, site in sites.items()} == {
            "root": 5,
            "node": 15,
        }


# ----------------------------------------------------------------------
# Same telemetry for a replayed trace

#: Timing decides what the flight recorder keeps as ``slow`` (and so which
#: roots are left for ``head``): its counter is compared by name only.
TIMING_DEPENDENT = ("flight_traces_kept_total",)


def replayed_registry() -> dict:
    """``{metric: {"type", "series": {labels: value | count}}}`` after one
    flat trace — everything in the registry that does not read a clock."""
    server = OLAPServer(seeded_cube(24, SIZES))
    replica = Replica(server.cube.values)
    for _ in replay(server, flat_trace(24, SIZES, 240), replica):
        pass
    assert replica.mismatches == []
    out = {}
    for name, metric in server.metrics.snapshot().items():
        series = {
            labels: value["count"] if isinstance(value, dict) else value
            for labels, value in metric["values"].items()
        }
        if name in TIMING_DEPENDENT:
            series = None
        out[name] = {"type": metric["type"], "series": series}
    server.close()
    return out


def test_replayed_trace_leaves_the_parent_commits_registry():
    assert replayed_registry() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(replayed_registry(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
