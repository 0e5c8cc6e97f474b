"""The incident layer folds on read: when it folds is invisible.

The flight recorder, the site profiler, the burn-rate engine and the
workload fingerprint are fed by appending to an inbox, and fold it when a
reader runs or the inbox fills.  Folding after every record is the
per-record behaviour; any other schedule must leave exactly the same
state.  One seeded stream — roots and children, stragglers, children that
arrive before their root, error roots, span events, degraded, rejected
and timed-out outcomes, ingest and divergence notes, a rule that fires
and resolves — is fed three times: folded after every record, at
hypothesis-chosen points (with a small inbox bound, so the writers fold
too), and once at the end.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import server as server_module
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    alerts,
    fingerprint,
    flight,
)
from repro.obs.alerts import AlertEngine, BurnRateRule, ManualClock
from repro.obs.fingerprint import FingerprintTracker, SiteProfiler
from repro.obs.flight import FlightRecorder
from repro.replay import seeded_cube
from repro.server import OLAPServer

#: Bounds small enough that a short stream sheds, evicts and refreshes.
SMALL_BOUNDS = {
    (flight, "MIN_SAMPLES"): 4,
    (flight, "REFRESH_EVERY"): 3,
    (flight, "WINDOW"): 8,
    (flight, "HEAD_SAMPLE"): 5,
    (flight, "MAX_TRACES"): 6,
    (flight, "MAX_PENDING"): 3,
    (flight, "MAX_SPANS_PER_TRACE"): 2,
    (fingerprint, "RESERVOIR_SIZE"): 4,
    (fingerprint, "MAX_SITES"): 5,
}
FOLD_BOUNDS = tuple(
    (module, "FOLD_AT") for module in (flight, fingerprint, alerts)
)

RULES = (
    BurnRateRule(
        name="failures",
        objective=0.25,
        min_samples=4,
        bad_outcomes=("error", "timeout"),
    ),
    BurnRateRule(
        name="slow",
        objective=0.2,
        fast_window_s=30.0,
        slow_window_s=120.0,
        min_samples=3,
        latency_over_ms=100.0,
    ),
    BurnRateRule(
        name="degraded",
        objective=0.5,
        burn_threshold=0.5,
        fast_window_s=60.0,
        slow_window_s=60.0,
        min_samples=1,
        bad_if_degraded=True,
    ),
)

ROOTS = ("server.query", "server.query_batch")
SITES = (
    "exec.compute_node",
    "materialize.assemble",
    "cache.get",
    "shard.gather",
)


def seeded_stream(seed: int, length: int) -> list[tuple]:
    """``length`` records: finished traces, single spans, outcomes, notes."""
    rng = random.Random(seed)
    ids = iter(range(1, 10**9))
    now = 1000.0
    # An error burst in the middle makes the failures rule fire; the good
    # tail after it resolves it.
    burst = range(length // 3, length // 3 + length // 8)
    delivered: list[int] = []
    stream: list[tuple] = []
    for index in range(length):
        roll = rng.random()
        if roll < 0.45:
            trace_id, root_id = next(ids), next(ids)
            children = []
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                child = Span(
                    rng.choice(SITES),
                    next(ids),
                    trace_id,
                    root_id,
                    now,
                    now + rng.random() * 1e-3,
                )
                if rng.random() < 0.05:
                    child.events.append({"name": "retry", "ts": now})
                children.append(child)
            attributes = {"kind": rng.choice(("view", "rollup", "range"))}
            if rng.random() < 0.05:
                attributes["error"] = "QueryTimeout"
            duration = rng.choice((1e-4, 2e-4, 1e-3, 1e-2)) * rng.random()
            root = Span(
                rng.choice(ROOTS),
                root_id,
                trace_id,
                None,
                now,
                now + duration,
                attributes,
            )
            now += duration
            delivered.append(trace_id)
            if children and rng.random() < 0.1:
                # Children that finished before anything listened arrive
                # alone, and wait for their root.
                stream.extend(("span", child) for child in children)
                stream.append(("trace", (root,)))
            else:
                stream.append(("trace", (*children, root)))
        elif roll < 0.5 and delivered:
            # A straggler: it outlived its root.
            straggler = Span(
                "exec.compute_node",
                next(ids),
                rng.choice(delivered),
                1,
                now,
                now + 1e-4,
            )
            stream.append(("span", straggler))
        elif roll < 0.85:
            outcome = "error" if index in burst else rng.choice(
                ("ok",) * 30 + ("rejected", "timeout", "invalid")
            )
            stream.append(
                (
                    "record",
                    outcome,
                    rng.choice((1.0,) * 30 + (40.0, 400.0)),
                    rng.random() < 0.02,
                    rng.choice((0.0, 0.0, 0.5, 3.0, 10.0, 45.0)),
                )
            )
        elif roll < 0.96:
            stream.append(
                ("query", rng.choice(("view", "rollup", "range", "?")),
                 rng.choice((1, 1, 5)))
            )
        elif roll < 0.98:
            stream.append(("ingest", rng.randint(1, 50)))
        else:
            stream.append(("divergence", rng.random()))
    return stream


class Consumers:
    """The four consumers, fed one stream; ``read(i)`` folds each through
    one of its readers (rotating, so every reader is a fold point)."""

    def __init__(self):
        self.clock = ManualClock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = FlightRecorder(self.tracer, self.registry)
        # One wall-clock offset for every run, so ``unix_ts`` compares.
        self.recorder._wall_offset = 1.7e9
        self.profiler = SiteProfiler(self.tracer)
        self.engine = AlertEngine(rules=RULES, clock=self.clock)
        self.tracker = FingerprintTracker()
        self.callbacks: list[tuple] = []
        self.engine.on_fire.append(self._note("fire"))
        self.engine.on_resolve.append(self._note("resolve"))

    def _note(self, state: str):
        def callback(event: dict) -> None:
            self.callbacks.append((state, event["rule"], event["records"]))

        return callback

    def feed(self, record: tuple) -> None:
        kind, *payload = record
        if kind == "trace":
            self.recorder.on_trace(payload[0])
            self.profiler.on_trace(payload[0])
        elif kind == "span":
            self.recorder.on_span(payload[0])
            self.profiler.on_trace((payload[0],))
        elif kind == "record":
            outcome, latency_ms, degraded, step = payload
            self.clock.advance(step)
            self.engine.record(outcome, latency_ms, degraded)
        elif kind == "query":
            self.tracker.note_query(*payload)
        elif kind == "ingest":
            self.tracker.note_ingest(payload[0])
        else:
            self.tracker.note_divergence(payload[0])

    def read(self, index: int) -> None:
        recorder_readers = (
            self.recorder.kept,
            self.recorder.exemplars,
            self.recorder.snapshot,
            self.recorder.loss,
            lambda: self.recorder.traces_seen,
            self.registry.snapshot,
        )
        engine_readers = (
            self.engine.history,
            self.engine.active,
            self.engine.snapshot,
        )
        tracker_readers = (self.tracker.fingerprint, self.tracker.snapshot)
        recorder_readers[index % len(recorder_readers)]()
        engine_readers[index % len(engine_readers)]()
        tracker_readers[index % len(tracker_readers)]()
        self.profiler.snapshot()

    def state(self) -> dict:
        recorder = self.recorder
        kept = recorder.kept()
        for trace in kept:
            root = trace.spans[-1]
            assert trace.unix_ts == root.end + recorder._wall_offset
        return {
            "kept": [
                (t.trace_id, t.reason, t.unix_ts, len(t.spans)) for t in kept
            ],
            "kept_counts": dict(recorder.kept_counts),
            "loss": recorder.loss(),
            "flight": recorder.snapshot(),
            "registry": self.registry.snapshot(),
            "profiler": self.profiler.snapshot(),
            "history": self.engine.history(),
            "alerts": self.engine.snapshot(),
            "callbacks": list(self.callbacks),
            "fingerprint": self.tracker.snapshot(hot_share=0.25),
        }


def run(stream: list[tuple], fold_after) -> dict:
    consumers = Consumers()
    for index, record in enumerate(stream):
        consumers.feed(record)
        if fold_after(index):
            consumers.read(index)
    return consumers.state()


@pytest.fixture
def bounds(monkeypatch):
    for (module, name), value in SMALL_BOUNDS.items():
        monkeypatch.setattr(module, name, value)
    return monkeypatch


def set_fold_bound(monkeypatch, value: int) -> None:
    for module, name in FOLD_BOUNDS:
        monkeypatch.setattr(module, name, value)


STREAM = seeded_stream(36, 600)


def test_the_stream_exercises_every_path(bounds):
    set_fold_bound(bounds, 10**9)
    state = run(STREAM, lambda index: False)
    assert set(state["kept_counts"]) == {"error", "event", "slow", "head"}
    assert all(state["kept_counts"].values())
    assert all(state["loss"].values())
    failures = [c[0] for c in state["callbacks"] if c[1] == "failures"]
    assert failures[:2] == ["fire", "resolve"]
    assert "_overflow_sites" in state["profiler"]
    assert state["fingerprint"]["ingest_batches"] > 0


@settings(max_examples=25)
@given(points=st.sets(st.integers(0, len(STREAM) - 1)))
def test_the_fold_schedule_is_invisible(points):
    with pytest.MonkeyPatch.context() as patch:
        for (module, name), value in SMALL_BOUNDS.items():
            patch.setattr(module, name, value)
        set_fold_bound(patch, 10**9)
        every = run(STREAM, lambda index: True)
        at_end = run(STREAM, lambda index: False)
        set_fold_bound(patch, 7)
        chosen = run(STREAM, points.__contains__)
    assert chosen == every
    assert at_end == every


def test_serving_threads_racing_a_health_poller_lose_nothing(monkeypatch):
    # A tiny inbox bound makes writers fold while the poller folds too.
    set_fold_bound(monkeypatch, 3)
    server = OLAPServer(seeded_cube(3, (16, 8, 4)))
    rollups = [{"d0": 1}, {"d1": 1}, {"d0": 2, "d2": 1}]
    calls_per_thread = 150
    done = threading.Event()
    failures: list[BaseException] = []

    def client(offset: int) -> None:
        try:
            for i in range(calls_per_thread):
                which = (i + offset) % 3
                if which == 0:
                    server.view(["d0"])
                elif which == 1:
                    server.rollup_batch(rollups)
                else:
                    server.range_sum(((1, 15), (0, 8), (2, 4)))
        except BaseException as exc:  # pragma: no cover - reported below
            failures.append(exc)

    def poller() -> None:
        while not done.is_set():
            server.health()

    clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
    watcher = threading.Thread(target=poller)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        done.set()
        watcher.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in (*clients, watcher))
    assert failures == []
    calls = 4 * calls_per_thread
    # Each thread makes 50 calls of each kind; a batch counts its members.
    queries = 4 * 50 * (1 + len(rollups) + 1)
    health = server.health()
    assert server.flight.traces_seen == calls
    assert server.alerts.snapshot()["records"] == calls
    assert health["fingerprint"]["queries"] == queries
    assert health["alerts"]["fired_total"] == 0
    server.close()


def test_racing_callers_lose_no_accounting(monkeypatch):
    # The server's call log folds at a tiny bound too: serving threads
    # fold it while a poller folds it through every kind of reader.
    set_fold_bound(monkeypatch, 3)
    monkeypatch.setattr(server_module, "FOLD_AT", 3, raising=False)
    server = OLAPServer(seeded_cube(3, (16, 8, 4)))
    rollups = [{"d0": 1}, {"d1": 1}, {"d0": 2, "d2": 1}]
    box = ((1, 15), (0, 8), (2, 4))
    # Warm first, so every raced call costs what it costs warm: a view or
    # a roll-up batch 0 operations, a range sum the cells it adds.
    server.view(["d0"])
    server.rollup_batch(rollups)
    server.range_sum(box)
    warm_operations = operations = server.stats.operations
    server.range_sum(box)
    range_operations = server.stats.operations - operations
    assert range_operations > 0
    calls_per_thread, threads = 150, 4
    done = threading.Event()
    failures: list[BaseException] = []

    def client(offset: int) -> None:
        try:
            for i in range(calls_per_thread):
                which = (i + offset) % 3
                if which == 0:
                    server.view(["d0"])
                elif which == 1:
                    server.rollup_batch(rollups)
                else:
                    server.range_sum(box)
        except BaseException as exc:  # pragma: no cover - reported below
            failures.append(exc)

    def poller() -> None:
        readers = (
            server.health,
            lambda: server.metrics.get("server_queries_total").total(),
            lambda: server.stats.operations,
            lambda: server.tracker.weights(),
        )
        i = 0
        while not done.is_set():
            readers[i % len(readers)]()
            i += 1

    clients = [
        threading.Thread(target=client, args=(k,)) for k in range(threads)
    ]
    watcher = threading.Thread(target=poller)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        done.set()
        watcher.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in (*clients, watcher))
    assert failures == []
    # The threads make 200 calls of each kind, after the warm-up's; a
    # batch counts its members.
    each = threads * calls_per_thread // 3
    views, ranges = 1 + each, 2 + each
    rollup_queries = (1 + each) * len(rollups)
    metrics = server.metrics
    queries = metrics.get("server_queries_total")
    assert {
        kind: queries.value(kind=kind) for kind in ("view", "rollup", "range")
    } == {"view": views, "rollup": rollup_queries, "range": ranges}
    served = warm_operations + (1 + each) * range_operations
    assert metrics.get("server_operations_total").total() == served
    latency = metrics.get("server_latency_ms")
    ok = sum(
        latency.stats(**dict(key))["count"]
        for key in latency.labelsets()
        if dict(key)["outcome"] == "ok"
    )
    assert ok == 3 + 1 + threads * calls_per_thread
    assert server.stats.queries == views + rollup_queries + ranges
    assert server.stats.operations == served
    assert server.tracker.total_accesses == views + rollup_queries
    server.close()
