"""Server-level resilience: deadlines, admission, retries, degradation."""

import threading

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejected,
    InvalidQueryError,
    QueryTimeout,
    TransientFault,
)
from repro.core.materialize import MaterializedSet
from repro.obs.alerts import AlertEngine, BurnRateRule, ManualClock
from repro.replay import Replica, seeded_cube
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer


def _make_server(seed=11, sizes=(8, 8), **kwargs):
    return OLAPServer(seeded_cube(seed, sizes), **kwargs)


class TestDeadlines:
    def test_ten_ms_deadline_raises_query_timeout(self):
        server = _make_server(max_in_flight=1, max_retries=0)
        stall = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=50.0,
                )
            ],
            seed=1,
        )
        with stall.activate():
            with pytest.raises(QueryTimeout):
                server.view(["d0"], deadline_ms=10.0)
        assert (
            server.metrics.counter("server_timeouts_total").total() == 1
        )

    def test_timeout_frees_the_admission_slot(self):
        server = _make_server(max_in_flight=1, max_retries=0)
        stall = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=50.0,
                )
            ],
            seed=1,
        )
        with stall.activate():
            with pytest.raises(QueryTimeout):
                server.view(["d0"], deadline_ms=10.0)
        # The slot must be back: this acquires it again and succeeds.
        result = server.view(["d0"])
        assert np.array_equal(result, _make_server().view(["d0"]))

    def test_generous_deadline_does_not_interfere(self):
        server = _make_server()
        plain = _make_server()
        assert np.array_equal(
            server.view(["d0"], deadline_ms=60_000), plain.view(["d0"])
        )

    def test_batch_deadline_raises_query_timeout(self):
        server = _make_server(max_retries=0)
        stall = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=50.0,
                )
            ],
            seed=1,
        )
        with stall.activate():
            with pytest.raises(QueryTimeout):
                server.query_batch([["d0"], ["d1"]], deadline_ms=10.0)


class TestAdmission:
    def test_fail_fast_rejects_at_capacity(self):
        server = _make_server(max_in_flight=1)
        entered = threading.Event()
        release = threading.Event()

        slow = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=0.0,
                )
            ],
            seed=1,
        )

        def hold_slot():
            # Hold the only slot by serving a query that blocks in the
            # assembly fault site until released.
            original_hit = slow.hit

            def blocking_hit(site, **ctx):
                entered.set()
                release.wait(timeout=5)
                original_hit(site, **ctx)

            slow.hit = blocking_hit
            with slow.activate():
                server.view(["d0"])

        worker = threading.Thread(target=hold_slot)
        worker.start()
        try:
            assert entered.wait(timeout=5)
            with pytest.raises(AdmissionRejected) as excinfo:
                server.view(["d1"])
            assert excinfo.value.limit == 1
        finally:
            release.set()
            worker.join(timeout=5)
        assert (
            server.metrics.counter("server_admission_rejected_total").total()
            == 1
        )
        # The slot drains: a later query is admitted.
        server.view(["d1"])

    def test_unbounded_server_never_rejects(self):
        server = _make_server()
        for _ in range(5):
            server.view(["d0"])
        assert (
            server.metrics.counter("server_admission_rejected_total").total()
            == 0
        )


class TestRetries:
    def test_transient_faults_are_retried_to_the_right_answer(self):
        expected = _make_server().view(["d0"])
        server = _make_server(max_retries=3)
        flaky = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    probability=1.0,
                    max_fires=2,
                )
            ],
            seed=1,
        )
        with flaky.activate():
            result = server.view(["d0"])
        assert np.array_equal(result, expected)
        assert server.metrics.counter("server_retries_total").total() == 2

    def test_retry_budget_exhaustion_raises(self):
        server = _make_server(max_retries=1)
        broken = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    probability=1.0,
                )
            ],
            seed=1,
        )
        with broken.activate():
            with pytest.raises(TransientFault):
                server.view(["d0"])

    def test_cache_fault_degrades_to_a_recompute(self):
        expected = _make_server().view(["d0"])
        server = _make_server()
        server.view(["d0"])  # populate the cache
        cache_fault = FaultInjector(
            [
                FaultRule(
                    site="server.cache_lookup",
                    kind="error",
                    probability=1.0,
                )
            ],
            seed=1,
        )
        with cache_fault.activate():
            result = server.view(["d0"])
        assert np.array_equal(result, expected)
        assert (
            server.metrics.counter("server_cache_bypass_total").total() >= 1
        )


class TestDegradation:
    def test_quarantine_reroutes_bit_identically(self):
        server = _make_server()
        server.reconfigure()  # a multi-element selection
        reference = _make_server()
        reference.reconfigure()
        victim = server.materialized.elements[0]
        server.materialized._arrays[victim].reshape(-1)[0] += 1e6
        for retained in ([], ["d0"], ["d1"], ["d0", "d1"]):
            assert np.array_equal(
                server.view(retained), reference.view(retained)
            ), retained
        assert victim in server.materialized.quarantined
        assert (
            server.metrics.counter("integrity_failures_total").total() >= 1
        )

    def test_a_corrupt_store_of_a_selected_element_is_quarantined(
        self, monkeypatch
    ):
        # The corrupt rule hits the first non-root element a real
        # reconfigure() stores, found on a twin server first (the store
        # order is deterministic).
        sizes = (8, 8, 4)
        twin = OLAPServer(seeded_cube(11, sizes))
        stored = []
        store = MaterializedSet.store
        monkeypatch.setattr(
            MaterializedSet,
            "store",
            lambda ms, element, values: (
                stored.append(element), store(ms, element, values)
            )[1],
        )
        twin.reconfigure()
        monkeypatch.undo()
        root = twin.shape.root()
        victim = next(e for e in stored if e != root)
        assert victim in twin.materialized.elements
        server = OLAPServer(seeded_cube(11, sizes))
        replica = Replica(server.cube.values)
        rule = FaultRule(
            site="materialize.store",
            kind="corrupt",
            start_after=stored.index(victim),
            max_fires=1,
        )
        with FaultInjector([rule], seed=5).activate():
            server.reconfigure()
        assert server.materialized.elements == twin.materialized.elements
        names = ("d0", "d1", "d2")
        views = [
            [n for i, n in enumerate(names) if mask >> i & 1]
            for mask in range(8)
        ]
        for retained in views:
            assert np.array_equal(server.view(retained), replica.view(retained))
        for answer, retained in zip(server.query_batch(views), views):
            assert np.array_equal(answer, replica.view(retained))
        box = ((1, 7), (2, 8), (0, 3))
        assert server.range_sum(box) == replica.range_sum(box)
        assert server.materialized.quarantined == (victim,)
        assert server.health()["quarantined_elements"] == 1

    def test_degrade_to_base_answers_with_an_empty_surviving_set(self):
        server = _make_server()
        expected = _make_server().view(["d0"])
        # Quarantine the only stored element (the root): nothing survives.
        root = server.shape.root()
        server.materialized.quarantine(root, reason="test")
        result = server.view(["d0"])
        assert np.array_equal(result, expected)
        assert server.metrics.counter("server_degraded_total").total() >= 1

    def test_range_sum_degrades_to_direct_scan(self):
        server = _make_server()
        expected = _make_server().range_sum(((1, 7), (2, 5)))
        server.materialized.quarantine(server.shape.root(), reason="test")
        assert server.range_sum(((1, 7), (2, 5))) == expected


class TestShardDegradedServes:
    """A shard leg that falls back to its base slab is a degraded serve,
    exactly as the one-shard fallback to the base cube is."""

    @staticmethod
    def _server_with_root_quarantined(shards):
        server = OLAPServer(seeded_cube(7, (8, 4, 8)), shards=shards)
        root = server.shape.root()
        if shards == 1:
            server.materialized.quarantine(root, reason="test")
        else:
            sharded = server.materialized
            sharded.local_sets()[1].quarantine(
                sharded.partition.project(root), reason="test"
            )
        return server

    @staticmethod
    def _degraded(server):
        health = server.health()
        bad = server.alerts.snapshot()["rules"]["degraded"]["fast"]["bad"]
        return health["degraded_serves"], health["slo"]["degraded_rate"], bad

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_degraded_view_counts_once(self, shards):
        server = self._server_with_root_quarantined(shards)
        server.view(["d0"])
        assert self._degraded(server) == (1.0, 1.0, 1)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_degraded_batch_counts_each_target(self, shards):
        server = self._server_with_root_quarantined(shards)
        server.query_batch([["d0"], ["d1"], ["d0", "d2"]])
        assert self._degraded(server) == (3.0, 1.0, 1)

    def test_the_fallback_event_names_the_shard(self):
        server = self._server_with_root_quarantined(2)
        server.view(["d0"])
        events = [
            event
            for sp in server.tracer.spans("shard.execute")
            for event in sp.events
            if event["name"] == "fallback"
        ]
        assert [e["target"] for e in events] == ["shard 1"]

    def test_a_migration_is_not_a_degraded_serve(self):
        server = self._server_with_root_quarantined(2)
        server.reconfigure()
        assert server.health()["degraded_serves"] == 0.0


class TestHealth:
    def test_healthy_server_reports_ok(self):
        server = _make_server(max_in_flight=4)
        server.view(["d0"])
        health = server.health()
        assert health["status"] == "ok"
        assert health["quarantined_elements"] == 0
        assert health["max_in_flight"] == 4
        assert health["queries"] == 1
        assert health["in_flight"] == 0

    def test_quarantine_flips_status_to_degraded(self):
        server = _make_server()
        server.materialized.quarantine(server.shape.root(), reason="test")
        health = server.health()
        assert health["status"] == "degraded"
        assert health["quarantined_elements"] == 1
        assert health["quarantined"]  # names the element

    def test_health_counts_timeouts(self):
        server = _make_server(max_retries=0)
        stall = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    latency_ms=50.0,
                )
            ],
            seed=1,
        )
        with stall.activate():
            with pytest.raises(QueryTimeout):
                server.view(["d0"], deadline_ms=10.0)
        assert server.health()["timeouts"] == 1


class TestMalformedRequests:
    def test_out_of_extent_ranges_burn_no_failure_budget(self, tmp_path):
        # A client bug, not a server failure: labelled ``invalid``, which
        # no stock rule counts as bad, so nothing fires and nothing dumps.
        server = _make_server(sizes=(8, 4, 4), diagnostics_dir=tmp_path)
        for _ in range(100):
            with pytest.raises(InvalidQueryError, match="outside"):
                server.range_sum(((0, 30), (0, 4), (0, 4)))
        health = server.health()
        assert health["alerts"]["fired_total"] == 0
        assert health["alerts"]["records"] == 100
        assert list(tmp_path.iterdir()) == []
        latency = server.metrics.get("server_latency_ms")
        assert latency.stats(kind="range", outcome="error")["count"] == 0
        assert latency.stats(kind="range", outcome="invalid")["count"] == 100
        assert health["slo"]["latency_ms"] == {}
        server.close()

    @pytest.mark.parametrize(
        "ranges",
        [
            ((0, 8), (0, 4)),
            ((0, 8), (0, 4), (0, 4), (0, 1)),
            ((0, 8), (0, 4), 4),
            ((0, 8), (0, 4), (0, 2, 4)),
            ((0, 8), (0, 4), (1,)),
            ((0, 8), (0, 4), None),
        ],
        ids=["too few", "too many", "int", "triple", "single", "None"],
    )
    def test_a_malformed_range_burns_no_failure_budget(self, ranges, tmp_path):
        # Wrong arity or a bound that is not a (start, stop) pair is the
        # same client bug as an out-of-extent bound: ``invalid``, no page.
        server = _make_server(sizes=(8, 4, 4), diagnostics_dir=tmp_path)
        for _ in range(100):
            with pytest.raises(InvalidQueryError):
                server.range_sum(ranges)
        health = server.health()
        assert health["alerts"]["fired_total"] == 0
        assert list(tmp_path.iterdir()) == []
        latency = server.metrics.get("server_latency_ms")
        assert latency.stats(kind="range", outcome="error")["count"] == 0
        assert latency.stats(kind="range", outcome="invalid")["count"] == 100
        server.close()

    @pytest.mark.parametrize("call", ["view", "query_batch", "range_sum"])
    def test_a_nan_deadline_is_an_invalid_query(self, call):
        server = _make_server(sizes=(8, 4))
        ask, kind = {
            "view": (lambda ms: server.view(["d0"], deadline_ms=ms), "view"),
            "query_batch": (
                lambda ms: server.query_batch([["d0"], ["d1"]], deadline_ms=ms),
                "view",
            ),
            "range_sum": (
                lambda ms: server.range_sum(((0, 8), (0, 4)), deadline_ms=ms),
                "range",
            ),
        }[call]
        with pytest.raises(InvalidQueryError, match="NaN"):
            ask(float("nan"))
        latency = server.metrics.get("server_latency_ms")
        assert latency.stats(kind=kind, outcome="invalid")["count"] == 1
        assert server.stats.operations == 0
        # An infinite deadline stays "unbounded".
        ask(float("inf"))
        assert latency.stats(kind=kind, outcome="ok")["count"] == 1
        server.close()

    @pytest.mark.parametrize("shards", [1, 2], ids=["1 shard", "2 shards"])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_max_workers_below_one_is_refused_before_any_work(
        self, shards, max_workers
    ):
        server = _make_server(sizes=(8, 4), shards=shards)
        with pytest.raises(InvalidQueryError, match="max_workers"):
            server.query_batch([["d0"], ["d1"]], max_workers=max_workers)
        with pytest.raises(InvalidQueryError, match="max_workers"):
            server.rollup_batch([{"d0": 1}], max_workers=max_workers)
        assert server.stats.queries == server.stats.operations == 0
        assert len(server._state.cache) == 0
        server.close()

    @pytest.mark.parametrize(
        "ask, kind, served",
        [
            (lambda s: s.view(["d0"], deadline_ms="5"), "view", True),
            (lambda s: s.rollup({"d0": 1}, deadline_ms=[1]), "rollup", True),
            (lambda s: s.range_sum(5), "range", True),
            (lambda s: s.query_batch([["d0"]], max_workers="2"), "view", False),
            (lambda s: s.query_batch(None), "view", False),
            (lambda s: s.rollup_batch(None), "rollup", False),
        ],
        ids=[
            "text deadline",
            "list deadline",
            "int ranges",
            "text max_workers",
            "no requests",
            "no levels",
        ],
    )
    def test_a_malformed_argument_is_an_invalid_query(self, ask, kind, served):
        # Checked where the envelope takes it: inside a served call it is
        # labelled ``invalid``; a batch's arguments are refused before its
        # envelope opens, like ``max_workers=0``.  Neither burns budget.
        server = _make_server(sizes=(8, 4))
        for _ in range(3):
            with pytest.raises(InvalidQueryError):
                ask(server)
        latency = server.metrics.get("server_latency_ms")
        assert latency.stats(kind=kind, outcome="error")["count"] == 0
        assert latency.stats(kind=kind, outcome="invalid")["count"] == (
            3 if served else 0
        )
        failures = server.alerts.snapshot()["rules"]["failures"]
        assert failures["fast"]["bad"] == 0
        assert server.stats.operations == 0
        server.close()

    def test_a_level_above_the_hierarchy_is_an_invalid_query(self):
        server = _make_server(sizes=(8, 4))
        with pytest.raises(InvalidQueryError, match="outside"):
            server.rollup({"d0": 4})
        assert server.health()["alerts"]["records"] == 0


class TestAlertSamplesRideTheCallLog:
    def test_an_ok_sample_keeps_its_call_time_clock_reading(self):
        # The sample is counted when a reader folds the call log, in the
        # bucket of the clock reading taken when the call was served.
        clock = ManualClock()
        server = _make_server(alerts=AlertEngine(clock=clock))
        server.view(["d0"])
        clock.advance(700.0)  # past the stock 600 s slow window
        server.view(["d1"])
        snapshot = server.alerts.snapshot()
        assert snapshot["records"] == 2
        assert snapshot["evaluations"] == 0
        for rule in snapshot["rules"].values():
            assert rule["slow"] == {"total": 1, "bad": 0}
        server.close()

    def test_a_degraded_answer_is_recorded_in_order(self):
        clock = ManualClock()
        server = _make_server(alerts=AlertEngine(clock=clock))
        for _ in range(3):
            server.view(["d0"])
        server.materialized.quarantine(server.shape.root(), reason="test")
        server.view(["d1"])  # served from the base cube: bad for "degraded"
        degraded = server.alerts.snapshot()["rules"]["degraded"]
        assert degraded["slow"] == {"total": 4, "bad": 1}
        server.close()

    def test_a_resolve_lands_on_the_ok_call_that_brings_it(self):
        # While a rule fires, an ok call is recorded at once, not left in
        # the call log: its resolve runs on that call, with no reader.
        clock = ManualClock()
        rule = BurnRateRule(
            name="errors",
            objective=0.25,
            fast_window_s=60.0,
            slow_window_s=600.0,
            min_samples=4,
            bad_outcomes=("error",),
        )
        server = _make_server(alerts=AlertEngine(rules=(rule,), clock=clock))
        resolved: list[dict] = []
        server.alerts.on_resolve.append(resolved.append)
        for _ in range(8):
            clock.advance(10.0)
            server.alerts.record("error", 1.0)
        assert server.alerts.snapshot()["firing_now"] == ["errors"]
        calls = 0
        while not resolved and calls < 100:
            clock.advance(10.0)
            server.view(["d0"])
            calls += 1
        assert len(resolved) == 1
        assert resolved[0]["rule"] == "errors"
        assert server.alerts.snapshot()["firing_now"] == []
        server.close()


class TestDiagnosticDumps:
    def test_manual_dumps_leave_the_auto_dump_budget(self, tmp_path):
        clock = ManualClock()
        rule = BurnRateRule(
            name="errors",
            objective=0.25,
            fast_window_s=60.0,
            slow_window_s=600.0,
            min_samples=4,
            bad_outcomes=("error",),
        )
        server = _make_server(
            alerts=AlertEngine(rules=(rule,), clock=clock),
            diagnostics_dir=tmp_path,
        )
        manual = [server.dump_diagnostics() for _ in range(8)]
        assert [p.name for p in manual] == [
            f"diag-manual-{i:03d}.json" for i in range(1, 9)
        ]
        for _ in range(8):
            clock.advance(10.0)
            server.alerts.record("error", 1.0)
        assert server.alerts.snapshot()["fired_total"] == 1
        assert (tmp_path / "diag-errors-001.json").is_file()
        server.close()
