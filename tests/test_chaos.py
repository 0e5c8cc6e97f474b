"""The chaos acceptance replay: seeded faults, bit-identical answers."""

import json

import pytest

from repro.replay import seeded_cube
from repro.resilience.chaos import ChaosConfig, render_report, run_chaos


@pytest.fixture(scope="module")
def report():
    # One replay shared by the assertions below (the replay is the
    # expensive part; the assertions inspect different facets of it).
    return run_chaos(ChaosConfig(seed=7, queries=40))


class TestChaosGate:
    def test_survives_with_every_answer_bit_identical(self, report):
        assert report["uncaught_exception"] is None
        assert report["mismatches"] == []
        assert report["answered"] == report["operations"]
        assert report["survival_rate"] == 1.0
        assert report["ok"] is True

    def test_faults_actually_fired(self, report):
        assert report["faults_injected"]["fired_total"] > 0
        assert report["retries"] > 0

    def test_corruption_was_quarantined(self, report):
        fired = report["faults_injected"]["fired_by_site"]
        assert fired.get("materialize.store", {}).get("corrupt") == 1
        assert report["integrity_failures"] >= 1

    def test_deadline_probe_times_out_and_frees_the_slot(self, report):
        probe = report["deadline_probe"]
        assert probe["timeout_raised"] is True
        assert probe["slot_freed"] is True
        assert probe["timeouts_counted"] == 1

    def test_report_is_json_serializable(self, report):
        blob = json.loads(json.dumps(report))
        assert blob["ok"] is True

    def test_render_report_flags_survival(self, report):
        text = render_report(report)
        assert "SURVIVED" in text
        assert "100.0%" in text


class TestChaosDeterminism:
    def test_same_seed_same_fault_plan(self):
        config = ChaosConfig(seed=3, queries=20)
        first = run_chaos(config)
        second = run_chaos(config)
        assert (
            first["faults_injected"]["fired_by_site"]
            == second["faults_injected"]["fired_by_site"]
        )
        assert (
            first["faults_injected"]["invocations"]
            == second["faults_injected"]["invocations"]
        )
        assert first["ok"] and second["ok"]

    def test_other_seeds_also_survive(self):
        for seed in (0, 1):
            assert run_chaos(ChaosConfig(seed=seed, queries=25))["ok"], seed


class TestFusedFaultSites:
    """Regression: ``exec.compute_node`` fires once per *fused* node.

    Plan fusion replaces a chain of step nodes with one fused node; the
    fault site must fire exactly once per non-stored DAG node — so the
    seeded fault schedule is a pure function of the (deterministic) fused
    plan shape, and chaos replays stay bit-for-bit reproducible.
    """

    @staticmethod
    def _setup():
        import numpy as np

        from repro.core.element import CubeShape
        from repro.core.exec import plan_batch
        from repro.core.materialize import MaterializedSet

        shape = CubeShape((8, 4, 2))
        ms = MaterializedSet(shape)
        rng = np.random.default_rng(3)
        ms.store(shape.root(), rng.standard_normal(shape.sizes))
        targets = [
            shape.aggregated_view(agg)
            for agg in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
        ]
        plan = plan_batch(targets, ms.elements)
        return ms, targets, plan

    def test_one_fire_per_fused_node(self):
        from repro.resilience.faults import FaultInjector, FaultRule

        ms, targets, plan = self._setup()
        nonstored = sum(
            1 for n in plan.nodes.values() if n.kind != "stored"
        )
        assert any(n.kind == "fused" for n in plan.nodes.values())
        # A zero-probability rule arms the site: invocations are counted,
        # nothing ever fires.
        injector = FaultInjector(
            [FaultRule(site="exec.compute_node", kind="error", probability=0.0)],
            seed=0,
        )
        with injector.activate():
            ms.assemble_batch(targets)
        assert injector.invocations("exec.compute_node") == nonstored

    def test_site_sequence_pinned_and_thread_invariant(self):
        """The invocation count equals the fused plan's non-stored node
        count on every execution path — serial, threaded, and repeated —
        so a seeded schedule replays identically."""
        from repro.resilience.faults import FaultInjector, FaultRule

        ms, targets, plan = self._setup()
        nonstored = sum(
            1 for n in plan.nodes.values() if n.kind != "stored"
        )

        def run(**kwargs):
            injector = FaultInjector(
                [
                    FaultRule(
                        site="exec.compute_node",
                        kind="error",
                        probability=0.0,
                    )
                ],
                seed=0,
            )
            with injector.activate():
                ms.assemble_batch(targets, **kwargs)
            return injector.invocations("exec.compute_node")

        serial = run()
        threaded = run(max_workers=3)
        repeat = run()
        assert serial == threaded == repeat == nonstored

    def test_seeded_fault_schedule_replays_identically(self):
        """With a real (firing) rule, two runs fail at the same node and
        inject the same fault plan — determinism under fusion."""
        import pytest as _pytest

        from repro.errors import TransientFault
        from repro.resilience.faults import FaultInjector, FaultRule

        ms, targets, _ = self._setup()

        def run():
            injector = FaultInjector(
                [
                    FaultRule(
                        site="exec.compute_node",
                        kind="error",
                        probability=1.0,
                        max_fires=1,
                    )
                ],
                seed=11,
            )
            with injector.activate():
                with _pytest.raises(TransientFault):
                    ms.assemble_batch(targets)
            return injector.summary()

        first = run()
        second = run()
        assert first["fired_by_site"] == second["fired_by_site"]
        assert first["invocations"] == second["invocations"]

def _cube(seed=5, sizes=(8, 8, 8)):
    return seeded_cube(seed, sizes)


class TestShardedChaos:
    """The chaos gate, sharded: faults on shard legs must stay contained.

    The replay's chaos server runs with two shards while the replica
    stays one ndarray — so the same byte-identity assertion also gates
    the scatter-gather merge under transient errors, injected latency,
    and a one-shot store corruption (which lands on a single shard's slab
    and must quarantine/re-route that shard only).
    """

    @pytest.fixture(scope="class")
    def sharded_report(self):
        return run_chaos(ChaosConfig(seed=7, queries=40, shards=2))

    def test_sharded_replay_survives_bit_identical(self, sharded_report):
        assert sharded_report["uncaught_exception"] is None
        assert sharded_report["mismatches"] == []
        assert sharded_report["answered"] == sharded_report["operations"]
        assert sharded_report["ok"] is True

    def test_corruption_landed_on_one_shard_slab(self, sharded_report):
        fired = sharded_report["faults_injected"]["fired_by_site"]
        assert fired.get("materialize.store", {}).get("corrupt") == 1
        # First-use verification quarantined the damaged local copy (the
        # counter survives the workload's later reconfigure, which swaps
        # in a fresh set and clears the per-shard quarantine lists).
        assert sharded_report["integrity_failures"] >= 1

    def test_health_reports_the_shard_layout(self, sharded_report):
        shards = sharded_report["health"]["shards"]
        assert shards["count"] == 2
        assert len(shards["per_shard"]) == 2
        assert shards["scatters"] > 0

    def test_sharded_chaos_is_deterministic(self):
        config = ChaosConfig(seed=3, queries=20, shards=2)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first["ok"] and second["ok"]
        assert (
            first["faults_injected"]["fired_by_site"]
            == second["faults_injected"]["fired_by_site"]
        )


class TestShardFaultIsolation:
    """Targeted single-shard faults: quarantine and retry stay per-shard.

    These tests pin *which* shard a fault lands on, so they use the serial
    scatter path (``server.view`` assembles with ``max_workers=1``): shard
    legs then visit each fault site in shard order and the seeded schedule
    is deterministic.
    """

    REQUESTS = [[], ["d0"], ["d1"], ["d2"], ["d0", "d2"], ["d1", "d2"]]

    @staticmethod
    def _servers(shards=2):
        from repro.server import OLAPServer

        mono = OLAPServer(_cube())
        sharded = OLAPServer(_cube(), shards=shards, max_retries=2)
        return mono, sharded

    def test_corrupt_store_quarantines_a_single_shard(self):
        from repro.resilience.faults import FaultInjector, FaultRule

        mono, _ = self._servers()
        expected = {
            tuple(r): mono.view(r).tobytes() for r in self.REQUESTS
        }
        # The constructor stores the root slab shard by shard (invocation
        # 0 = shard 0, invocation 1 = shard 1): ``start_after=1`` damages
        # exactly shard 1's copy.
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.store",
                    kind="corrupt",
                    probability=1.0,
                    start_after=1,
                    max_fires=1,
                )
            ],
            seed=3,
        )
        from repro.server import OLAPServer

        with injector.activate():
            sharded = OLAPServer(_cube(), shards=2, max_retries=2)
            answers = {
                tuple(r): sharded.view(r).tobytes() for r in self.REQUESTS
            }
        assert answers == expected
        per_shard = sharded.health()["shards"]["per_shard"]
        assert [s["quarantined"] for s in per_shard] == [0, 1]
        # The quarantined shard re-routed through its base slab; the
        # healthy shard kept serving from its materialized copy.
        assert sharded.metrics.counter("shard_degraded_total").total() > 0
        assert (
            sharded.metrics.counter("shard_degraded_total").value(shard=0)
            == 0.0
        )

    def test_transient_error_on_a_shard_leg_is_retried(self):
        from repro.resilience.faults import FaultInjector, FaultRule

        mono, sharded = self._servers()
        expected = {
            tuple(r): mono.view(r).tobytes() for r in self.REQUESTS
        }
        injector = FaultInjector(
            [
                FaultRule(
                    site="exec.compute_node",
                    kind="error",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=5,
        )
        with injector.activate():
            answers = {
                tuple(r): sharded.view(r).tobytes() for r in self.REQUESTS
            }
        assert answers == expected
        # Serial scatter: the one-shot error hit shard 0's first leg and
        # the shard-level retry absorbed it without touching shard 1.
        assert (
            sharded.metrics.counter("shard_retries_total").value(shard=0)
            == 1.0
        )
        assert (
            sharded.metrics.counter("shard_retries_total").value(shard=1)
            == 0.0
        )
        assert injector.summary()["fired_total"] == 1

    def test_latency_on_a_shard_leg_keeps_answers_exact(self):
        from repro.resilience.faults import FaultInjector, FaultRule

        mono, sharded = self._servers()
        expected = mono.view(["d0"]).tobytes()
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="latency",
                    probability=1.0,
                    latency_ms=1.0,
                    max_fires=1,
                )
            ],
            seed=9,
        )
        with injector.activate():
            got = sharded.view(["d0"]).tobytes()
            # One assemble entry per shard leg: both legs visited the
            # site even though only the first stalled.
            assert injector.invocations("materialize.assemble") == 2
        assert got == expected
