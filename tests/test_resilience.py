"""Unit tests for the resilience primitives: errors, deadlines, faults."""

import time

import numpy as np
import pytest

from repro.core.delta import DeltaBatch
from repro.core.element import CubeShape
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.errors import (
    AdmissionRejected,
    IncompleteSetError,
    IntegrityError,
    QueryTimeout,
    ReproError,
    TransientFault,
)
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultRule,
    check_deadline,
    current_deadline,
    current_injector,
    deadline_scope,
    fault_point,
    retry_transient,
)


class TestErrorTaxonomy:
    def test_all_errors_share_the_base_class(self):
        for exc_type in (
            QueryTimeout,
            AdmissionRejected,
            IntegrityError,
            TransientFault,
            IncompleteSetError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_incomplete_set_is_a_value_error(self):
        # Historical callers catch ValueError for "cannot assemble".
        assert issubclass(IncompleteSetError, ValueError)

    def test_query_timeout_carries_timing(self):
        exc = QueryTimeout("late", elapsed_ms=12.5, budget_ms=10.0)
        assert exc.elapsed_ms == 12.5
        assert exc.budget_ms == 10.0

    def test_transient_fault_carries_site(self):
        assert TransientFault("boom", site="exec.compute_node").site == (
            "exec.compute_node"
        )


class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert deadline.remaining() > 0
        deadline.check("test")  # must not raise

    def test_expired_deadline_raises_with_timing(self):
        deadline = Deadline.after(-0.001)
        assert deadline.expired
        with pytest.raises(QueryTimeout) as excinfo:
            deadline.check("test.site")
        assert excinfo.value.budget_ms is not None

    def test_check_deadline_is_a_noop_without_a_scope(self):
        assert current_deadline() is None
        check_deadline("anywhere")  # must not raise

    def test_deadline_scope_activates_and_restores(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_none_scope_passes_through(self):
        with deadline_scope(None):
            assert current_deadline() is None

    def test_nested_scopes_keep_the_earliest_expiry(self):
        outer = Deadline.after(0.050)
        inner = Deadline.after(999.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                active = current_deadline()
                assert active is not None
                assert active.remaining() <= 0.050
            assert current_deadline() is outer

    def test_check_deadline_raises_inside_expired_scope(self):
        with deadline_scope(Deadline.after(-0.001)):
            with pytest.raises(QueryTimeout):
                check_deadline("test")


class TestRetryTransient:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 0.0)

    @staticmethod
    def _flaky(failures: int, cost: int = 5):
        """An attempt that charges ``cost`` and faults ``failures`` times."""
        calls = []

        def attempt(scratch: OpCounter):
            calls.append(scratch)
            scratch.add(cost)
            if len(calls) <= failures:
                raise TransientFault("flaky")
            return f"served on try {len(calls)}"

        return attempt, calls

    def test_first_success_returns_and_merges_its_scratch(self):
        attempt, calls = self._flaky(failures=0)
        counter = OpCounter()
        seen = []
        result = retry_transient(
            attempt, counter, max_retries=2, on_retry=seen.append
        )
        assert result == "served on try 1"
        assert counter.total == 5
        assert seen == [] and len(calls) == 1

    def test_only_the_serving_attempt_is_charged(self):
        attempt, calls = self._flaky(failures=2)
        counter = OpCounter()
        seen = []
        result = retry_transient(
            attempt, counter, max_retries=2, on_retry=seen.append
        )
        assert result == "served on try 3"
        assert seen == [1, 2]
        # Three scratch counters were charged; one was merged.
        assert [c.total for c in calls] == [5, 5, 5]
        assert counter.total == 5

    def test_zero_retries_reraises_the_first_fault(self):
        attempt, calls = self._flaky(failures=1)
        counter = OpCounter()
        seen = []
        with pytest.raises(TransientFault):
            retry_transient(
                attempt,
                counter,
                max_retries=0,
                on_retry=seen.append,
            )
        assert seen == [1] and len(calls) == 1
        assert counter.total == 0

    def test_exhaustion_reraises_after_the_hook_saw_every_fault(self):
        attempt, calls = self._flaky(failures=10)
        seen = []
        with pytest.raises(TransientFault):
            retry_transient(
                attempt,
                OpCounter(),
                max_retries=3,
                on_retry=seen.append,
            )
        assert seen == [1, 2, 3, 4] and len(calls) == 4

    def test_other_exceptions_are_not_retried(self):
        def attempt(scratch):
            raise IncompleteSetError("gone")

        seen = []
        with pytest.raises(IncompleteSetError):
            retry_transient(
                attempt,
                OpCounter(),
                max_retries=3,
                on_retry=seen.append,
            )
        assert seen == []

    def test_backoff_doubles_and_is_bounded_by_the_deadline(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.resilience.retry.time.sleep", sleeps.append
        )
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 10.0)
        attempt, _ = self._flaky(failures=3)
        retry_transient(attempt, OpCounter(), max_retries=3)
        assert sleeps == [0.010, 0.020, 0.040]

        sleeps.clear()
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 1000.0)
        attempt, _ = self._flaky(failures=2)
        with deadline_scope(Deadline.after(0.050)) as deadline:
            retry_transient(attempt, OpCounter(), max_retries=2)
        # 1 s and 2 s of backoff were asked for; at most what was left
        # of the 50 ms budget was slept (the patched sleep takes no time).
        assert len(sleeps) == 2
        assert all(0.0 < s <= 0.050 for s in sleeps)
        assert not deadline.expired

    def test_expired_deadline_raises_timeout_instead_of_sleeping(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr(
            "repro.resilience.retry.time.sleep", sleeps.append
        )
        monkeypatch.setattr("repro.resilience.retry.BACKOFF_MS", 10.0)
        attempt, calls = self._flaky(failures=5)
        with deadline_scope(Deadline.after(-0.001)):
            with pytest.raises(QueryTimeout):
                retry_transient(attempt, OpCounter(), max_retries=5)
        assert sleeps == [] and len(calls) == 1


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", kind="explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", kind="error", probability=1.5)

    def test_to_dict_describes_the_rule(self):
        rule = FaultRule(site="x", kind="latency", latency_ms=3.0, max_fires=2)
        d = rule.to_dict()
        assert d["site"] == "x"
        assert d["latency_ms"] == 3.0
        assert d["max_fires"] == 2


class TestFaultInjector:
    def test_inactive_sites_are_noops(self):
        assert current_injector() is None
        fault_point("exec.compute_node")  # must not raise

    def test_error_rule_raises_transient_fault_with_site(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", probability=1.0)], seed=3
        )
        with injector.activate():
            with pytest.raises(TransientFault) as excinfo:
                fault_point("s")
        assert excinfo.value.site == "s"
        assert injector.fired[0].kind == "error"

    def test_rules_only_match_their_site(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", probability=1.0)], seed=3
        )
        with injector.activate():
            fault_point("other")  # must not raise
        assert injector.fired == []

    def test_wildcard_site_matches_everything(self):
        injector = FaultInjector(
            [FaultRule(site="*", kind="error", probability=1.0)], seed=3
        )
        with injector.activate():
            with pytest.raises(TransientFault):
                fault_point("anything")

    def test_max_fires_bounds_the_rule(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", probability=1.0, max_fires=2)],
            seed=3,
        )
        with injector.activate():
            for _ in range(2):
                with pytest.raises(TransientFault):
                    fault_point("s")
            fault_point("s")  # exhausted: must not raise
        assert len(injector.fired) == 2

    def test_start_after_skips_early_invocations(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", probability=1.0, start_after=2)],
            seed=3,
        )
        with injector.activate():
            fault_point("s")
            fault_point("s")
            with pytest.raises(TransientFault):
                fault_point("s")

    def test_schedule_is_deterministic_in_the_seed(self):
        def fires(seed):
            injector = FaultInjector(
                [FaultRule(site="s", kind="error", probability=0.3)], seed=seed
            )
            out = []
            with injector.activate():
                for i in range(50):
                    try:
                        fault_point("s")
                        out.append(False)
                    except TransientFault:
                        out.append(True)
            return out

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)  # a different seed perturbs the plan
        assert any(fires(7))
        assert not all(fires(7))

    def test_latency_rule_sleeps(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="latency", latency_ms=30.0)], seed=3
        )
        start = time.perf_counter()
        with injector.activate():
            fault_point("s")
        assert time.perf_counter() - start >= 0.025
        assert injector.fired[0].kind == "latency"

    def test_corrupt_rule_damages_one_deterministic_cell(self):
        def corrupted():
            injector = FaultInjector(
                [FaultRule(site="s", kind="corrupt", magnitude=100.0)], seed=3
            )
            array = np.zeros((4, 4))
            with injector.activate():
                injector.corrupt("s", array)
            return array

        first, second = corrupted(), corrupted()
        assert np.count_nonzero(first) == 1
        assert np.array_equal(first, second)

    def test_summary_reports_fires_by_site(self):
        injector = FaultInjector(
            [FaultRule(site="s", kind="error", probability=1.0)], seed=3
        )
        with injector.activate():
            with pytest.raises(TransientFault):
                fault_point("s")
        summary = injector.summary()
        assert summary["fired_total"] == 1
        assert summary["fired_by_site"] == {"s": {"error": 1}}
        assert summary["invocations"]["s"] == 1


class TestStoredIntegrity:
    def _set(self, rng):
        shape = CubeShape((4, 4))
        values = rng.integers(0, 50, size=(4, 4)).astype(float)
        return (
            MaterializedSet.from_cube(values, list(shape.aggregated_views())),
            values,
            shape,
        )

    def test_verify_passes_for_intact_elements(self, rng):
        ms, _, _ = self._set(rng)
        for element in ms.elements:
            assert ms.verify(element)

    def test_corruption_is_quarantined_on_first_use(self, rng):
        ms, _, shape = self._set(rng)
        victim = ms.elements[0]
        ms._arrays[victim].reshape(-1)[0] += 1e6  # post-seal bit-rot
        with pytest.raises(KeyError):
            ms.array(victim)
        assert victim in ms.quarantined
        assert victim not in ms

    def test_assembly_routes_around_a_quarantined_element(self, rng):
        ms, values, shape = self._set(rng)
        target = shape.aggregated_view((0,))
        expected = ms.assemble(target).copy()
        ms.quarantine(target, reason="test")
        rerouted = ms.assemble(target)
        assert np.array_equal(rerouted, expected)

    def test_verification_happens_before_assembly(self, rng):
        ms, _, shape = self._set(rng)
        victim = shape.aggregated_view((0,))
        ms._arrays[victim].reshape(-1)[0] += 1e6
        target = shape.aggregated_view((0, 1))
        ms.assemble(target)  # must not consume the damaged array
        assert victim in ms.quarantined

    def test_update_reseal_keeps_verification_honest(self, rng):
        ms, _, _ = self._set(rng)
        ms.apply_updates(DeltaBatch(ms.shape, [(0, 0)], [5.0]))
        for element in ms.elements:
            assert ms.verify(element)

    def test_integrity_report_shape(self, rng):
        ms, _, _ = self._set(rng)
        report = ms.integrity_report()
        assert report["stored"] == len(ms.elements)
        assert report["quarantined"] == {}
