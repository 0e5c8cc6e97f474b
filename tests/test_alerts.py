"""Multi-window burn-rate alerting: deterministic fire/resolve behaviour.

Everything here drives :class:`~repro.obs.alerts.AlertEngine` on a
:class:`~repro.obs.alerts.ManualClock`, so every assertion is about the
burn-rate *definition* — no sleeps, no wall-clock, no tolerance bands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import alerts
from repro.obs.alerts import (
    FAST_BUCKETS,
    AlertEngine,
    BurnRateRule,
    ManualClock,
    default_rules,
)

RULE = BurnRateRule(
    name="errors",
    objective=0.25,
    fast_window_s=60.0,
    slow_window_s=600.0,
    min_samples=4,
    bad_outcomes=("error", "timeout"),
)


def make_engine(rule=RULE):
    clock = ManualClock()
    engine = AlertEngine(rules=(rule,), clock=clock)
    return engine, clock


def feed(engine, clock, outcomes, step=10.0):
    """One outcome per bucket (step defaults to RULE's bucket width)."""
    transitions = []
    for outcome in outcomes:
        clock.advance(step)
        transitions.extend(engine.record(outcome))
    return transitions


class TestBurnRateRule:
    def test_bad_classification(self):
        rule = BurnRateRule(
            name="r",
            objective=0.1,
            bad_outcomes=("error",),
            latency_over_ms=100.0,
            bad_if_degraded=True,
        )
        assert rule.is_bad("error", 0.0, False)
        assert rule.is_bad("ok", 500.0, False)
        assert rule.is_bad("ok", 0.0, True)
        assert not rule.is_bad("ok", 50.0, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(name="r", objective=0.0)
        with pytest.raises(ValueError):
            BurnRateRule(
                name="r", objective=0.1, fast_window_s=60.0, slow_window_s=30.0
            )
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine(rules=(RULE, RULE))

    def test_default_rules_cover_serving_outcomes(self):
        rules = default_rules(fast_window_s=30.0, slow_window_s=300.0)
        names = {rule.name for rule in rules}
        assert names == {"failures", "rejections", "degraded"}
        assert all(rule.fast_window_s == 30.0 for rule in rules)
        bad = {o for rule in rules for o in rule.bad_outcomes}
        assert bad == {"timeout", "error", "rejected"}


class TestFiring:
    def test_healthy_stream_never_fires(self):
        engine, clock = make_engine()
        transitions = feed(engine, clock, ["ok"] * 40)
        assert transitions == []
        assert engine.snapshot()["fired_total"] == 0
        assert engine.active() == ()

    def test_fires_only_when_both_windows_burn(self):
        # 12 good then solid bad: the fast window (6 buckets) saturates
        # with bad before the slow window crosses the objective; the
        # engine must hold fire until the *slow* burn also crosses.
        engine, clock = make_engine()
        feed(engine, clock, ["ok"] * 12)
        fired_after = None
        for i in range(20):
            clock.advance(10.0)
            for event in engine.record("error"):
                if event["state"] == "firing":
                    fired_after = i + 1
        # slow burn after k bads: (k / (12 + k)) / 0.25 >= 1  =>  k >= 4.
        assert fired_after == 4
        event = engine.active()[0]
        assert event["fast_burn"] >= 1.0 and event["slow_burn"] >= 1.0

    def test_transient_spike_does_not_fire(self):
        # One bad bucket inside a long healthy stream: fast window burns
        # briefly but the slow window never crosses the objective.
        engine, clock = make_engine()
        outcomes = ["ok"] * 20 + ["error", "error"] + ["ok"] * 20
        transitions = feed(engine, clock, outcomes)
        assert transitions == []

    def test_min_samples_gates_startup(self):
        # All-bad from the first record: burn is maximal immediately, but
        # nothing may fire before the slow window holds min_samples.
        engine, clock = make_engine()
        transitions = feed(engine, clock, ["error"] * 4)
        fires = [e for e in transitions if e["state"] == "firing"]
        assert len(fires) == 1
        assert fires[0]["slow"]["total"] == RULE.min_samples

    def test_fire_is_transition_not_level(self):
        engine, clock = make_engine()
        transitions = feed(engine, clock, ["error"] * 30)
        assert len([e for e in transitions if e["state"] == "firing"]) == 1

    def test_resolve_after_recovery(self):
        engine, clock = make_engine()
        feed(engine, clock, ["error"] * 8)
        assert engine.snapshot()["firing_now"] == ["errors"]
        # Healthy traffic pushes the bad buckets out of the fast window
        # first, then dilutes the slow window below the objective.
        transitions = feed(engine, clock, ["ok"] * 40)
        resolves = [e for e in transitions if e["state"] == "resolved"]
        assert len(resolves) == 1
        assert resolves[0]["duration_s"] > 0
        assert engine.snapshot()["firing_now"] == []
        assert engine.active() == ()
        # A relapse fires again — fired_total counts incidents.
        feed(engine, clock, ["error"] * 40)
        assert engine.snapshot()["fired_total"] == 2

    def test_old_incident_ages_out_of_slow_window(self):
        # After the slow window has fully rotated past the bad buckets,
        # the rule state must be as clean as a fresh engine.
        engine, clock = make_engine()
        feed(engine, clock, ["error"] * 8)
        feed(engine, clock, ["ok"] * 70)  # 700s > slow_window_s
        snap = engine.snapshot()["rules"]["errors"]
        assert snap["slow"]["bad"] == 0
        assert snap["firing"] is False


class TestEngineMechanics:
    def test_healthy_stream_skips_evaluation(self):
        # No rule firing, no bad sample in any slow window: no transition
        # is possible, so no pass runs; evaluate() still forces one.
        engine, clock = make_engine()
        feed(engine, clock, ["ok"] * 12)
        snap = engine.snapshot()
        assert snap["records"] == 12
        assert snap["evaluations"] == 0
        engine.evaluate()
        assert engine.snapshot()["evaluations"] == 1
        # One bad sample arms the rule until it leaves the slow window.
        feed(engine, clock, ["error"] + ["ok"] * 3)
        assert engine.snapshot()["evaluations"] == 5

    @settings(max_examples=150)
    @given(
        stream=st.lists(
            st.tuples(
                st.sampled_from(["ok", "ok", "ok", "error", "timeout", "rejected"]),
                st.sampled_from([1.0, 40.0, 400.0]),
                st.booleans(),
                st.sampled_from([0.0, 0.0, 0.5, 3.0, 10.0, 45.0, 130.0, 700.0]),
            ),
            max_size=200,
        )
    )
    def test_transitions_equal_evaluating_after_every_record(self, stream):
        # The engine evaluates only when a transition is possible; the
        # reference is the same engine forced through a pass after every
        # record.  Fire/resolve sequences and final rule state must match.
        rules = (
            RULE,
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
        clock = ManualClock()
        engine = AlertEngine(rules=rules, clock=clock)
        reference = AlertEngine(rules=rules, clock=clock)
        seen, expected = [], []
        for outcome, latency_ms, degraded, step in stream:
            clock.advance(step)
            seen.extend(engine.record(outcome, latency_ms, degraded))
            expected.extend(reference.record(outcome, latency_ms, degraded))
            expected.extend(reference.evaluate())
        assert seen == expected
        assert engine.snapshot()["rules"] == reference.snapshot()["rules"]
        assert engine.history() == reference.history()

    def test_callbacks_fire_outside_lock_and_are_isolated(self):
        engine, clock = make_engine()
        seen = []

        def boom(event):
            raise RuntimeError("callback bug")

        def note(event):
            # Re-entering the engine proves callbacks run unlocked.
            seen.append((event["rule"], engine.snapshot()["fired_total"]))

        engine.on_fire.extend([boom, note])
        engine.on_resolve.append(note)
        feed(engine, clock, ["error"] * 8)
        feed(engine, clock, ["ok"] * 40)
        assert seen == [("errors", 1), ("errors", 1)]

    def test_history_is_bounded(self, monkeypatch):
        monkeypatch.setattr(alerts, "MAX_HISTORY", 4)
        engine, clock = make_engine()
        # Each cycle must burn >25% of a *full* slow window (60 buckets)
        # to re-fire, hence 20 errors; the ok run rotates them back out.
        for _ in range(6):
            feed(engine, clock, ["error"] * 20)
            feed(engine, clock, ["ok"] * 100)
        history = engine.history()
        assert len(history) == 4
        assert {e["state"] for e in history} == {"firing", "resolved"}

    def test_bucket_count_is_bounded(self):
        # The per-rule deque holds O(slow/fast * FAST_BUCKETS) buckets no
        # matter how long the stream runs.
        engine, clock = make_engine()
        feed(engine, clock, ["ok"] * 500)
        state = engine._states["errors"]
        assert len(state.buckets) <= state.keep + 1
        assert state.width == RULE.fast_window_s / FAST_BUCKETS

    def test_snapshot_shape(self):
        engine, clock = make_engine()
        feed(engine, clock, ["error"] * 8)
        snap = engine.snapshot()
        assert set(snap) == {
            "records",
            "evaluations",
            "fired_total",
            "firing_now",
            "rules",
            "history",
        }
        rule = snap["rules"]["errors"]
        assert rule["firing"] is True
        assert rule["fast"]["total"] <= FAST_BUCKETS
        assert snap["history"][0]["state"] == "firing"
