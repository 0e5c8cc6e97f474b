"""Soak subsystem: trace generation, harness, gate, and autotuner.

Small-cube, short-trace versions of everything ``python -m repro soak``
and ``python -m repro tune`` run at scale: seeded generation must be
replayable, the harness's report must carry the SLO/adaptation shape
the benchmark gates read, the differential gate must hold answers
bit-identical under tuning, and the autotuner must only ever emit valid
:class:`~repro.tuning.TuningConfig` profiles.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.soak import (
    OnlineTuner,
    SoakConfig,
    autotune,
    generate_soak_trace,
    load_soak_trace,
    measure_speedup,
    run_soak,
    run_soak_check,
    save_soak_trace,
    warm_start,
)
from repro.soak.autotune import THRESHOLD_HI, THRESHOLD_LO, _floor_quantiles
from repro.tuning import DEFAULT_TUNING, TuningConfig

#: Small enough to keep the whole module in CI seconds.
TINY = SoakConfig(
    sizes=(16, 8, 4),
    batches=12,
    phase_batches=4,
    batch_size=3,
    burst_every=4,
    burst_cells=8,
)


class TestTraceGeneration:
    def test_same_config_same_trace(self):
        assert generate_soak_trace(TINY) == generate_soak_trace(TINY)

    def test_seed_changes_trace(self):
        other = dataclasses.replace(TINY, seed=TINY.seed + 1)
        assert generate_soak_trace(TINY) != generate_soak_trace(other)

    def test_trace_structure(self):
        trace = generate_soak_trace(TINY)
        kinds = {op["op"] for op in trace}
        assert kinds <= {
            "drift",
            "ingest",
            "query_batch",
            "rollup_batch",
            "range",
        }
        drift_phases = [op["phase"] for op in trace if op["op"] == "drift"]
        assert drift_phases == sorted(drift_phases)
        assert len(drift_phases) == TINY.batches // TINY.phase_batches
        assert any(op["op"] == "ingest" for op in trace)

    def test_trace_round_trips_through_json(self, tmp_path):
        trace = generate_soak_trace(TINY)
        path = save_soak_trace(trace, tmp_path / "trace.json")
        assert load_soak_trace(path) == trace


class TestHarness:
    def test_report_shape(self):
        report = run_soak(TINY)
        assert report["queries"] > 0
        assert report["timed_batches"] > 0
        assert report["qps"] > 0
        for key in ("p50", "p95", "p99"):
            assert report["batch_ms"][key] >= 0
            assert report["assembly_ms"][key] >= 0
        assert report["assembly_ms"]["count"] > 0
        assert isinstance(report["drift"], list)
        assert isinstance(report["adaptation"]["reconfigurations"], list)
        assert report["online"]["enabled"] is False
        assert "assembly_walls" not in report

    def test_keep_walls_exposes_assembly_series(self):
        report = run_soak(TINY, keep_walls=True)
        walls = report["assembly_walls"]
        assert len(walls) == report["assembly_ms"]["count"]
        assert all(w >= 0 for w in walls)

    def test_tuning_profile_is_reported(self):
        tuned = TuningConfig(dispatch_threshold=THRESHOLD_HI)
        report = run_soak(TINY, tuning=tuned)
        assert report["tuning"] == tuned.to_dict()
        assert report["effective_tuning"] == tuned.to_dict()

    def test_gate_bit_identical_on_thread_backend(self):
        report = run_soak_check(TINY)
        assert report["ok"], report
        (run,) = report["runs"]
        assert run["bit_identical"]
        assert run["compared"] > 0


class TestAutotune:
    def test_emits_valid_config_and_audit_trail(self):
        best, report = autotune(TINY, trial_batches=4, warm=False)
        assert isinstance(best, TuningConfig)
        assert TuningConfig.from_dict(report["best"]) == best
        assert report["trials"], "search must log every trial"
        for trial in report["trials"]:
            assert trial["stage"] in (1, 2)
            assert trial["objective_ms"] >= 0
        assert report["best_objective_ms"] >= 0

    def test_warm_start_emits_valid_threshold(self):
        warmed = warm_start(TINY)
        assert THRESHOLD_LO <= warmed.dispatch_threshold <= THRESHOLD_HI
        assert warmed.dispatch_threshold & (warmed.dispatch_threshold - 1) == 0

    def test_measure_speedup_report_shape(self):
        tuned = TuningConfig(dispatch_threshold=THRESHOLD_HI)
        result = measure_speedup(TINY, tuned, repeats=2)
        for key in (
            "default_objective_ms",
            "tuned_objective_ms",
            "default_p99_ms",
            "tuned_p99_ms",
            "speedup",
            "p99_speedup",
        ):
            assert key in result
        assert result["speedup"] > 0
        assert result["p99_speedup"] > 0

    def test_floor_quantiles_strip_one_run_bursts(self):
        quiet = [1.0] * 100
        bursty = [1.0] * 100
        bursty[98] = 50.0  # a noise burst in one replay only
        q = _floor_quantiles([quiet, bursty])
        assert q["p99"] == pytest.approx(1.0)
        systematic = [2.0] * 100
        q = _floor_quantiles([systematic, [2.5] * 100])
        assert q["p99"] == pytest.approx(2.0)


class TestOnlineTuner:
    def test_nudges_are_recorded_and_clamped(self):
        tuner = OnlineTuner(window=2)
        nudges = []
        for wall in (1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 2.0, 2.0):
            nudge = tuner.observe(wall)
            if nudge is not None:
                nudges.append(nudge)
        assert nudges, "worsening windows must produce nudges"
        for nudge in nudges:
            assert nudge["knob"] == "dispatch_threshold"
            assert THRESHOLD_LO <= nudge["new"] <= THRESHOLD_HI
            assert nudge["direction"] in ("up", "down")
        assert tuner.nudges == len(nudges)

    def test_overrides_track_current_value(self):
        base = TuningConfig(dispatch_threshold=1 << 16)
        tuner = OnlineTuner(base=base, window=2)
        assert tuner.overrides() == {"dispatch_threshold": 1 << 16}

    def test_window_must_hold_two_batches(self):
        with pytest.raises(ValueError):
            OnlineTuner(window=1)
