"""Soak subsystem: trace generation, harness and gate.

Small-cube, short-trace versions of everything ``python -m repro soak``
runs at scale: seeded generation must be replayable, the harness's
report must carry the SLO/adaptation shape the benchmark gates read, and
the differential gate must hold answers bit-identical under adaptation.
"""

from __future__ import annotations

import dataclasses

from repro.core import exec as batch_exec
from repro.soak import (
    SoakConfig,
    generate_soak_trace,
    load_soak_trace,
    run_soak,
    run_soak_check,
    save_soak_trace,
)

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
        assert "online" not in report
        assert "assembly_walls" not in report

    def test_tuning_profile_is_reported(self):
        """The report carries the constants the run was served with."""
        report = run_soak(TINY, server_kwargs={"cache_entries": 16})
        assert report["tuning"]["cache_entries"] == 16
        assert (
            report["tuning"]["dispatch_threshold"]
            == batch_exec.DISPATCH_THRESHOLD
        )

    def test_gate_bit_identical_on_thread_backend(self):
        report = run_soak_check(TINY)
        assert report["ok"], report
        (run,) = report["runs"]
        assert run["bit_identical"]
        assert run["compared"] > 0
        assert "nudges" not in run
