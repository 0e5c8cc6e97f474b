"""Soak subsystem: trace generation, harness and gate.

Small-cube, short-trace versions of everything ``python -m repro soak``
runs at scale: seeded generation must be replayable, the harness's
report must carry the SLO/adaptation shape the benchmark gates read, and
the differential gate must hold answers bit-identical under adaptation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core import exec as batch_exec
from repro.replay import load_trace, save_trace
from repro.soak import SoakConfig, run_soak, run_soak_check
from repro.workloads import drifting_trace

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
        assert drifting_trace(TINY) == drifting_trace(TINY)

    def test_seed_changes_trace(self):
        other = dataclasses.replace(TINY, seed=TINY.seed + 1)
        assert drifting_trace(TINY) != drifting_trace(other)

    def test_trace_structure(self):
        trace = drifting_trace(TINY)
        kinds = {op["op"] for op in trace}
        assert kinds <= {
            "drift",
            "update_many",
            "query_batch",
            "rollup_batch",
            "range",
        }
        drift_phases = [op["phase"] for op in trace if op["op"] == "drift"]
        assert drift_phases == sorted(drift_phases)
        assert len(drift_phases) == TINY.batches // TINY.phase_batches
        assert any(op["op"] == "update_many" for op in trace)

    def test_trace_is_the_parent_commits_trace(self):
        """``drifting_trace(TINY)`` is ``generate_soak_trace(TINY)`` of the
        commit before the trace models merged (its ``ingest`` ops renamed
        ``update_many``) — digest computed there — so
        ``bench_soak.py --compare BENCH_soak_small.json`` still compares
        runs of the same trace."""
        blob = json.dumps(drifting_trace(TINY), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "2b54e231a784216f291a87416f6df43d65b65ee89d0ce60c035ca799b382e18a"
        )

    def test_trace_round_trips_through_json(self, tmp_path):
        trace = drifting_trace(TINY)
        path = save_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace


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

    def test_gate_re_selects_mid_run(self):
        """The gate's promise is answers unchanged *by adaptation*: a run
        that never reconfigured has not tested it."""
        (run,) = run_soak_check(TINY)["runs"]
        assert run["reconfigurations"] >= 1

    def test_every_server_reselection_is_reported(self, monkeypatch):
        """With a tolerance every profile exceeds, each assembly batch's
        ``observe_profile`` re-selects; the report lists each one."""
        monkeypatch.setattr("repro.core.adaptive.TOLERANCE", -1.0)
        report = run_soak(TINY)
        reconfigurations = report["adaptation"]["reconfigurations"]
        assert len(reconfigurations) == report["epoch"]
        assert report["epoch"] == report["assembly_ms"]["count"]
        assert [r["epoch"] for r in reconfigurations] == list(
            range(1, report["epoch"] + 1)
        )
        for record in reconfigurations:
            assert set(record) == {
                "epoch", "divergence", "storage", "expected_cost"
            }
            assert record["divergence"] == 1.0  # unfaulted: model-exact
            assert record["storage"] == 16 * 8 * 4
            assert record["expected_cost"] >= 0
        assert report["adaptation"]["final_divergence"] == 1.0
