"""Reduced run of the kill-and-recover chaos gate.

The full gate (``repro recover``) exercises ~20 SIGKILL points across
1/2/4-shard layouts; here a trimmed configuration keeps the spawn-based
children cheap enough for the tier-1 suite while still covering a real
mid-append kill, a mid-snapshot kill, and a clean shutdown.
"""

from __future__ import annotations

import pytest

from repro.durability.gate import (
    RecoveryGateConfig,
    render_report,
    run_recovery_gate,
)


def test_reduced_gate_passes(tmp_path):
    config = RecoveryGateConfig(
        seed=11,
        shard_counts=(1,),
        operations=20,
        snapshot_every=4,
        wal_kills=1,
        snapshot_kills=1,
        include_clean=True,
        cross_restore=False,
        segment_bytes=1024,
    )
    report = run_recovery_gate(config, workdir=tmp_path)
    assert report["ok"], render_report(report)
    assert report["kill_points"] >= 2
    for scenario in report["scenarios"]:
        for restore in scenario["restores"]:
            assert restore["lost_acked"] == 0
            assert restore["unacked_tail"] <= 1
            assert restore["compared"] > 0
            assert restore["mismatches"] == []
    killed = [s for s in report["scenarios"] if s["killed"]]
    clean = [s for s in report["scenarios"] if not s["killed"]]
    assert killed and clean


def test_a_child_that_crashes_before_its_first_snapshot_fails_its_scenario(
    tmp_path,
):
    """Four shards cannot split a 2x2x2 cube: the child raises while the
    server is built, before the snapshot a durable server starts with.
    The gate reports the scenario failed with the child's exit code."""
    config = RecoveryGateConfig(
        seed=5,
        sizes=(2, 2, 2),
        shard_counts=(4,),
        operations=8,
        wal_kills=1,
        snapshot_kills=0,
        include_clean=False,
        cross_restore=False,
    )
    report = run_recovery_gate(config, workdir=tmp_path)
    assert not report["ok"]
    (scenario,) = report["scenarios"]
    assert scenario["exitcode"] == 1
    assert not scenario["killed"] and not scenario["ok"]
    assert scenario["restores"] == []
    assert "exit 1" in render_report(report)


@pytest.mark.parametrize("counts", [(3,), (1, 2, 6), (0,)])
def test_shard_counts_must_be_powers_of_two(counts):
    with pytest.raises(ValueError, match="not a power of two"):
        RecoveryGateConfig(shard_counts=counts)
