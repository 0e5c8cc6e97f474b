"""Snapshot/restore round trips through the durable serving stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.materialize import compute_element
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.durability import (
    DurabilityConfig,
    Lineage,
    latest_snapshot,
    list_snapshots,
)
from repro.replay import Replica, seeded_cube
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer


def _cube(rng: np.random.Generator, sizes=(8, 8, 8)):
    return seeded_cube(int(rng.integers(1 << 30)), sizes)


def _mutate(server: OLAPServer, rng: np.random.Generator, batches: int):
    """Apply ``batches`` update batches and return them for replaying."""
    applied = []
    for _ in range(batches):
        n = int(rng.integers(1, 4))
        coords = rng.integers(0, 8, size=(n, 3)).astype(np.int64)
        deltas = rng.integers(-5, 6, size=n).astype(np.float64)
        server.update_many(coords, deltas)
        applied.append((coords, deltas))
    return applied


def _answers(server: OLAPServer) -> dict[str, bytes]:
    return {
        "cube": server.cube.values.tobytes(),
        "d0": server.view(["d0"]).tobytes(),
        "d0d1": server.view(["d0", "d1"]).tobytes(),
        "d2": server.view(["d2"]).tobytes(),
    }


def _config(tmp_path, **overrides) -> DurabilityConfig:
    defaults = dict(fsync="off")
    defaults.update(overrides)
    return DurabilityConfig(tmp_path / "durable", **defaults)


class TestBootstrap:
    def test_fresh_directory_bootstraps_a_snapshot(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            assert server._lineage.applied_seq == 0
        assert latest_snapshot(config.snapshot_dir) is not None

    def test_existing_lineage_rejected(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 2)
        with pytest.raises(ValueError, match="restore"):
            OLAPServer(_cube(rng), durability=config)

    def test_restore_without_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no snapshot"):
            OLAPServer.restore(_config(tmp_path))


class TestRoundTrip:
    def test_monolithic(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 4)
            server.snapshot()
            _mutate(server, rng, 3)  # WAL-only suffix
            expected = _answers(server)
            applied = server._lineage.applied_seq
        with OLAPServer.restore(config) as restored:
            assert restored._lineage.applied_seq == applied == 7
            assert restored._lineage.replayed_records == 3
            assert _answers(restored) == expected
            # The lineage stays open for business.
            restored.update(2.0, d0=1, d1=2, d2=3)
            assert restored._lineage.applied_seq == applied + 1

    def test_sharded_same_layout(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), shards=2, durability=config) as server:
            _mutate(server, rng, 5)
            server.snapshot()
            _mutate(server, rng, 2)
            expected = _answers(server)
        with OLAPServer.restore(config) as restored:
            assert restored.shards == 2
            assert restored._lineage.replayed_records == 2
            assert _answers(restored) == expected

    def test_explicit_matching_shards_takes_direct_install(
        self, tmp_path, rng
    ):
        """``shards=`` equal to the snapshot's own count is the same
        layout: restore must install the per-shard sets directly
        (preserving shard epochs) rather than rebuilding from the cube."""
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), shards=2, durability=config) as server:
            _mutate(server, rng, 3)
            server.reconfigure()  # bump per-shard epochs past zero
            server.snapshot()
            epochs = tuple(server._state.materialized.epochs)
            expected = _answers(server)
        with OLAPServer.restore(config, shards=2) as restored:
            assert restored.shards == 2
            assert tuple(restored._state.materialized.epochs) == epochs
            assert _answers(restored) == expected

    @pytest.mark.parametrize("target_shards", [1, 4])
    def test_sharded_restore_onto_different_shard_count(
        self, tmp_path, rng, target_shards
    ):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), shards=2, durability=config) as server:
            _mutate(server, rng, 5)
            server.snapshot()
            _mutate(server, rng, 2)
            expected = _answers(server)
        with OLAPServer.restore(config, shards=target_shards) as restored:
            assert restored.shards == target_shards
            assert _answers(restored) == expected

    def test_restore_survives_staging_debris(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 3)
            expected = _answers(server)
        debris = config.snapshot_dir / ".staging-snap-crashed"
        debris.mkdir()
        (debris / "cube.npz").write_bytes(b"half-written")
        with OLAPServer.restore(config) as restored:
            assert _answers(restored) == expected

    @pytest.mark.parametrize("shards", [1, 2])
    def test_snapshot_quarantines_a_damaged_unverified_element(
        self, tmp_path, rng, shards
    ):
        """Found by ``tests/test_server_model.py``: a snapshot taken before
        a damaged element's first use raised ``KeyError`` out of
        ``save_materialized_set``.  The save is a first use like any other:
        the element is quarantined, the survivors are written."""
        config = _config(tmp_path)
        corrupt_first_store = FaultInjector(
            [
                FaultRule(
                    site="materialize.store",
                    kind="corrupt",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=0,
        )
        with OLAPServer(_cube(rng), shards=shards, durability=config) as server:
            with corrupt_first_store.activate():
                server.reconfigure()
            server.snapshot()
            failures = server.metrics.counter("integrity_failures_total")
            assert failures.total() == 1
            expected = _answers(server)
            replica = Replica(server.cube.values)
        for name, dims in (("d0", ["d0"]), ("d0d1", ["d0", "d1"]), ("d2", ["d2"])):
            assert expected[name] == replica.view(dims).tobytes()
        with OLAPServer.restore(config) as restored:
            assert _answers(restored) == expected


class TestCrossLayoutRestore:
    """A snapshot restored onto another shard count is rebuilt by
    ``reconfigure()``'s migration from the restored root-only set: a
    healthy rebuild, not one shard degradation per stored element."""

    @staticmethod
    def _cube(kind: str, sizes=(8, 4, 8)):
        if kind == "int":
            return seeded_cube(17, sizes)
        dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
        values = np.random.default_rng(17).random(sizes)
        return DataCube(values, dims, measure="amount")

    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("source, target", [(1, 2), (2, 1), (4, 2), (1, 4)])
    def test_rebuild_is_healthy_and_equals_a_recompute(
        self, tmp_path, kind, source, target
    ):
        config = _config(tmp_path)
        cube = self._cube(kind)
        with OLAPServer(cube, shards=source, durability=config) as server:
            server.update_many([[1, 2, 3], [7, 0, 5]], [3.0, -2.0])
            for dims in (["d0"], ["d1", "d2"], ["d0", "d2"]):
                server.view(dims)
            server.rollup({"d0": 1, "d2": 2})
            server.reconfigure()
            server.snapshot()  # no WAL suffix: storage is the rebuild itself
            selection = server.materialized.elements
            expected = _answers(server)
        with OLAPServer.restore(config, shards=target) as restored:
            health = restored.health()
            assert restored.shards == target
            assert not restored.obs.events.events("shard_degraded")
            assert health["status"] == "ok"
            stored = restored.materialized
            values = restored.cube.values
            if target == 1:
                assert set(stored.elements) == set(selection)
                for element in selection:
                    assert (
                        stored.array(element).tobytes()
                        == compute_element(values, element).tobytes()
                    )
            else:
                assert health["shards"]["shard_degraded"] == 0
                partition = stored.partition
                projected = {partition.project(e) for e in selection}
                for s, local in enumerate(stored.local_sets()):
                    slab = partition.slab(values, s)
                    assert set(local.elements) == projected
                    for element in projected:
                        assert (
                            local.array(element).tobytes()
                            == compute_element(slab, element).tobytes()
                        )
            assert _answers(restored)["cube"] == expected["cube"]
            if kind == "int":
                assert _answers(restored) == expected


class TestApplyFailure:
    def test_failed_apply_does_not_advance_applied_seq(self, tmp_path, rng):
        """If the in-memory apply raises after the WAL append, the record
        must not count as applied: a snapshot taken afterwards would
        otherwise claim coverage of (and prune) state that was never
        absorbed."""
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 2)
            state = server._state
            original = state.materialized.apply_updates

            def exploding(*args, **kwargs):
                raise RuntimeError("apply exploded")

            state.materialized.apply_updates = exploding
            try:
                with pytest.raises(RuntimeError, match="apply exploded"):
                    server.update(1.0, d0=0, d1=0, d2=0)
            finally:
                state.materialized.apply_updates = original
            assert server._lineage.wal.last_seq == 3  # write-ahead happened
            assert server._lineage.applied_seq == 2  # but it was never applied
            server.snapshot()
            # The unapplied record stays replayable past the snapshot.
            lineage = server._lineage
            assert [
                r.seq for r in lineage.wal.replay(after_seq=lineage.snapshot_seq)
            ] == [3]


class TestSnapshotterOrdering:
    def test_restore_starts_snapshotter_only_after_replay(
        self, tmp_path, rng, monkeypatch
    ):
        """A snapshot fired before WAL replay completes would record
        coverage of unapplied records and prune them; restore must not
        start the background snapshotter until replay is done."""
        config = _config(tmp_path, snapshot_interval_s=3600.0)
        with OLAPServer(_cube(rng), durability=config) as server:
            assert server._lineage.snapshotter is not None
            _mutate(server, rng, 3)
        calls = []
        orig_replay = Lineage.replay
        orig_start = Lineage.start_snapshotter
        monkeypatch.setattr(
            Lineage,
            "replay",
            lambda self, *a, **k: (
                calls.append("replay"),
                orig_replay(self, *a, **k),
            )[-1],
        )
        monkeypatch.setattr(
            Lineage,
            "start_snapshotter",
            lambda self, *a, **k: (
                calls.append("snapshotter"),
                orig_start(self, *a, **k),
            )[-1],
        )
        with OLAPServer.restore(config) as restored:
            assert calls == ["replay", "snapshotter"]
            assert restored._lineage.snapshotter is not None
            assert restored._lineage.applied_seq == 3


class TestHousekeeping:
    def test_snapshot_prunes_covered_wal_segments(self, tmp_path, rng):
        config = _config(tmp_path, segment_bytes=256)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 10)
            assert len(server._lineage.wal.segments()) > 1
            server.snapshot()
            assert len(server._lineage.wal.segments()) == 1
            assert server.health()["durability"]["replay_lag"] == 0

    def test_retain_snapshots(self, tmp_path, rng):
        config = _config(tmp_path, retain_snapshots=2)
        with OLAPServer(_cube(rng), durability=config) as server:
            for _ in range(3):
                _mutate(server, rng, 1)
                server.snapshot()
            assert len(list_snapshots(config.snapshot_dir)) == 2

    def test_export_snapshot_leaves_lineage_alone(self, tmp_path, rng):
        config = _config(tmp_path, segment_bytes=256)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 8)
            segments = len(server._lineage.wal.segments())
            taken = server._lineage.snapshots_taken
            export = server.snapshot(tmp_path / "export")
            assert export.parent == tmp_path / "export"
            assert len(server._lineage.wal.segments()) == segments
            assert server._lineage.snapshots_taken == taken

    def test_health_reports_durability(self, tmp_path, rng):
        config = _config(tmp_path)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 3)
            section = server.health()["durability"]
            assert section["applied_seq"] == 3
            assert section["replay_lag"] == 3
            assert section["wal"]["last_seq"] == 3
            assert section["snapshots_taken"] == 1
            assert section["snapshot_age_s"] >= 0
            assert section["fsync"] == "off"
        plain = OLAPServer(_cube(rng))
        assert "durability" not in plain.health()


class TestEvents:
    def test_rotation_snapshot_and_replay_events(self, tmp_path, rng):
        config = _config(tmp_path, segment_bytes=256)
        with OLAPServer(_cube(rng), durability=config) as server:
            _mutate(server, rng, 10)
            server.snapshot()
            events = server.obs.events
            assert events.events("wal_rotated")
            taken = events.events("snapshot_taken")
            assert taken and taken[-1]["last_seq"] == 10
        with OLAPServer.restore(config) as restored:
            replayed = restored.obs.events.events("recovery_replayed")
            assert len(replayed) == 1
            assert replayed[0]["records"] == 0  # snapshot covered everything
            assert replayed[0]["to_seq"] == 10
