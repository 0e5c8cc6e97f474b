"""One server lineage: the WAL, sequence state and snapshotter of a
durability directory, and a server's persistence over it.

:class:`Lineage` is all the durability state an
:class:`~repro.server.OLAPServer` holds.  :meth:`Lineage.create` starts one
in a fresh directory, :meth:`Lineage.reopen` resumes one at its newest
snapshot, and :meth:`Lineage.replay` feeds the WAL suffix back through the
server's in-memory ingest.  :func:`write_cut` is the server's snapshot,
:func:`restore` its restore sequence and :func:`install_snapshot` the
serving state a restore swaps in.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..core.delta import DeltaBatch
from ..core.element import CubeShape
from ..core.operators import OpCounter
from ..obs import log_event, span
from .snapshot import latest_snapshot, load_snapshot, write_snapshot
from .wal import WriteAheadLog

__all__ = [
    "DurabilityConfig", "Lineage", "install_snapshot", "restore", "write_cut"
]


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs of one server's durability directory.

    ``fsync`` picks the acknowledgement durability class: ``"always"``
    fsyncs every append (survives power loss), ``"interval"`` fsyncs at
    most every ``fsync_interval_ms`` (survives process death — the bytes
    are in the OS page cache before the ack — and bounds power-loss
    exposure), ``"off"`` never fsyncs explicitly (still survives
    ``SIGKILL``: records are flushed to the OS before acknowledging).

    ``snapshot_interval_s`` enables the background snapshot cadence
    (``None`` = snapshots are taken only by explicit
    :meth:`~repro.server.OLAPServer.snapshot` calls); after each
    successful snapshot, WAL segments it fully covers are pruned and only
    the newest ``retain_snapshots`` snapshot directories are kept.
    """

    directory: str | Path
    fsync: str = "interval"
    fsync_interval_ms: float = 50.0
    segment_bytes: int = 1 << 20
    retain_snapshots: int = 2
    snapshot_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.fsync not in ("always", "interval", "off"):
            raise ValueError(
                f"fsync must be 'always', 'interval', or 'off', "
                f"got {self.fsync!r}"
            )
        if self.retain_snapshots < 1:
            raise ValueError("retain_snapshots must be at least 1")

    @property
    def wal_dir(self) -> Path:
        return Path(self.directory) / "wal"

    @property
    def snapshot_dir(self) -> Path:
        return Path(self.directory) / "snapshots"


class Lineage:
    """The WAL of one durability directory and the sequence state around
    it: ``applied_seq`` is the newest record the server's memory holds,
    ``snapshot_seq`` the newest one a snapshot covers."""

    def __init__(self, config: DurabilityConfig):
        self.config = config
        self.wal = WriteAheadLog(
            config.wal_dir,
            fsync=config.fsync,
            fsync_interval_ms=config.fsync_interval_ms,
            segment_bytes=config.segment_bytes,
        )
        self.applied_seq = self.wal.last_seq
        self.snapshot_seq = self.snapshots_taken = self.replayed_records = 0
        self.last_snapshot_monotonic: float | None = None
        #: The snapshot a reopened lineage resumed from.
        self.restored_from: Path | None = None
        self.snapshotter: threading.Thread | None = None
        self._stop = threading.Event()

    @classmethod
    def create(cls, durability: DurabilityConfig | str | Path) -> "Lineage":
        """Start a lineage in a *fresh* directory.

        An existing WAL or snapshot means the directory already belongs to
        a lineage, and starting a new one over it would orphan
        acknowledged state: that raises ``ValueError``.
        """
        lineage = cls(_config(durability))
        config = lineage.config
        if lineage.applied_seq or latest_snapshot(config.snapshot_dir):
            lineage.wal.close()
            raise ValueError(
                f"durability directory {config.directory} already holds "
                "serving state; reopen it with OLAPServer.restore()"
            )
        return lineage

    @classmethod
    def reopen(
        cls, durability: DurabilityConfig | str | Path
    ) -> tuple["Lineage", dict]:
        """Resume a lineage at its newest complete snapshot; returns the
        lineage and the loaded snapshot (:func:`load_snapshot`)."""
        config = _config(durability)
        path = latest_snapshot(config.snapshot_dir)
        if path is None:
            raise FileNotFoundError(
                f"no snapshot under {config.snapshot_dir}; nothing to "
                "restore (a durable server bootstraps one at construction)"
            )
        loaded = load_snapshot(path)
        lineage = cls(config)
        lineage.applied_seq = lineage.snapshot_seq = int(
            loaded["manifest"]["last_seq"]
        )
        lineage.last_snapshot_monotonic = time.monotonic()
        lineage.restored_from = path
        return lineage, loaded

    def replay(
        self, shape: CubeShape, absorb: Callable[[DeltaBatch], None]
    ) -> None:
        """Feed the WAL suffix past ``applied_seq`` to ``absorb``, oldest
        first; each record counts as applied once ``absorb`` returned."""
        start = self.applied_seq
        self.replayed_records = 0
        for record in self.wal.replay(after_seq=start):
            absorb(DeltaBatch(shape, record.coordinates, record.deltas))
            self.applied_seq = record.seq
            self.replayed_records += 1
        log_event(
            "recovery_replayed",
            snapshot=str(self.restored_from),
            records=self.replayed_records,
            from_seq=start,
            to_seq=self.applied_seq,
        )

    def start_snapshotter(
        self, snapshot: Callable[[], Path], obs, failures
    ) -> None:
        """Call ``snapshot`` every ``snapshot_interval_s`` until
        :meth:`close`; a no-op without an interval or when running.

        Failures are counted on ``failures`` and logged to ``obs``, never
        raised into the serving path; the next tick tries again.
        """
        interval_s = self.config.snapshot_interval_s
        if interval_s is None or self.snapshotter is not None:
            return

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    snapshot()
                except Exception as exc:  # noqa: BLE001 - keep the cadence
                    failures.inc()
                    with obs.activate():
                        log_event(
                            "snapshot_failed",
                            error=type(exc).__name__,
                            detail=str(exc),
                        )

        self.snapshotter = threading.Thread(
            target=_loop, name="repro-snapshotter", daemon=True
        )
        self.snapshotter.start()

    def health(self, total: Callable[[str], float]) -> dict:
        """The ``health()["durability"]`` section; ``total`` reads a
        metric's total from the server's registry."""
        last = self.last_snapshot_monotonic
        age = None if last is None else round(time.monotonic() - last, 3)
        return {
            "path": str(self.config.directory),
            "fsync": self.wal.fsync,
            "wal": self.wal.stats(),
            "wal_appends_total": total("wal_appends_total"),
            "wal_replayed_total": total("wal_replayed_total"),
            "applied_seq": self.applied_seq,
            "snapshots_taken": self.snapshots_taken,
            "last_snapshot_seq": self.snapshot_seq,
            "snapshot_age_s": age,
            # WAL records an eventual restore must replay: how far the log
            # has run ahead of the newest snapshot.
            "replay_lag": self.applied_seq - self.snapshot_seq,
            "replayed_records": self.replayed_records,
        }

    def close(self) -> None:
        """Stop the snapshotter and close the WAL (final sync); idempotent."""
        self._stop.set()
        if self.snapshotter is not None:
            self.snapshotter.join(timeout=5.0)
            self.snapshotter = None
        self.wal.close()


def write_cut(server, directory: str | Path | None) -> Path:
    """:meth:`OLAPServer.snapshot <repro.server.OLAPServer.snapshot>`:
    write and log one consistent cut of ``server``; returns its path.

    With no ``directory`` the cut is the lineage's own snapshot: it
    advances ``snapshot_seq`` and prunes the WAL segments it covers.  An
    explicit ``directory`` is an export copy that leaves the lineage alone
    (a server without one exports as of sequence 0).
    """
    lineage, own = server._lineage, directory is None
    if own and lineage is None:
        raise ValueError(
            "no snapshot directory: pass one, or construct the server with "
            "durability="
        )
    with server._reconfigure_lock, server.obs.activate(), span(
        "server.snapshot"
    ) as sp:
        server._log.fold()
        state = server._state
        last_seq = lineage.applied_seq if lineage is not None else 0
        path = write_snapshot(
            lineage.config.snapshot_dir if own else directory,
            last_seq=last_seq,
            retain=lineage.config.retain_snapshots if lineage else 2,
            cube=server.cube,
            materialized=state.materialized,
            partition=server._partition,
            epoch=state.epoch,
        )
        pruned = 0
        if own:
            lineage.snapshots_taken += 1
            lineage.snapshot_seq = last_seq
            lineage.last_snapshot_monotonic = time.monotonic()
            pruned = lineage.wal.prune(last_seq)
        log_event(
            "snapshot_taken",
            path=str(path),
            last_seq=last_seq,
            epoch=state.epoch,
            wal_segments_pruned=pruned,
        )
        server._m.snapshots.inc()
        sp.set(last_seq=last_seq, epoch=state.epoch, pruned=pruned)
        return path


def restore(server_cls, durability, shards, shard_axis, **kwargs):
    """:meth:`OLAPServer.restore <repro.server.OLAPServer.restore>` for
    ``server_cls``: ``shards`` / ``shard_axis`` ``None`` keep the
    snapshot's own layout, and ``kwargs`` go to the constructor."""
    lineage, loaded = Lineage.reopen(durability)
    manifest = loaded["manifest"]
    own_shards, own_axis = manifest["shards"], manifest["shard_axis"]
    shards = own_shards if shards is None else int(shards)
    if shard_axis is None and shards == own_shards:
        # An explicit shards= equal to the snapshot's own count is the
        # same layout: inherit its axis, so the sets install as written.
        shard_axis = own_axis
    same = shards == own_shards and (shards == 1 or shard_axis == own_axis)
    try:
        server = server_cls(
            loaded["cube"], shards=shards, shard_axis=shard_axis, **kwargs
        )
        install_snapshot(server, loaded, same_layout=same)
    except BaseException:
        lineage.close()
        raise
    server._lineage = lineage
    with server._reconfigure_lock, server.obs.activate():
        lineage.replay(server.shape, server._absorb)
    # Only now: a snapshot during replay would claim records the in-memory
    # state does not hold yet, and prune them.
    lineage.start_snapshotter(
        server.snapshot, server.obs, server._m.snapshot_failures
    )
    return server


def install_snapshot(server, loaded: dict, *, same_layout: bool) -> None:
    """Swap a snapshot's serving state (selection, arrays, epoch) into
    ``server``: the loaded arrays on the same layout, else the server's
    ``_migrate`` from its root-only set."""
    manifest = loaded["manifest"]
    with server._reconfigure_lock, server.obs.activate(), span(
        "server.restore_install", same_layout=same_layout
    ):
        if not same_layout:
            new_set = server._migrate(
                loaded["elements"], server._state.materialized, OpCounter()
            )
        elif server._partition is None:
            new_set = loaded["sets"][0]
        else:
            new_set = server._new_materialized()
            new_set.install_restored(
                loaded["elements"], loaded["sets"], manifest["shard_epochs"]
            )
        server._publish(new_set, int(manifest["epoch"]))


def _config(durability: DurabilityConfig | str | Path) -> DurabilityConfig:
    if isinstance(durability, DurabilityConfig):
        return durability
    return DurabilityConfig(durability)
