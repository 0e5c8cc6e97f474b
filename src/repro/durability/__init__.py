"""Durable serving state: write-ahead log, snapshots, crash recovery.

The serving stack keeps everything hot in memory — the base cube, the
materialized element set (monolithic or sharded slabs), warm result
caches, range intermediates.  PR 7's incremental delta maintenance made
``OLAPServer.update()``/``update_many()`` patch all of it in place, which
means a process crash silently loses every acknowledged delta and a
restart recomputes the whole materialized set from the original records.
This package is the missing durability layer:

- :mod:`repro.durability.wal` — a write-ahead log.  Every update batch is
  appended as one checksummed, length-prefixed record *before* the server
  acknowledges it, with a configurable fsync policy (``"always"`` /
  ``"interval"`` / ``"off"``) and size-based segment rotation.  Replay
  detects torn or truncated tails (a crash mid-append) and cleanly
  discards them; duplicate sequence numbers are skipped, so replay is
  idempotent.
- :mod:`repro.durability.snapshot` — atomic snapshot directories.
  :meth:`OLAPServer.snapshot <repro.server.OLAPServer.snapshot>` persists
  the full serving state — base cube, materialized arrays (via
  :func:`repro.io.save_materialized_set`, per shard for sharded layouts),
  the selected element set, epoch, and the last WAL sequence the snapshot
  covers — into a staging directory renamed into place, with a ``CURRENT``
  pointer swapped atomically after.  A crash mid-snapshot leaves only
  ignorable staging debris.
- :meth:`OLAPServer.restore <repro.server.OLAPServer.restore>` — rebuild a
  server from the newest complete snapshot plus a WAL replay of the
  suffix, for monolithic and sharded layouts (including restoring onto a
  *different* shard count), losing **zero acknowledged updates**.
- :mod:`repro.durability.gate` — the crash-recovery differential gate
  behind ``python -m repro recover``: :func:`repro.replay.replay` a seeded
  update/query trace in a child process, ``SIGKILL`` it at seeded points
  (between operations, mid-WAL-append, mid-snapshot), restore, and require
  every acknowledged update present and the quiescent sweep byte-identical
  to a :class:`~repro.replay.Replica` holding exactly the restored prefix.

A durability directory belongs to one server lineage: create a server
with ``durability=`` pointing at a fresh directory (it bootstraps an
initial snapshot so recovery is possible from the first update), and
reopen it only through :meth:`~repro.server.OLAPServer.restore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .snapshot import latest_snapshot, list_snapshots, load_snapshot, write_snapshot
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "WriteAheadLog",
    "WalRecord",
    "write_snapshot",
    "load_snapshot",
    "latest_snapshot",
    "list_snapshots",
]

#: Subdirectory names inside a durability directory.
WAL_DIRNAME = "wal"
SNAPSHOT_DIRNAME = "snapshots"


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
        return Path(self.directory) / WAL_DIRNAME

    @property
    def snapshot_dir(self) -> Path:
        return Path(self.directory) / SNAPSHOT_DIRNAME
