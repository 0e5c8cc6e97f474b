"""Durable serving state: write-ahead log, snapshots, crash recovery.

The serving stack keeps everything hot in memory — the base cube, the
materialized element set (monolithic or sharded slabs), warm result
caches, range intermediates — and ``OLAPServer.update()``/``update_many()``
patch all of it in place.  This package is the one durability layer under
:class:`~repro.server.OLAPServer`, so a crash loses no acknowledged delta:

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
- :mod:`repro.durability.lineage` — :class:`Lineage`, all the durability
  state a server holds (one attribute: config, WAL, sequence numbers,
  counters, snapshotter), and the server's snapshot and restore over it.
  A restore reopens the lineage at its newest snapshot and replays the
  WAL suffix through the server's in-memory ingest, losing **zero
  acknowledged updates**; a snapshot restored onto another shard layout
  is rebuilt by ``reconfigure()``'s migration from the restored cube.
- :mod:`repro.durability.gate` — the crash-recovery differential gate
  behind ``python -m repro recover``: :func:`repro.replay.replay` a seeded
  update/query trace in a child process, ``SIGKILL`` it at seeded points
  (between operations, mid-WAL-append, mid-snapshot), restore, and require
  every acknowledged update present and the quiescent sweep byte-identical
  to a :class:`~repro.replay.Replica` holding exactly the restored prefix.

A durability directory belongs to one server lineage: create a server
with ``durability=`` pointing at a fresh directory (it takes an initial
snapshot so recovery is possible from the first update), and reopen it
only through :meth:`~repro.server.OLAPServer.restore`.
"""

from __future__ import annotations

from .lineage import DurabilityConfig, Lineage
from .snapshot import latest_snapshot, list_snapshots, load_snapshot, write_snapshot
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "Lineage",
    "WriteAheadLog",
    "WalRecord",
    "write_snapshot",
    "load_snapshot",
    "latest_snapshot",
    "list_snapshots",
]
