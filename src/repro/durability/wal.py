"""The write-ahead ingest log: checksummed, length-prefixed, replayable.

Every update batch the server acknowledges is first appended here as one
**record**::

    <u32 payload length> <u32 CRC-32 of payload> <payload>
    payload = <u64 seq> <u32 epoch> <u32 n> <u32 d>
              <n*d i64 coordinates, row-major> <n f64 deltas>

Records live in **segments** — ``wal-<first-seq>.seg`` files beginning
with an 12-byte magic+version header — and a segment is rotated out once
it crosses ``segment_bytes``.  Sequence numbers are monotonic across
segments, assigned by the log itself, and are the coordinate system the
snapshot layer uses: a snapshot records the last sequence it covers, and
:meth:`WriteAheadLog.prune` deletes segments whose records are all
covered.

Crash safety is the whole point, so the failure modes are explicit:

- **Torn tail.**  A crash (or ``SIGKILL`` — the recovery gate does
  exactly this) mid-append leaves a partial record at the end of the last
  segment.  Opening the log detects it — short header, impossible length,
  CRC mismatch, or inconsistent payload — truncates the segment back to
  the last whole record, and counts the discard; replay never yields a
  partial record.
- **Duplicate sequences.**  Replay tracks the highest sequence seen and
  skips any record at or below it, so replaying overlapping segments (or
  replaying twice) is idempotent.
- **Failed append.**  If an append raises mid-write (a fault-injection
  ``error`` at the ``wal.append`` site, a full disk), the segment is
  truncated back to its pre-append length before the exception
  propagates, so the log never wedges itself behind its own tear.

Acknowledgement durability is governed by the fsync policy: ``"always"``
fsyncs every append; ``"interval"`` fsyncs at most every
``fsync_interval_ms`` milliseconds; ``"off"`` never fsyncs explicitly.
Every policy *flushes* each record to the operating system before the
append returns, so an acknowledged update survives process death under
any policy — the fsync policy only decides exposure to whole-machine
power loss.

The ``wal.append`` fault site fires **between** the two halves of the
record write (after the first half reached the OS), so an injected
``kill`` there produces a genuinely torn record on disk — the case replay
must discard.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import IntegrityError
from ..obs import current_registry, log_event
from ..resilience.faults import fault_point

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "encode_record",
    "decode_record",
]

_MAGIC = b"REPROWAL"
_VERSION = 1
_SEGMENT_HEADER = _MAGIC + struct.pack("<I", _VERSION)
_RECORD_HEADER = struct.Struct("<II")  # payload length, CRC-32
_PAYLOAD_HEADER = struct.Struct("<QIII")  # seq, epoch, n, d

#: Upper bound on a sane payload (a length field beyond this is garbage,
#: not a huge record): 2^31 cells of coordinates would never fit anyway.
_MAX_PAYLOAD = 1 << 31


@dataclass(frozen=True, eq=False)
class WalRecord:
    """One durable update batch: ``n`` cell deltas applied at ``seq``."""

    seq: int
    epoch: int
    coordinates: np.ndarray  # (n, d) int64, row-major
    deltas: np.ndarray  # (n,) float64

    def __eq__(self, other) -> bool:  # arrays make the default __eq__ fail
        return (
            isinstance(other, WalRecord)
            and self.seq == other.seq
            and self.epoch == other.epoch
            and self.coordinates.shape == other.coordinates.shape
            and bool(np.array_equal(self.coordinates, other.coordinates))
            and bool(np.array_equal(self.deltas, other.deltas))
        )


def encode_record(
    seq: int, epoch: int, coordinates: np.ndarray, deltas: np.ndarray
) -> bytes:
    """Serialize one record (header + checksummed payload)."""
    coordinates = np.ascontiguousarray(coordinates, dtype=np.int64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    if coordinates.ndim != 2:
        raise ValueError(f"coordinates must be (n, d); got {coordinates.shape}")
    n, d = coordinates.shape
    if deltas.shape != (n,):
        raise ValueError(f"deltas must be ({n},); got {deltas.shape}")
    payload = (
        _PAYLOAD_HEADER.pack(int(seq), int(epoch), n, d)
        + coordinates.tobytes()
        + deltas.tobytes()
    )
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_record(buf: bytes, offset: int = 0) -> tuple[WalRecord, int] | None:
    """Decode the record starting at ``offset``; ``None`` on a torn tail.

    Returns ``(record, next_offset)`` for a whole, checksum-verified
    record.  Every way a crash can truncate or mangle the tail — a short
    header, a length running past the buffer, a CRC mismatch, a payload
    whose ``n``/``d`` do not match its size — decodes to ``None``, never
    to a wrong record and never to an exception.
    """
    end = offset + _RECORD_HEADER.size
    if end > len(buf):
        return None
    length, crc = _RECORD_HEADER.unpack_from(buf, offset)
    if length < _PAYLOAD_HEADER.size or length > _MAX_PAYLOAD:
        return None
    if end + length > len(buf):
        return None
    payload = buf[end : end + length]
    if zlib.crc32(payload) != crc:
        return None
    seq, epoch, n, d = _PAYLOAD_HEADER.unpack_from(payload, 0)
    expected = _PAYLOAD_HEADER.size + 8 * n * d + 8 * n
    if length != expected:
        return None
    coords_end = _PAYLOAD_HEADER.size + 8 * n * d
    coordinates = np.frombuffer(
        payload, dtype=np.int64, count=n * d, offset=_PAYLOAD_HEADER.size
    ).reshape(n, d)
    deltas = np.frombuffer(payload, dtype=np.float64, count=n, offset=coords_end)
    return WalRecord(seq, epoch, coordinates.copy(), deltas.copy()), end + length


def _segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"wal-{first_seq:020d}.seg"


def _segment_start(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


class WriteAheadLog:
    """Append-only, segmented, crash-recovering update log."""

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "interval",
        fsync_interval_ms: float = 50.0,
        segment_bytes: int = 1 << 20,
    ):
        if fsync not in ("always", "interval", "off"):
            raise ValueError(
                f"fsync must be 'always', 'interval', or 'off', got {fsync!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval_ms = float(fsync_interval_ms)
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.Lock()
        self._fh = None
        self._last_seq = 0
        self._last_fsync = time.monotonic()
        self._appends = 0
        self._rotations = 0
        self._torn_discarded = 0
        #: ``(registry, series)`` of :meth:`_appends_series`.
        self._appended: tuple | None = None
        self._recover()

    # ------------------------------------------------------------------
    # Open / recover

    def segments(self) -> list[Path]:
        """The on-disk segment files, oldest first."""
        return sorted(self.directory.glob("wal-*.seg"), key=_segment_start)

    def _recover(self) -> None:
        """Scan segments, truncate the torn tail, position after the end.

        The first tear found ends the log: that segment is truncated back
        to its last whole record and any *later* segments (only possible
        via external damage — a crash tears the last segment) are
        discarded, so the surviving log is a clean prefix.
        """
        segments = self.segments()
        tear_at: int | None = None
        for i, segment in enumerate(segments):
            raw = segment.read_bytes()
            valid = self._scan_segment(raw)
            if valid < len(raw):
                self._torn_discarded += 1
                with open(segment, "r+b") as fh:
                    fh.truncate(valid)
                tear_at = i
                break
        if tear_at is not None:
            for stale in segments[tear_at + 1 :]:
                self._torn_discarded += 1
                stale.unlink()
            segments = segments[: tear_at + 1]
        if segments:
            tail = segments[-1]
            # An empty truncated tail segment still anchors last_seq at
            # its start - 1 (its records, if any existed, are gone).
            self._last_seq = max(_segment_start(tail) - 1, 0)
            for record in self._iter_segment(tail.read_bytes()):
                self._last_seq = max(self._last_seq, record.seq)
            self._fh = open(tail, "ab")
            if self._fh.tell() == 0:
                # A crash tore the segment header itself (e.g. SIGKILL
                # during rotation's 12-byte header write), so truncation
                # emptied the file.  Rewrite the header before appending:
                # a headerless segment scans as fully invalid, and every
                # record appended into one would be silently discarded by
                # the *next* recovery.
                self._fh.write(_SEGMENT_HEADER)
                self._fh.flush()

    def _scan_segment(self, raw: bytes) -> int:
        """The byte length of the valid prefix of one segment."""
        if raw[: len(_SEGMENT_HEADER)] != _SEGMENT_HEADER:
            return 0
        offset = len(_SEGMENT_HEADER)
        while True:
            decoded = decode_record(raw, offset)
            if decoded is None:
                return offset
            _, offset = decoded

    def _iter_segment(self, raw: bytes):
        if raw[: len(_SEGMENT_HEADER)] != _SEGMENT_HEADER:
            return
        offset = len(_SEGMENT_HEADER)
        while True:
            decoded = decode_record(raw, offset)
            if decoded is None:
                return
            record, offset = decoded
            yield record

    # ------------------------------------------------------------------
    # Append

    @property
    def last_seq(self) -> int:
        """The highest sequence number durably appended (0 = none)."""
        with self._lock:
            return self._last_seq

    def append(
        self, coordinates: np.ndarray, deltas: np.ndarray, epoch: int = 0
    ) -> int:
        """Durably append one update batch; returns its sequence number.

        The record is flushed to the operating system (and fsynced per
        policy) before this returns — returning *is* the acknowledgement.
        """
        with self._lock:
            if self._fh is None or self._fh.closed:
                self._open_segment(self._last_seq + 1)
            elif self._fh.tell() >= self.segment_bytes:
                self._rotate(self._last_seq + 1)
            seq = self._last_seq + 1
            blob = encode_record(seq, epoch, coordinates, deltas)
            fh = self._fh
            start = fh.tell()
            split = max(1, len(blob) // 2)
            try:
                fh.write(blob[:split])
                fh.flush()
                # Fault site between the two halves: a "kill" here leaves
                # a genuinely torn record for recovery to discard; an
                # "error" here exercises the truncate-and-reraise path.
                fault_point("wal.append", seq=seq)
                fh.write(blob[split:])
                fh.flush()
            except BaseException:
                fh.seek(start)
                fh.truncate()
                fh.flush()
                raise
            self._maybe_fsync(fh)
            self._last_seq = seq
            self._appends += 1
        self._appends_series().inc()
        return seq

    def _appends_series(self):
        """``wal_appends_total``'s series in the current registry, bound on
        first use per registry so an append makes no by-name lookup."""
        registry = current_registry()
        bound = self._appended
        if bound is None or bound[0] is not registry:
            series = registry.counter(
                "wal_appends_total", "update batches appended to the WAL"
            ).labels()
            bound = self._appended = (registry, series)
        return bound[1]

    def _maybe_fsync(self, fh) -> None:
        if self.fsync == "off":
            return
        now = time.monotonic()
        if (
            self.fsync == "always"
            or (now - self._last_fsync) * 1e3 >= self.fsync_interval_ms
        ):
            os.fsync(fh.fileno())
            self._last_fsync = now

    def _open_segment(self, first_seq: int) -> None:
        path = _segment_path(self.directory, first_seq)
        self._fh = open(path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(_SEGMENT_HEADER)
            self._fh.flush()

    def _rotate(self, first_seq: int) -> None:
        old = self._fh
        if self.fsync != "off":
            os.fsync(old.fileno())
        old.close()
        self._open_segment(first_seq)
        self._rotations += 1
        current_registry().counter(
            "wal_rotations_total", "WAL segments rotated out"
        ).inc()
        log_event(
            "wal_rotated",
            segment=self._fh.name,
            first_seq=first_seq,
            segments=len(self.segments()),
        )

    def sync(self) -> None:
        """Force an fsync of the active segment (any policy)."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._last_fsync = time.monotonic()

    # ------------------------------------------------------------------
    # Replay / prune

    def replay(self, after_seq: int = 0):
        """Yield whole records with ``seq > after_seq``, oldest first.

        Torn tails never surface (recovery truncated them; a tail torn
        *after* open simply ends iteration at the last whole record) and
        duplicate or out-of-order sequence numbers are skipped, so replay
        is idempotent: applying the yielded records after a snapshot at
        ``after_seq`` reproduces the acknowledged state exactly once.
        """
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()
        registry = current_registry()
        high = int(after_seq)
        for segment in self.segments():
            for record in self._iter_segment(segment.read_bytes()):
                if record.seq <= high:
                    continue
                high = record.seq
                registry.counter(
                    "wal_replayed_total", "WAL records replayed into a server"
                ).inc()
                yield record

    def prune(self, upto_seq: int) -> int:
        """Delete segments whose records are all ``<= upto_seq``.

        A segment is covered when the *next* segment starts at or below
        ``upto_seq + 1`` (its own records all precede that start).  The
        active segment is never deleted.  Returns the number removed.
        """
        removed = 0
        with self._lock:
            segments = self.segments()
            for i, segment in enumerate(segments[:-1]):
                if _segment_start(segments[i + 1]) <= int(upto_seq) + 1:
                    segment.unlink()
                    removed += 1
                else:
                    break
        return removed

    # ------------------------------------------------------------------
    # Introspection / lifecycle

    def stats(self) -> dict:
        """JSON-friendly counters for ``health()`` and the gate report."""
        with self._lock:
            segments = self.segments()
            return {
                "path": str(self.directory),
                "fsync": self.fsync,
                "last_seq": self._last_seq,
                "appends": self._appends,
                "rotations": self._rotations,
                "torn_discarded": self._torn_discarded,
                "segments": len(segments),
                "bytes": sum(s.stat().st_size for s in segments),
            }

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.flush()
                if self.fsync != "off":
                    os.fsync(self._fh.fileno())
                self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def verify_contiguous(records, after_seq: int = 0) -> None:
    """Assert a replayed record stream is gapless from ``after_seq``.

    A gap means a whole record vanished from the middle of the log —
    external damage, not a crash tail — and recovery built on it would
    silently skip an acknowledged update.  Raises
    :class:`~repro.errors.IntegrityError` naming the gap.
    """
    expected = int(after_seq) + 1
    for record in records:
        if record.seq != expected:
            raise IntegrityError(
                f"WAL replay gap: expected seq {expected}, got {record.seq}",
                detail="a covered segment is missing or damaged mid-log",
            )
        expected += 1
