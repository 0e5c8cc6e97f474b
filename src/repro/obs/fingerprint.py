"""Continuous profiling and live workload fingerprinting.

Two always-on, bounded accounting layers that turn the telemetry stream
into an answer to "what regime is this server in right now?":

- :class:`SiteProfiler` — a tracer trace-listener keeping cheap EWMA +
  sliding-reservoir latency accounting per instrumented site
  (``exec.compute_node``, ``materialize.assemble``, ``shard.scatter`` /
  ``shard.gather``, ``wal.append``, cache ops — every span name that
  flows past).  It adds zero new instrumentation to hot paths: the spans
  already exist, the profiler just refuses to forget their statistics
  when the tracer ring evicts them.
- :class:`FingerprintTracker` — exponentially-decayed counters over the
  serving stream (query-kind mix, ingest cells, cost-model divergence)
  summarized into a :class:`WorkloadFingerprint`: a small normalized
  vector reported in ``health()["fingerprint"]``, comparable across
  regimes by :meth:`WorkloadFingerprint.distance`.  Key skew is not
  tracked here: the caller passes ``hot_share`` in, computed from the
  per-element table it already keeps (the server's
  :class:`~repro.core.adaptive.AccessTracker`).

Decay is tick-based and lazy (per-slot ``value * decay**(tick - last)``).
Both consumers are fed by appending to an inbox and fold it when read, so
the per-query cost is one append — the overhead gate
(``bench_flight_overhead``) covers this path.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import asdict, dataclass

from .tracing import Span, Tracer

__all__ = [
    "FingerprintTracker",
    "SiteProfiler",
    "WorkloadFingerprint",
]


QUERY_KINDS = ("view", "rollup", "range")

#: :class:`FingerprintTracker`'s per-query forgetting factor, and how many
#: of the hottest elements its ``hot_share`` covers.
DECAY = 0.995
HOT_TOP = 8
#: :class:`SiteProfiler`'s EWMA weight, per-site reservoir of recent
#: durations, and site-table bound.
SITE_ALPHA = 0.05
RESERVOIR_SIZE = 64
MAX_SITES = 64
#: Notes (queries, or finished traces for the profiler) waiting in an
#: inbox before the writer folds them itself, without waiting for a reader.
FOLD_AT = 1024


@dataclass(frozen=True)
class WorkloadFingerprint:
    """A normalized signature of a workload regime.

    All six coordinates live in ``[0, 1]`` so unweighted L2 distance is
    meaningful: the first three are the query-kind mix (they sum to 1 for
    a non-empty workload), ``hot_share`` is the weight fraction of the
    ``hot_top`` hottest elements (key skew), ``ingest_norm`` is the squashed
    ingest-cells-per-query rate ``x / (1 + x)``, and ``divergence_norm``
    is the squashed planned-vs-measured cost-model divergence.
    """

    view_frac: float = 0.0
    rollup_frac: float = 0.0
    range_frac: float = 0.0
    hot_share: float = 0.0
    ingest_norm: float = 0.0
    divergence_norm: float = 0.0

    def to_vector(self) -> tuple[float, ...]:
        return (
            self.view_frac,
            self.rollup_frac,
            self.range_frac,
            self.hot_share,
            self.ingest_norm,
            self.divergence_norm,
        )

    def distance(self, other: "WorkloadFingerprint") -> float:
        """Euclidean distance in fingerprint space."""
        return math.sqrt(
            sum(
                (a - b) ** 2
                for a, b in zip(self.to_vector(), other.to_vector())
            )
        )

    def to_dict(self) -> dict:
        return {key: round(value, 4) for key, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadFingerprint":
        fields = {
            key: float(payload.get(key, 0.0))
            for key in (
                "view_frac",
                "rollup_frac",
                "range_frac",
                "hot_share",
                "ingest_norm",
                "divergence_norm",
            )
        }
        return cls(**fields)


class FingerprintTracker:
    """Decayed workload accounting feeding :class:`WorkloadFingerprint`.

    Every counter is a ``[value, last_tick]`` slot decayed lazily by
    ``DECAY ** (tick - last_tick)`` — one global tick per query.
    :meth:`note_query` only appends ``(kind, n)``; the ticks are taken
    when the queue is folded, in arrival order — by :meth:`fingerprint`
    and :meth:`snapshot`, by the eager writers :meth:`note_ingest` and
    :meth:`note_divergence` before they write (so ticks interleave as if
    every query had been counted at once), and whenever :data:`FOLD_AT`
    notes are waiting.  :data:`HOT_TOP` is how many of the hottest
    elements ``hot_share`` covers; the share itself is handed to
    :meth:`fingerprint` / :meth:`snapshot` by whoever owns the
    per-element table.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: ``(kind, n)`` query notes not yet folded, in arrival order.
        self._inbox: deque = deque()
        self._tick = 0
        self._kinds = {kind: [0.0, 0] for kind in QUERY_KINDS}
        self._ingest = [0.0, 0]
        self._divergence: float | None = None
        self._divergence_alpha = 0.2
        self.queries = 0
        self.ingest_batches = 0

    def _bump(self, slot: list, amount: float) -> None:
        value, last = slot
        slot[0] = value * DECAY ** (self._tick - last) + amount
        slot[1] = self._tick

    def _effective(self, slot: list) -> float:
        return slot[0] * DECAY ** (self._tick - slot[1])

    def note_query(self, kind: str, n: int = 1) -> None:
        """Account ``n`` served queries (``kind`` in :data:`QUERY_KINDS`).

        One tick per query, as if noted one by one — a batch request
        counts its members.  Only appends; the fold takes the ticks.
        """
        inbox = self._inbox
        inbox.append((kind, n))
        if len(inbox) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Tick every waiting query note (what every reader does first)."""
        if self._inbox:
            with self._lock:
                self._fold_locked()

    def _fold_locked(self) -> None:
        """Tick every waiting query note, in arrival order (lock held).

        A note of ``n`` queries of one kind is one :meth:`_bump`, then
        ``n - 1`` ticks one apart, where the decay factor is ``DECAY``.
        """
        inbox = self._inbox
        pop = inbox.popleft
        kinds = self._kinds
        for _ in range(len(inbox)):
            kind, n = pop()
            slot = kinds.get(kind)
            if slot is None:
                continue
            self._tick += 1
            self._bump(slot, 1.0)
            value = slot[0]
            for _ in range(n - 1):
                value = value * DECAY + 1.0
            self._tick += n - 1
            slot[0], slot[1] = value, self._tick
            self.queries += n

    def note_ingest(self, cells: int) -> None:
        """Account one applied ingest batch of ``cells`` updates."""
        with self._lock:
            self._fold_locked()
            self.ingest_batches += 1
            self._bump(self._ingest, float(cells))

    def note_divergence(self, divergence: float) -> None:
        """Feed a planned-vs-measured cost divergence observation."""
        value = abs(float(divergence))
        with self._lock:
            self._fold_locked()
            if self._divergence is None:
                self._divergence = value
            else:
                alpha = self._divergence_alpha
                self._divergence += alpha * (value - self._divergence)

    def fingerprint(self, hot_share: float = 0.0) -> WorkloadFingerprint:
        with self._lock:
            self._fold_locked()
            kinds = {
                kind: self._effective(slot)
                for kind, slot in self._kinds.items()
            }
            total = sum(kinds.values())
            ingest = self._effective(self._ingest)
            divergence = self._divergence or 0.0
        if total <= 0.0:
            return WorkloadFingerprint()
        rate = ingest / total
        return WorkloadFingerprint(
            view_frac=kinds["view"] / total,
            rollup_frac=kinds["rollup"] / total,
            range_frac=kinds["range"] / total,
            hot_share=hot_share,
            ingest_norm=rate / (1.0 + rate),
            divergence_norm=divergence / (1.0 + divergence),
        )

    def snapshot(self, hot_share: float = 0.0) -> dict:
        """JSON-friendly state for ``health()`` and diag bundles."""
        fp = self.fingerprint(hot_share)
        with self._lock:
            return {
                "fingerprint": fp.to_dict(),
                "queries": self.queries,
                "ingest_batches": self.ingest_batches,
                "decay": DECAY,
                "hot_top": HOT_TOP,
            }


class _SiteStats:
    __slots__ = ("count", "ewma_ms", "total_ms", "max_ms", "reservoir")

    def __init__(self):
        self.count = 0
        self.ewma_ms = 0.0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self.reservoir: list[float] = []


class SiteProfiler:
    """Always-on per-site latency profiles from the span stream.

    Attaches to a tracer as a trace listener; per span *name* it keeps a
    count, an EWMA, and a bounded sliding reservoir of recent durations
    (slot ``count % size`` is overwritten — deterministic, no RNG), from
    which :meth:`snapshot` derives p50/p95.  The site table is bounded;
    span names past :data:`MAX_SITES` are counted in ``overflow_sites``.

    The listener only appends the finished trace; the spans are accounted
    when the inbox is folded, in arrival order — by :meth:`snapshot` and
    :meth:`close`, and whenever :data:`FOLD_AT` traces are waiting.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        #: Finished traces not yet folded, in arrival order.
        self._inbox: deque = deque()
        self._sites: dict[str, _SiteStats] = {}
        self.overflow_sites = 0
        tracer.add_listener(self.on_trace)

    def close(self) -> None:
        """Fold what is waiting and detach from the tracer (idempotent)."""
        self.tracer.remove_listener(self.on_trace)
        self.fold()

    def on_trace(self, spans: tuple[Span, ...]) -> None:
        """Tracer listener: queue one finished trace for the fold."""
        inbox = self._inbox
        inbox.append(spans)
        if len(inbox) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Account every waiting trace's spans, in arrival order."""
        if not self._inbox:
            return
        with self._lock:
            inbox = self._inbox
            pop = inbox.popleft
            by_site: dict[str, list[float]] = {}
            for _ in range(len(inbox)):
                for span in pop():
                    end = span.end if span.end is not None else span.start
                    durations = by_site.get(span.name)
                    if durations is None:
                        durations = by_site[span.name] = []
                    durations.append((end - span.start) * 1e3)
            for name, durations in by_site.items():
                self._account(name, durations)

    def _account(self, name: str, durations: list[float]) -> None:
        """One site's durations of a fold, in arrival order (lock held).

        The EWMA and the running total are sequential sums, one step per
        span; the reservoir keeps only the last :data:`RESERVOIR_SIZE`
        writes, so it is filled or overwritten by slot arithmetic.
        """
        stats = self._sites.get(name)
        if stats is None:
            if len(self._sites) >= MAX_SITES:
                self.overflow_sites += len(durations)
                return
            stats = self._sites[name] = _SiteStats()
        ewma, total = stats.ewma_ms, stats.total_ms
        if stats.count == 0:
            ewma = durations[0]  # its own step below adds exactly 0
        for duration_ms in durations:
            ewma += SITE_ALPHA * (duration_ms - ewma)
            total += duration_ms
        reservoir = stats.reservoir
        count = stats.count
        fill = min(RESERVOIR_SIZE - len(reservoir), len(durations))
        reservoir.extend(durations[:fill])
        rest = durations[fill:]
        tail = rest[-RESERVOIR_SIZE:]
        count += fill + len(rest) - len(tail)
        for offset, duration_ms in enumerate(tail):
            reservoir[(count + offset) % RESERVOIR_SIZE] = duration_ms
        stats.count += len(durations)
        stats.ewma_ms = ewma
        stats.total_ms = total
        stats.max_ms = max(stats.max_ms, max(durations))

    def snapshot(self) -> dict:
        """Per-site latency profile: count, EWMA, p50/p95/max."""
        self.fold()
        with self._lock:
            out = {}
            for name in sorted(self._sites):
                stats = self._sites[name]
                ordered = sorted(stats.reservoir)
                out[name] = {
                    "count": stats.count,
                    "ewma_ms": round(stats.ewma_ms, 4),
                    "mean_ms": round(
                        stats.total_ms / stats.count if stats.count else 0.0,
                        4,
                    ),
                    "p50_ms": round(
                        ordered[len(ordered) // 2] if ordered else 0.0, 4
                    ),
                    "p95_ms": round(
                        ordered[
                            min(
                                len(ordered) - 1,
                                int(0.95 * (len(ordered) - 1)),
                            )
                        ]
                        if ordered
                        else 0.0,
                        4,
                    ),
                    "max_ms": round(stats.max_ms, 4),
                }
            if self.overflow_sites:
                out["_overflow_sites"] = self.overflow_sites
            return out
