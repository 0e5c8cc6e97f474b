"""Continuous profiling and live workload fingerprinting.

Two always-on, bounded accounting layers that turn the telemetry stream
into an answer to "what regime is this server in right now?":

- :class:`SiteProfiler` — a reader of the tracer's inbox keeping cheap
  EWMA + sliding-reservoir latency accounting per span name
  (``exec.compute_node``, ``shard.gather``, ``wal.append``, …): no new
  instrumentation, it just keeps the statistics of spans the tracer ring
  evicts.
- :class:`FingerprintTracker` — exponentially-decayed counters over the
  serving stream (query-kind mix, ingest cells, cost-model divergence)
  summarized into a :class:`WorkloadFingerprint`: a small normalized
  vector reported in ``health()["fingerprint"]``, comparable across
  regimes by :meth:`WorkloadFingerprint.distance`.  Key skew is not
  tracked here: the caller passes ``hot_share`` in, computed from the
  per-element table it already keeps (the server's
  :class:`~repro.core.adaptive.AccessTracker`).

Decay is tick-based and lazy (per-slot ``value * decay**(tick - last)``).
Neither works on the query or ingest path: the tracker takes the query
and ingest notes of a server's call log when that log folds, the profiler
the tracer's inbox when it folds (``bench_flight_overhead`` gates it).
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

from .tracing import InboxReader, Span, Tracer

__all__ = [
    "FingerprintTracker", "SiteProfiler", "WorkloadFingerprint",
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
#: Traces handed to :meth:`SiteProfiler.on_trace` that wait before the
#: writer folds them (the tracer's inbox: :data:`.tracing.FOLD_AT`).
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
    ``DECAY ** (tick - last_tick)`` — one global tick per query, taken
    where the query is noted (:meth:`note`, under the lock; a server's
    call log notes its query and ingest records in call order when it
    folds, before any divergence it writes next).  :data:`HOT_TOP` is how
    many of the hottest elements ``hot_share`` covers; the share itself is
    handed to :meth:`fingerprint` / :meth:`snapshot` by whoever owns the
    per-element table.
    """

    def __init__(self):
        self._lock = threading.Lock()
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
        """Account ``n`` served queries (``kind`` in :data:`QUERY_KINDS`)."""
        self.note(((kind, n),))

    def note(self, notes) -> None:
        """Account every ``(kind, n)`` note, in order, under one lock hold:
        ``n`` queries of a kind in :data:`QUERY_KINDS`, or an ``"ingest"``
        batch of ``n`` cells (:meth:`note_ingest`).

        One tick per query, as if noted one by one — a batch request
        counts its members: a note of ``n`` queries of one kind is one
        :meth:`_bump`, then ``n - 1`` ticks one apart, where the decay
        factor is ``DECAY``.  An ingest note takes no tick.
        """
        kinds = self._kinds
        with self._lock:
            for kind, n in notes:
                slot = kinds.get(kind)
                if slot is None:
                    if kind == "ingest":
                        self.ingest_batches += 1
                        self._bump(self._ingest, float(n))
                    continue
                # :meth:`_bump` by 1.0 at the next tick, inlined.
                tick = self._tick + 1
                value = slot[0] * DECAY ** (tick - slot[1]) + 1.0
                for _ in range(n - 1):
                    value = value * DECAY + 1.0
                self._tick = tick + n - 1
                slot[0], slot[1] = value, self._tick
                self.queries += n

    def note_ingest(self, cells: int) -> None:
        """Account one applied ingest batch of ``cells`` updates."""
        self.note((("ingest", cells),))

    def note_divergence(self, divergence: float) -> None:
        """Feed a planned-vs-measured cost divergence observation."""
        value = abs(float(divergence))
        with self._lock:
            if self._divergence is None:
                self._divergence = value
            else:
                alpha = self._divergence_alpha
                self._divergence += alpha * (value - self._divergence)

    def fingerprint(self, hot_share: float = 0.0) -> WorkloadFingerprint:
        with self._lock:
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


class SiteProfiler(InboxReader):
    """Always-on per-site latency profiles from the span stream.

    Per span *name* it keeps a count, an EWMA, and a bounded sliding
    reservoir of recent durations (slot ``count % size`` is overwritten —
    deterministic, no RNG), from which :meth:`snapshot` derives p50/p95.
    The site table is bounded; span names past :data:`MAX_SITES` are
    counted in ``overflow_sites``.  Spans are accounted when it folds, in
    arrival order: by :meth:`snapshot`, :meth:`close`, and whenever
    :data:`~repro.obs.tracing.FOLD_AT` traces wait in the tracer's inbox
    (or :data:`FOLD_AT` handed to :meth:`on_trace`).
    """

    def __init__(self, tracer: Tracer):
        self._sites: dict[str, _SiteStats] = {}
        self.overflow_sites = 0
        super().__init__(tracer, FOLD_AT)

    def _take(self, spans: list[Span]) -> None:
        by_site: dict[str, list[float]] = {}
        for span in spans:
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
