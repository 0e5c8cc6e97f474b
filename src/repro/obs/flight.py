"""Always-on flight recorder: tail-biased trace capture + diag bundles.

By the time an operator notices a deadline spike, the interesting traces
have left the tracer's ring, evicted by thousands of healthy ones.  The
:class:`FlightRecorder` is the black box that fixes this: a reader of the
tracer's inbox (:meth:`~repro.obs.tracing.Tracer.add_reader`), it parks
each child until its root arrives (stragglers that outlive their root
wait, bounded, in ``_pending``) and decides, per trace and in arrival
order, whether the whole trace is worth keeping:

- **error** — the root carries an ``error`` attribute (the tracer stamps
  the exception type on any span that ended in an exception: timeouts,
  exhausted retries, admission rejections);
- **event** — some span carries point events (``retry``,
  ``fault_injected``, ``fallback`` — the annotations the resilience
  machinery attaches), i.e. the query struggled even if it succeeded;
- **slow** — the root's duration is at or above a rolling latency
  quantile of recent roots with the same ``(name, kind)``
  (tail sampling by latency);
- **head** — 1-in-N sampling of the healthy fast path, so there is
  always a baseline exemplar to diff a pathological trace against.

Pending traces, spans per trace and the kept ring are capped, and every
shed is counted (``loss()``): the recorder runs always-on without growing
memory (overhead gate: ``benchmarks/bench_flight_overhead.py``).

The module also owns the **diagnostic bundle** format: one self-contained
JSON file (or directory) holding the triggering event, exemplar Chrome
traces, metrics/health/tuning snapshots, the recent event-log tail, and
durability sequence state — what :meth:`OLAPServer.dump_diagnostics
<repro.server.OLAPServer.dump_diagnostics>` and ``python -m repro diag``
emit, and what the burn-rate alert engine auto-dumps on fire.  See
``docs/observability.md`` for the layout.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .export import chrome_trace_from_spans
from .metrics import MetricsRegistry
from .tracing import InboxReader, Span, Tracer

__all__ = [
    "BUNDLE_FORMAT", "BUNDLE_REQUIRED_KEYS", "MANIFEST_REQUIRED_KEYS",
    "FlightRecorder", "KeptTrace", "load_bundle", "validate_bundle",
    "write_bundle",
]

#: Keep reasons, in classification priority order.
KEEP_REASONS = ("error", "event", "slow", "head")

#: Full traces a :class:`FlightRecorder` retains (0 keeps only counters),
#: and its healthy-path head-sampling rate (keep 1 in N roots per
#: ``(name, kind)``; 0 disables head sampling).
MAX_TRACES = 64
HEAD_SAMPLE = 64
#: The tail-sampling latency bar: this quantile of a ``WINDOW`` of recent
#: root durations per ``(root name, kind)``, re-estimated every
#: ``REFRESH_EVERY`` roots once ``MIN_SAMPLES`` have been seen.
SLOW_QUANTILE = 0.95
MIN_SAMPLES = 24
WINDOW = 256
REFRESH_EVERY = 32
#: Bounds: traces parked awaiting their root, spans parked per trace, and
#: the ring of :meth:`FlightRecorder.note_health` snapshots.
MAX_PENDING = 64
MAX_SPANS_PER_TRACE = 512
MAX_HEALTH = 8
#: Traces handed to :meth:`FlightRecorder.on_trace` that wait before it
#: folds them itself (the tracer's inbox: :data:`.tracing.FOLD_AT`).
FOLD_AT = 1024


_events = attrgetter("events")


@dataclass(frozen=True)
class KeptTrace:
    """One full trace the recorder decided to keep (``unix_ts``: its
    root's end on the wall clock)."""

    trace_id: int
    reason: str  # one of KEEP_REASONS
    root_name: str
    kind: str
    duration_ms: float
    unix_ts: float
    spans: tuple[Span, ...]

    def to_dict(self) -> dict:
        """JSON-friendly form with the trace rendered as Chrome events."""
        return {
            "trace_id": self.trace_id,
            "reason": self.reason,
            "root": self.root_name,
            "kind": self.kind,
            "duration_ms": round(self.duration_ms, 3),
            "unix_ts": self.unix_ts,
            "spans": len(self.spans),
            "chrome_trace": chrome_trace_from_spans(self.spans),
        }


class _RootStats:
    """Per ``(root name, kind)``: roots seen, the rolling window of their
    durations, and the slow threshold last estimated from it."""

    __slots__ = ("seen", "ring", "threshold")

    def __init__(self):
        self.seen = 0
        #: The last ``WINDOW`` durations, oldest first.
        self.ring: list[float] = []
        self.threshold: float | None = None


class FlightRecorder(InboxReader):
    """Bounded, tail-biased capture of recent traces (see module docs).

    Keep decisions are made when the recorder *folds*, in arrival order:
    on every reader (:meth:`kept`, :meth:`exemplars`, :meth:`snapshot`,
    :meth:`loss`, :attr:`traces_seen`, :meth:`close`, and a read of the
    metrics registry, where the fold is a pre-read hook) and whenever
    :data:`~repro.obs.tracing.FOLD_AT` traces wait in the tracer's inbox
    (or :data:`FOLD_AT` handed to :meth:`on_trace`).  Any fold schedule
    leaves the same state.
    """

    def __init__(self, tracer: Tracer, registry: MetricsRegistry):
        """Reads ``tracer`` and counts kept traces in ``registry``; the
        bounds and sampling rates are this module's constants."""
        self.registry = registry
        self._pending: dict[int, list[Span]] = {}
        #: Kept traces as :class:`KeptTrace` field tuples, built on read.
        self._kept: deque[tuple] = deque(maxlen=max(1, MAX_TRACES))
        self._roots: dict[tuple[str, str], _RootStats] = {}
        self._health: deque[dict] = deque(maxlen=MAX_HEALTH)
        #: Span clocks are ``perf_counter``; a kept trace's ``unix_ts`` is
        #: its root's end moved onto the wall clock by this offset.
        self._wall_offset = time.time() - time.perf_counter()
        self._traces_seen = 0
        self.kept_counts = {reason: 0 for reason in KEEP_REASONS}
        self.pending_dropped = 0
        self.trace_spans_dropped = 0
        self.kept_evicted = 0
        kept = registry.counter(
            "flight_traces_kept_total",
            "traces kept by the flight recorder, by keep reason",
        )
        #: ``flight_traces_kept_total`` series by keep reason, bound once.
        self._kept_series = {
            reason: kept.labels(reason=reason) for reason in KEEP_REASONS
        }
        super().__init__(tracer, FOLD_AT)
        registry.add_pre_read(self.fold)

    def close(self) -> None:
        super().close()
        self.registry.remove_pre_read(self.fold)

    # ------------------------------------------------------------------
    # Capture

    def on_span(self, span: Span) -> None:
        """One span on its own (what a straggler's delivery looks like)."""
        self.on_trace((span,))

    def _take(self, spans: list[Span]) -> None:
        """Park children, classify roots, keep some (lock held).  Per root
        this collects its parked children, its ``(name, kind)`` and whether
        it errored or carries events; durations, the slow and head tests
        (:meth:`_classify`) run per ``(name, kind)`` over the whole batch."""
        pending, buffer = self._pending, self._buffer
        # Per ``(name, kind)``: its roots' arrival positions and the roots.
        groups: dict[tuple[str, str], tuple[list[int], list[Span]]] = {}
        decided: dict[int, str] = {}  # error / event roots, by position
        parked_of: dict[int, list[Span]] = {}
        seen = 0
        for root in spans:
            if root.parent_id is not None:
                bucket = pending.get(root.trace_id)
                if bucket is not None and len(bucket) < MAX_SPANS_PER_TRACE:
                    bucket.append(root)
                else:
                    buffer(root)
                continue
            attributes = root.attributes
            parked = pending.pop(root.trace_id, None) if pending else None
            if parked:
                parked_of[seen] = parked
            if "error" in attributes:
                decided[seen] = "error"
            elif root.events or (parked and any(map(_events, parked))):
                decided[seen] = "event"
            kind = attributes.get("kind", "")
            if type(kind) is not str:
                kind = str(kind)
            group = groups.get((root.name, kind))
            if group is None:
                group = groups[root.name, kind] = ([], [])
            group[0].append(seen)
            group[1].append(root)
            seen += 1
        self._traces_seen += seen
        kept: list[tuple[int, str, Span, str, float]] = []
        for (name, kind), (positions, roots) in groups.items():
            stats = self._roots.get((name, kind))
            if stats is None:
                stats = self._roots[name, kind] = _RootStats()
            durations = [
                ((r.start if r.end is None else r.end) - r.start) * 1e3
                for r in roots
            ]
            open_ = (
                [at not in decided for at in positions]
                if decided else [True] * len(roots)
            )
            for index, reason in self._classify(stats, durations, open_):
                kept.append(
                    (positions[index], reason, roots[index], kind,
                     durations[index])
                )
            if decided:
                for index, at in enumerate(positions):
                    if at in decided:
                        kept.append(
                            (at, decided[at], roots[index], kind,
                             durations[index])
                        )
        kept.sort(key=lambda entry: entry[0])
        counts: dict[str, int] = {}
        kept_ring = self._kept
        for at, reason, root, kind, duration_ms in kept:
            counts[reason] = counts.get(reason, 0) + 1
            if len(kept_ring) == kept_ring.maxlen:
                self.kept_evicted += 1
            end = root.end if root.end is not None else root.start
            kept_ring.append((
                root.trace_id, reason, root.name, kind, duration_ms,
                end + self._wall_offset, (*parked_of.get(at, ()), root),
            ))
        for reason, count in counts.items():
            self.kept_counts[reason] += count
            self._kept_series[reason].inc(count)

    def _buffer(self, span: Span) -> None:
        """Park a non-root span until its root arrives (lock held)."""
        bucket = self._pending.get(span.trace_id)
        if bucket is None:
            if len(self._pending) >= MAX_PENDING:
                # Shed the oldest in-flight trace, not the newest:
                # it is the one most likely orphaned.
                self._pending.pop(next(iter(self._pending)))
                self.pending_dropped += 1
            bucket = self._pending[span.trace_id] = []
        if len(bucket) >= MAX_SPANS_PER_TRACE:
            self.trace_spans_dropped += 1
        else:
            bucket.append(span)

    def _classify(
        self, stats: _RootStats, durations: list[float], open_: list[bool]
    ) -> list[tuple[int, str]]:
        """Slow and head tests for one ``(name, kind)``'s roots of a fold,
        in arrival order (lock held): ``(index, reason)`` of each kept one
        (``open_`` is false where error/event already decided).

        Root ``i`` is judged as if it had arrived alone: the window is the
        :data:`WINDOW` durations before it, the threshold is re-estimated
        on its own open roots at every :data:`REFRESH_EVERY`-th root seen
        (or on the first once the window is warm), and an error/event
        root neither tests nor refreshes.  The threshold only changes at
        those roots, so each chunk between two of them is one pass against
        one order statistic (``np.partition`` selects the same element
        ``sorted`` would); refresh points and head samples are index
        arithmetic on the seen count.
        """
        m = len(durations)
        seen = stats.seen  # root i is the (seen + 1 + i)-th
        before = len(stats.ring)
        window = stats.ring + durations
        # Root i sees min(WINDOW, before + i) durations before it.
        warm_from = (
            max(0, MIN_SAMPLES - before) if MIN_SAMPLES <= WINDOW else m
        )
        first = warm_from + (-(seen + 1 + warm_from)) % REFRESH_EVERY
        points = [i for i in range(first, m, REFRESH_EVERY) if open_[i]]
        threshold = stats.threshold
        if threshold is None:
            start = next(
                (i for i in range(warm_from, m) if open_[i]), None
            )
            if start is not None and (not points or start < points[0]):
                points.insert(0, start)
        kept: dict[int, str] = {}

        def test(start: int, stop: int) -> None:
            for i in range(start, stop):
                if open_[i] and durations[i] >= threshold:
                    kept[i] = "slow"

        if threshold is not None:
            test(warm_from, points[0] if points else m)
        if points:
            # The order statistic by selection, not a sort per chunk.
            values = np.array(window)
        for start, stop in zip(points, [*points[1:], m]):
            end = before + start
            tail = values[max(0, end - WINDOW) : end]
            k = min(len(tail) - 1, int(round(SLOW_QUANTILE * (len(tail) - 1))))
            threshold = float(np.partition(tail, k)[k])
            test(start, stop)
        if HEAD_SAMPLE:
            for i in range((-seen) % HEAD_SAMPLE, m, HEAD_SAMPLE):
                if open_[i] and i not in kept:
                    kept[i] = "head"
        stats.seen += m
        stats.ring = window[-WINDOW:] if WINDOW else []
        stats.threshold = threshold
        return sorted(kept.items())

    def note_health(self, snapshot: dict) -> None:
        """Attach a health snapshot to the recorder's bounded ring."""
        with self._lock:
            self._health.append({"unix_ts": time.time(), **snapshot})

    # ------------------------------------------------------------------
    # Reading

    @property
    def traces_seen(self) -> int:
        """Root spans classified so far."""
        self.fold()
        return self._traces_seen

    def kept(self, reason: str | None = None) -> tuple[KeptTrace, ...]:
        """Kept traces, oldest first, optionally filtered by reason."""
        self.fold()
        with self._lock:
            snapshot = tuple(KeptTrace(*fields) for fields in self._kept)
        if reason is None:
            return snapshot
        return tuple(t for t in snapshot if t.reason == reason)

    def exemplars(self, limit: int = 8) -> tuple[KeptTrace, ...]:
        """Up to ``limit`` kept traces, tail-biased: the most recent
        problem traces (error/event/slow) first, healthy head samples
        filling any remaining room."""
        snapshot = self.kept()
        problems = [t for t in reversed(snapshot) if t.reason != "head"]
        heads = [t for t in reversed(snapshot) if t.reason == "head"]
        return tuple((problems + heads)[: max(0, limit)])

    def health_snapshots(self) -> tuple[dict, ...]:
        with self._lock:
            return tuple(self._health)

    def loss(self) -> dict:
        """Sheds, so truncated evidence is self-describing."""
        self.fold()
        with self._lock:
            return self._loss_locked()

    def _loss_locked(self) -> dict:
        return {
            "pending_traces_dropped": self.pending_dropped,
            "trace_spans_dropped": self.trace_spans_dropped,
            "kept_traces_evicted": self.kept_evicted,
        }

    def snapshot(self) -> dict:
        """JSON-friendly recorder state for ``health()`` and bundles."""
        self.fold()
        with self._lock:
            return {
                "traces_seen": self._traces_seen,
                "kept_now": len(self._kept),
                "max_traces": MAX_TRACES,
                "head_sample": HEAD_SAMPLE,
                "slow_quantile": SLOW_QUANTILE,
                "kept": dict(self.kept_counts),
                "slow_thresholds_ms": {
                    f"{name}|{kind}": round(stats.threshold, 3)
                    for (name, kind), stats in sorted(self._roots.items())
                    if stats.threshold is not None
                },
                "loss": self._loss_locked(),
            }


# ---------------------------------------------------------------------------
# Diagnostic bundles


BUNDLE_FORMAT = 1

#: Top-level keys every bundle carries (sections a server lacks — no
#: durability, profiler off — are present with ``None``).
BUNDLE_REQUIRED_KEYS = (
    "manifest",
    "trigger",
    "health",
    "tuning",
    "metrics",
    "events_tail",
    "telemetry_loss",
    "exemplar_traces",
    "flight",
    "alerts",
    "fingerprint",
    "profiler",
    "durability",
)

MANIFEST_REQUIRED_KEYS = (
    "bundle_format",
    "created_unix",
    "trigger",
    "contents",
)

#: Directory-bundle layout: section -> file name (events are JSONL,
#: exemplar traces one file each under ``traces/``).
_DIR_SECTIONS = {
    "manifest": "manifest.json",
    "trigger": "trigger.json",
    "health": "health.json",
    "tuning": "tuning.json",
    "metrics": "metrics.json",
    "telemetry_loss": "telemetry_loss.json",
    "flight": "flight.json",
    "alerts": "alerts.json",
    "fingerprint": "fingerprint.json",
    "profiler": "profiler.json",
    "durability": "durability.json",
}


def _dump(payload, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )


def write_bundle(bundle: dict, path: str | Path) -> Path:
    """Persist a bundle: one JSON file (``*.json``) or a directory.

    The directory layout splits sections into their own files (and each
    exemplar trace into ``traces/``) so a bundle can be poked at with
    ``jq``/Perfetto without loading one giant document; both forms round-
    trip through :func:`load_bundle`.
    """
    path = Path(path)
    if path.suffix == ".json":
        path.parent.mkdir(parents=True, exist_ok=True)
        _dump(bundle, path)
        return path
    path.mkdir(parents=True, exist_ok=True)
    for section, filename in _DIR_SECTIONS.items():
        _dump(bundle.get(section), path / filename)
    (path / "events.jsonl").write_text(
        "\n".join(
            json.dumps(event, sort_keys=True, default=str)
            for event in bundle.get("events_tail", ())
        )
        + "\n"
    )
    traces_dir = path / "traces"
    traces_dir.mkdir(exist_ok=True)
    for index, trace in enumerate(bundle.get("exemplar_traces", ())):
        _dump(
            trace,
            traces_dir
            / f"trace_{index:02d}_{trace.get('reason', 'kept')}.json",
        )
    return path


def load_bundle(path: str | Path) -> dict:
    """Read a bundle written by :func:`write_bundle` back into one dict."""
    path = Path(path)
    if path.is_file():
        return json.loads(path.read_text())
    bundle: dict = {}
    for section, filename in _DIR_SECTIONS.items():
        file_path = path / filename
        bundle[section] = (
            json.loads(file_path.read_text()) if file_path.exists() else None
        )
    events_path = path / "events.jsonl"
    bundle["events_tail"] = (
        [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line.strip()
        ]
        if events_path.exists()
        else []
    )
    traces_dir = path / "traces"
    bundle["exemplar_traces"] = (
        [
            json.loads(p.read_text())
            for p in sorted(traces_dir.glob("trace_*.json"))
        ]
        if traces_dir.is_dir()
        else []
    )
    return bundle


def validate_bundle(bundle: dict | str | Path) -> list[str]:
    """Completeness problems with a bundle (empty list = valid).

    Accepts a bundle dict or a path (file or directory).  Checks the
    documented schema: every required top-level section present, the
    manifest well-formed and consistent with the content, and every
    exemplar trace renderable (a Chrome trace document with events).
    """
    if not isinstance(bundle, dict):
        try:
            bundle = load_bundle(bundle)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable bundle: {exc}"]
    problems = []
    for key in BUNDLE_REQUIRED_KEYS:
        if key not in bundle:
            problems.append(f"missing section {key!r}")
    manifest = bundle.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("manifest is not a mapping")
        return problems
    for key in MANIFEST_REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"manifest missing {key!r}")
    if manifest.get("bundle_format") != BUNDLE_FORMAT:
        problems.append(
            f"unsupported bundle_format {manifest.get('bundle_format')!r}"
        )
    contents = manifest.get("contents")
    if isinstance(contents, list):
        missing = [key for key in contents if key not in bundle]
        if missing:
            problems.append(f"manifest lists absent sections {missing}")
    for index, trace in enumerate(bundle.get("exemplar_traces") or ()):
        doc = trace.get("chrome_trace") if isinstance(trace, dict) else None
        if not isinstance(doc, dict) or not doc.get("traceEvents"):
            problems.append(f"exemplar trace {index} has no traceEvents")
        elif trace.get("reason") not in KEEP_REASONS:
            problems.append(
                f"exemplar trace {index} has unknown reason "
                f"{trace.get('reason')!r}"
            )
    health = bundle.get("health")
    if not isinstance(health, dict) or "slo" not in health:
        problems.append("health snapshot missing its slo section")
    if not isinstance(bundle.get("metrics"), dict):
        problems.append("metrics snapshot is not a mapping")
    if not isinstance(bundle.get("telemetry_loss"), dict):
        problems.append("telemetry_loss is not a mapping")
    return problems
