"""Always-on flight recorder: tail-biased trace capture + diag bundles.

The tracer's finished ring answers "what happened recently" — but by the
time an operator notices a deadline spike, the interesting traces have
been evicted by thousands of healthy ones.  The
:class:`FlightRecorder` is the black box that fixes this: the tracer hands
it every finished trace (:meth:`~repro.obs.tracing.Tracer.add_listener`:
one call per root, the whole trace at once; stragglers that outlive their
root arrive alone and wait, bounded, in ``_pending``), and when a trace's
*root* span arrives it decides whether the whole trace is worth keeping:

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

Everything is bounded: pending traces, spans per trace, and the kept ring
are capped, and every shed is counted (``loss()``), so the recorder can
run always-on in a server without growing memory — the overhead gate is
``benchmarks/bench_flight_overhead.py``.

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
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .export import chrome_trace_from_spans
from .metrics import MetricsRegistry
from .tracing import Span, Tracer

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_REQUIRED_KEYS",
    "MANIFEST_REQUIRED_KEYS",
    "FlightRecorder",
    "KeptTrace",
    "load_bundle",
    "validate_bundle",
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


@dataclass(frozen=True)
class KeptTrace:
    """One full trace the recorder decided to keep."""

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
        self.ring: deque = deque(maxlen=WINDOW)
        self.threshold: float | None = None


class FlightRecorder:
    """Bounded, tail-biased capture of recent traces (see module docs)."""

    def __init__(self, tracer: Tracer, registry: MetricsRegistry):
        """Listens to ``tracer`` and counts kept traces in ``registry``;
        the bounds and sampling rates are this module's constants."""
        self.tracer = tracer
        self._lock = threading.Lock()
        self._pending: dict[int, list[Span]] = {}
        self._kept: deque[KeptTrace] = deque(maxlen=max(1, MAX_TRACES))
        self._roots: dict[tuple[str, str], _RootStats] = {}
        self._health: deque[dict] = deque(maxlen=MAX_HEALTH)
        self.traces_seen = 0
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
        tracer.add_listener(self.on_trace)

    def close(self) -> None:
        """Detach from the tracer (idempotent)."""
        self.tracer.remove_listener(self.on_trace)

    # ------------------------------------------------------------------
    # Capture

    def on_trace(self, spans: tuple[Span, ...]) -> None:
        """Tracer listener: one finished trace (root last), or a straggler.

        Runs on whatever thread finished the root.  One lock acquisition
        per call: spans below a root are buffered under their trace id,
        the root collects them and the keep decision is made.
        """
        kept: KeptTrace | None = None
        with self._lock:
            for span in spans:
                if span.parent_id is None:
                    kept = self._close_trace(span)
                else:
                    self._buffer(span)
        if kept is not None:
            self._kept_series[kept.reason].inc()

    def on_span(self, span: Span) -> None:
        """One span on its own (what a straggler's delivery looks like)."""
        self.on_trace((span,))

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

    def _close_trace(self, root: Span) -> KeptTrace | None:
        """A root arrived: classify its trace and keep it or not (lock
        held)."""
        pending = self._pending
        parked = pending.pop(root.trace_id, None) if pending else None
        spans = (*parked, root) if parked else (root,)
        self.traces_seen += 1
        kind = str(root.attributes.get("kind", ""))
        end = root.end if root.end is not None else root.start
        duration_ms = (end - root.start) * 1e3
        reason = self._classify(root, spans, kind, duration_ms)
        if reason is None:
            return None
        self.kept_counts[reason] += 1
        if len(self._kept) == self._kept.maxlen:
            self.kept_evicted += 1
        kept = KeptTrace(
            trace_id=root.trace_id,
            reason=reason,
            root_name=root.name,
            kind=kind,
            duration_ms=duration_ms,
            unix_ts=time.time(),
            spans=spans,
        )
        self._kept.append(kept)
        return kept

    def _classify(
        self,
        root: Span,
        spans: tuple[Span, ...],
        kind: str,
        duration_ms: float,
    ) -> str | None:
        """Keep reason of one finished root, or ``None`` (lock held)."""
        key = (root.name, kind)
        stats = self._roots.get(key)
        if stats is None:
            stats = self._roots[key] = _RootStats()
        stats.seen = seen = stats.seen + 1
        ring = stats.ring
        reason: str | None = None
        if "error" in root.attributes:
            reason = "error"
        else:
            for span in spans:
                if span.events:
                    reason = "event"
                    break
        if reason is None:
            warm = len(ring) >= MIN_SAMPLES
            if warm and (
                stats.threshold is None or seen % REFRESH_EVERY == 0
            ):
                ordered = sorted(ring)
                index = min(
                    len(ordered) - 1,
                    int(round(SLOW_QUANTILE * (len(ordered) - 1))),
                )
                stats.threshold = ordered[index]
            if warm and duration_ms >= stats.threshold:
                reason = "slow"
            elif HEAD_SAMPLE and (seen - 1) % HEAD_SAMPLE == 0:
                reason = "head"
        ring.append(duration_ms)
        return reason

    def note_health(self, snapshot: dict) -> None:
        """Attach a health snapshot to the recorder's bounded ring."""
        with self._lock:
            self._health.append({"unix_ts": time.time(), **snapshot})

    # ------------------------------------------------------------------
    # Reading

    def kept(self, reason: str | None = None) -> tuple[KeptTrace, ...]:
        """Kept traces, oldest first, optionally filtered by reason."""
        with self._lock:
            snapshot = tuple(self._kept)
        if reason is None:
            return snapshot
        return tuple(t for t in snapshot if t.reason == reason)

    def exemplars(self, limit: int = 8) -> tuple[KeptTrace, ...]:
        """Up to ``limit`` kept traces, tail-biased: the most recent
        problem traces (error/event/slow) first, healthy head samples
        filling any remaining room."""
        with self._lock:
            snapshot = tuple(self._kept)
        problems = [t for t in reversed(snapshot) if t.reason != "head"]
        heads = [t for t in reversed(snapshot) if t.reason == "head"]
        return tuple((problems + heads)[: max(0, limit)])

    def health_snapshots(self) -> tuple[dict, ...]:
        with self._lock:
            return tuple(self._health)

    def loss(self) -> dict:
        """Sheds, so truncated evidence is self-describing."""
        with self._lock:
            return {
                "pending_traces_dropped": self.pending_dropped,
                "trace_spans_dropped": self.trace_spans_dropped,
                "kept_traces_evicted": self.kept_evicted,
            }

    def snapshot(self) -> dict:
        """JSON-friendly recorder state for ``health()`` and bundles."""
        with self._lock:
            return {
                "traces_seen": self.traces_seen,
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
                "loss": {
                    "pending_traces_dropped": self.pending_dropped,
                    "trace_spans_dropped": self.trace_spans_dropped,
                    "kept_traces_evicted": self.kept_evicted,
                },
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
