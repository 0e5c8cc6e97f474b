"""Standard-format exporters for the telemetry surfaces.

Two export targets, both dependency-free:

- :func:`chrome_trace` / :func:`render_chrome_trace` — the Chrome
  trace-event JSON format (``chrome://tracing`` / Perfetto ``Trace Event
  Format``).  Every finished span becomes one complete (``"ph": "X"``)
  event on a ``(pid, tid)`` lane, so a traced ``query_batch`` renders as a
  scheduler lane plus one lane per pool worker thread and per process-pool
  worker; span events (retries, fault injections) become instant events on
  the same lane.
- :func:`prometheus_text` — the Prometheus text exposition format
  (version 0.0.4) for a :class:`~repro.obs.metrics.MetricsRegistry`:
  counters and gauges verbatim, histograms as cumulative ``_bucket{le=}``
  series plus ``_sum``/``_count``, which is exactly what a scraper expects
  from a ``/metrics`` endpoint (:mod:`repro.obs.http`).
"""

from __future__ import annotations

import json
import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_from_spans",
    "render_chrome_trace",
    "prometheus_text",
]


# ---------------------------------------------------------------------------
# Chrome trace events


def chrome_trace(tracer: Tracer, trace_id: int | None = None) -> dict:
    """A Chrome trace-event document for the tracer's finished spans.

    ``trace_id`` restricts the export to one trace (``None`` exports
    everything recorded).  Timestamps are microseconds on the span clock
    (``time.perf_counter``); lanes are ``(process_id, thread_id)`` pairs
    with metadata events naming each thread, so the scheduler thread, pool
    workers, and shared-memory process workers render as separate rows.
    """
    spans = tracer.spans() if trace_id is None else tracer.trace(trace_id)
    return chrome_trace_from_spans(spans)


def chrome_trace_from_spans(spans) -> dict:
    """A Chrome trace-event document for an explicit span collection.

    Same format as :func:`chrome_trace`, but the caller supplies the spans
    — the flight recorder uses this to render a kept trace long after the
    tracer's ring has moved on.
    """
    events: list[dict] = []
    seen_lanes: set[tuple[int, int]] = set()
    for span in sorted(spans, key=lambda s: s.start):
        lane = (span.process_id, span.thread_id)
        if lane not in seen_lanes:
            seen_lanes.add(lane)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": span.process_id,
                    "tid": span.thread_id,
                    "args": {"name": span.thread_name or f"tid {span.thread_id}"},
                }
            )
        end = span.end if span.end is not None else span.start
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update(span.attributes)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "pid": span.process_id,
                "tid": span.thread_id,
                "ts": span.start * 1e6,
                "dur": max(0.0, (end - span.start) * 1e6),
                "args": args,
            }
        )
        for event in span.events:
            instant_args = {
                k: v for k, v in event.items() if k not in ("name", "ts")
            }
            instant_args["span_id"] = span.span_id
            events.append(
                {
                    "ph": "i",
                    "name": event["name"],
                    "cat": "repro",
                    "pid": span.process_id,
                    "tid": span.thread_id,
                    "ts": event["ts"] * 1e6,
                    "s": "t",
                    "args": instant_args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_chrome_trace(
    tracer: Tracer, trace_id: int | None = None, indent: int | None = None
) -> str:
    """:func:`chrome_trace` as a JSON document (loadable by Perfetto)."""
    return json.dumps(
        chrome_trace(tracer, trace_id), indent=indent, default=str
    )


# ---------------------------------------------------------------------------
# Prometheus text exposition


_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    if _NAME_OK.match(name):
        return name
    name = _NAME_FIX.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_label_pairs(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{_LABEL_FIX.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Counters keep their registered name (scrape configs conventionally
    expect ``_total`` suffixes, which this codebase's counters already
    carry where idiomatic); histograms render as cumulative buckets plus
    ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    metrics = [registry.get(name) for name in registry.names()]
    for metric in metrics:
        if metric is None:
            continue
        name = _metric_name(metric.name)
        kind = (
            "counter"
            if isinstance(metric, Counter)
            else "gauge"
            if isinstance(metric, Gauge)
            else "histogram"
        )
        if metric.description:
            lines.append(
                f"# HELP {name} {_escape_label_value(metric.description)}"
            )
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(metric.labelsets()):
            pairs = [(k, v) for k, v in key]
            if isinstance(metric, Histogram):
                labels = dict(key)
                for bound, cum in metric.buckets(**labels):
                    bucket_pairs = pairs + [("le", _format_value(bound))]
                    lines.append(
                        f"{name}_bucket{_render_label_pairs(bucket_pairs)}"
                        f" {cum}"
                    )
                stats = metric.stats(**labels)
                lines.append(
                    f"{name}_sum{_render_label_pairs(pairs)}"
                    f" {_format_value(stats['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_label_pairs(pairs)} {stats['count']}"
                )
            else:
                value = metric.value(**dict(key))
                lines.append(
                    f"{name}{_render_label_pairs(pairs)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"
