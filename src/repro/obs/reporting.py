"""Plain-text and JSON reporting: the experiment drivers' tables and
plots, and the ``repro stats`` rendering of a registry + tracer.

The reproduction regenerates the paper's tables and figures as text: tables
render with aligned columns, figures as simple character-grid scatter/line
plots — enough to read off the qualitative shapes (who wins, by what factor,
where curves cross) that the reproduction must match.  The same table
helper renders an :class:`~repro.obs.Observability` triple (+ events,
health) for a person, and :func:`render_json` renders it for a scraper.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence

from .events import EventLog
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "ascii_table",
    "ascii_plot",
    "format_number",
    "format_duration",
    "format_ratio",
    "stats_payload",
    "render_json",
    "render_text",
]


def format_duration(seconds: float) -> str:
    """Human-scale duration: picks s / ms / µs to keep 3-ish digits."""
    if seconds != seconds:  # NaN
        return "nan"
    magnitude = abs(seconds)
    if magnitude >= 1.0:
        return f"{seconds:.3f}s"
    if magnitude >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_ratio(value: float) -> str:
    """A measured/planned style ratio: ``1.00x``, ``inf``, or ``nan``."""
    if value != value:  # NaN
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.2f}x"


def format_number(value, precision: int = 3) -> str:
    """Compact numeric formatting: thousands separators, trimmed floats."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value):,}"
        return f"{value:,.{precision}f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render rows as an aligned text table."""
    formatted = [
        [format_number(cell, precision) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in formatted)) if formatted else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in formatted:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 72,
    height: int = 20,
    title: str | None = None,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Render ``{name: [(x, y), ...]}`` series on a character grid.

    Each series is marked with a distinct character (its position in the
    mapping: ``*``, ``o``, ``+``, ``x``...).  Axis ranges cover all points.
    """
    markers = "*o+x#@%&"
    points = [
        (x, y) for pts in series.values() for x, y in pts
    ]
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(markers, series.items()):
        for x, y in pts:
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_min) / y_span * (height - 1)))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(markers, series.keys())
    )
    lines.append(f"legend: {legend}")
    lines.append(f"{ylabel}: [{format_number(y_min)}, {format_number(y_max)}]")
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(
        f"{xlabel}: [{format_number(x_min)}, {format_number(x_max)}]"
    )
    return "\n".join(lines)


def stats_payload(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    health: dict | None = None,
    events: EventLog | None = None,
) -> dict:
    """JSON-friendly ``{"metrics", "spans", "span_summary", "tracer",
    "events", "health"}``.

    ``health`` is the server's :meth:`~repro.server.OLAPServer.health`
    snapshot (serving status, quarantine, SLO quantiles, timeout/retry/
    degradation counts); ``events`` the structured event log.  Both are
    omitted when not provided.
    """
    payload: dict = {"metrics": registry.snapshot()}
    if tracer is not None:
        payload["spans"] = [s.to_dict() for s in tracer.spans()]
        payload["span_summary"] = tracer.summary()
        payload["tracer"] = {
            "finished_spans": len(tracer.spans()),
            "dropped_spans": tracer.dropped_spans,
            "max_spans": tracer.max_spans,
            "traces": len(tracer.trace_ids()),
        }
    if events is not None:
        payload["events"] = list(events.events())
    if health is not None:
        payload["health"] = health
    return payload


def render_json(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    indent: int | None = 2,
    health: dict | None = None,
    events: EventLog | None = None,
) -> str:
    """The stats payload as a JSON document."""
    return json.dumps(
        stats_payload(registry, tracer, health=health, events=events),
        indent=indent,
        default=str,
    )


def _scalar_rows(snapshot: dict) -> list[list]:
    rows = []
    for name, metric in snapshot.items():
        if metric["type"] == "histogram":
            continue
        for labels, value in sorted(metric["values"].items()):
            rows.append([name, metric["type"], labels or "-", value])
    return rows


def _histogram_rows(snapshot: dict, registry: MetricsRegistry) -> list[list]:
    rows = []
    for name, metric in snapshot.items():
        if metric["type"] != "histogram":
            continue
        hist = registry.get(name)
        for labels, stats in sorted(metric["values"].items()):
            mean = stats["sum"] / stats["count"] if stats["count"] else 0.0
            label_kwargs = dict(
                pair.split("=", 1) for pair in labels.split(",") if pair
            )
            p50 = hist.quantile(0.50, **label_kwargs) if hist else 0.0
            p95 = hist.quantile(0.95, **label_kwargs) if hist else 0.0
            rows.append(
                [
                    name,
                    labels or "-",
                    stats["count"],
                    stats["sum"],
                    mean,
                    p50,
                    p95,
                    stats["min"],
                    stats["max"],
                ]
            )
    return rows


def _health_rows(health: dict, prefix: str = "") -> list[list]:
    rows = []
    for field, value in health.items():
        if isinstance(value, dict):
            rows.extend(_health_rows(value, prefix=f"{prefix}{field}."))
            continue
        if isinstance(value, list):
            if value and all(isinstance(item, dict) for item in value):
                # e.g. the per-shard health entries: one row group per
                # element, indexed so shards line up in the table.
                for i, item in enumerate(value):
                    rows.extend(
                        _health_rows(item, prefix=f"{prefix}{field}[{i}].")
                    )
                continue
            value = ", ".join(str(v) for v in value) or "-"
        rows.append([f"{prefix}{field}", value])
    return rows


def _event_rows(events: EventLog, limit: int = 20) -> list[list]:
    rows = []
    for event in events.events()[-limit:]:
        detail = ", ".join(
            f"{k}={v}"
            for k, v in event.items()
            if k not in ("seq", "ts", "kind")
        )
        rows.append([event["seq"], event["kind"], detail or "-"])
    return rows


def render_text(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    health: dict | None = None,
    events: EventLog | None = None,
) -> str:
    """Counters/gauges, histograms (with quantiles), span aggregates,
    recent events, and the health snapshot as aligned text tables."""
    snapshot = registry.snapshot()
    sections = []
    if health is not None:
        sections.append(
            ascii_table(["field", "value"], _health_rows(health), title="health")
        )
    scalar_rows = _scalar_rows(snapshot)
    if scalar_rows:
        sections.append(
            ascii_table(
                ["metric", "type", "labels", "value"],
                scalar_rows,
                title="metrics",
            )
        )
    histogram_rows = _histogram_rows(snapshot, registry)
    if histogram_rows:
        sections.append(
            ascii_table(
                [
                    "histogram",
                    "labels",
                    "count",
                    "sum",
                    "mean",
                    "p50",
                    "p95",
                    "min",
                    "max",
                ],
                histogram_rows,
                title="histograms",
            )
        )
    if tracer is not None:
        summary = tracer.summary()
        if summary:
            rows = [
                [
                    name,
                    agg["count"],
                    format_duration(agg["total_ms"] / 1e3),
                    format_duration(agg["mean_ms"] / 1e3),
                    agg["operations"],
                ]
                for name, agg in sorted(summary.items())
            ]
            sections.append(
                ascii_table(
                    ["span", "count", "total", "mean", "operations"],
                    rows,
                    title="spans",
                )
            )
        sections.append(
            ascii_table(
                ["field", "value"],
                [
                    ["finished_spans", len(tracer.spans())],
                    ["dropped_spans", tracer.dropped_spans],
                    ["max_spans", tracer.max_spans],
                    ["traces", len(tracer.trace_ids())],
                ],
                title="tracer",
            )
        )
    if events is not None and len(events):
        sections.append(
            ascii_table(
                ["seq", "kind", "detail"],
                _event_rows(events),
                title="events (most recent)",
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
