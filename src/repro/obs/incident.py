"""The incident glue of one :class:`~repro.server.OLAPServer`.

What an operator reads about a server, and what it writes when an alert
fires: the ``server_*`` series (:func:`declare_metrics`), the
:func:`health` payload with its telemetry loss, the burn-rate alert
callbacks (:func:`watch_alerts`) and the diagnostic bundle
(:func:`dump_diagnostics`, numbered by :class:`Diagnostics`).  Each
function takes the server it reports on; the server calls them directly.
"""

from __future__ import annotations

import functools
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from ..core import exec as batch_exec
from ..core.materialize import MaterializedSet
from ..resilience import retry
from . import log_event
from .alerts import FAST_WINDOW_S, SLOW_WINDOW_S
from .fingerprint import HOT_TOP, QUERY_KINDS
from .flight import BUNDLE_FORMAT, HEAD_SAMPLE, MAX_TRACES, write_bundle

__all__ = [
    "Diagnostics", "declare_metrics", "dump_diagnostics", "health",
    "report_quarantine", "telemetry_loss", "watch_alerts",
]

#: Bundles a server's firing alerts may write; explicit dumps are not
#: counted against it.
MAX_AUTO_DUMPS = 8
#: Event-log records and flight-recorder exemplar traces a bundle carries.
EVENTS_TAIL = 64
EXEMPLARS = 8


def declare_metrics(registry) -> SimpleNamespace:
    """Every metric a server writes, declared once: the serving paths and
    :func:`health` use these handles, not by-name lookups.  What a served
    call writes every time is bound down to its series (``*_of[kind]``,
    ``operations``, ``in_flight``), so the envelope builds no label key
    per query; so is what every update burst writes."""
    counter, gauge = registry.counter, registry.gauge
    queries = counter("server_queries_total", "queries served, by kind")
    batches = counter("server_batches_total", "batch requests served, by kind")
    latency = registry.histogram(
        "server_latency_ms", "wall milliseconds per served call"
    )
    return SimpleNamespace(
        queries_of={k: queries.labels(kind=k) for k in QUERY_KINDS},
        batches_of={k: batches.labels(kind=k) for k in QUERY_KINDS},
        operations=counter(
            "server_operations_total", "scalar operations spent serving"
        ).labels(),
        latency=latency,
        latency_ok_of={
            k: latency.labels(kind=k, outcome="ok") for k in QUERY_KINDS
        },
        in_flight=gauge("server_in_flight", "queries currently admitted").labels(),
        admission_rejected=counter(
            "server_admission_rejected_total",
            "queries rejected at the admission bound",
        ),
        timeouts=counter(
            "server_timeouts_total", "queries cancelled by their deadline"
        ),
        retries=counter("server_retries_total", "transient-fault retries performed"),
        retry_exhausted=counter(
            "server_retry_exhausted_total",
            "queries failed after exhausting retries",
        ),
        degraded=counter(
            "server_degraded_total",
            "queries answered from the base cube after quarantine",
        ),
        cache_bypass=counter(
            "server_cache_bypass_total",
            "cache lookups degraded to a recompute by a cache fault",
        ),
        warm_reads=counter(
            "range_intermediate_served_total",
            "roll-ups and views served as an assembled intermediate",
        ).labels(),
        quarantined=gauge(
            "server_quarantined_elements",
            "stored elements currently quarantined by integrity checks",
        ),
        epoch=gauge("server_epoch", "current selection epoch of the result cache"),
        reconfigurations=counter(
            "server_reconfigurations_total", "re-selections performed"
        ),
        migration_operations=registry.histogram(
            "reconfigure_migration_operations",
            "scalar operations spent migrating the materialized set",
        ),
        snapshots=counter("server_snapshots_total", "serving-state snapshots taken"),
        snapshot_failures=counter(
            "server_snapshot_failures_total", "background snapshots that raised"
        ),
        alerts=counter("server_alerts_total", "burn-rate alerts fired, by rule"),
        diag_dump_failures=counter(
            "server_diag_dump_failures_total", "diagnostic bundle dumps that raised"
        ),
        updates=counter(
            "server_updates_total", "incremental cell updates applied"
        ).labels(),
        update_cache_patched=counter(
            "server_update_cache_patched_total",
            "cached entries repaired in place by update deltas",
        ).labels(),
        update_cache_cleared=counter(
            "server_update_cache_cleared_total",
            "coarse warm-state invalidations performed by updates",
        ),
    )


def report_quarantine(server) -> None:
    """Set ``server_quarantined_elements`` from the serving set: a pre-read
    hook of the server's registry, so the gauge is current whenever it is
    read and no served call takes the set's integrity lock for it."""
    server._m.quarantined.set(len(server._state.materialized.quarantined))


def _read_once(report):
    """Run ``report(server, ...)`` in one ``server.metrics.reading()``
    block: each pre-read hook runs once per report, not once per read."""

    @functools.wraps(report)
    def read(server, *args, **kwargs):
        with server.metrics.reading():
            return report(server, *args, **kwargs)

    return read


@_read_once
def health(server, max_workers: int) -> dict:
    """:meth:`OLAPServer.health <repro.server.OLAPServer.health>`'s
    payload; ``max_workers`` is the batch default it reports."""
    state, m, metrics = server._state, server._m, server.metrics
    quarantined = state.materialized.quarantined
    m.quarantined.set(len(quarantined))

    def _total(name: str) -> float:
        metric = metrics.get(name)
        total = getattr(metric, "total", None)
        return float(total()) if callable(total) else 0.0

    queries = server.stats.queries
    latency = m.latency
    latency_by_kind: dict[str, dict] = {}
    for key in latency.labelsets():
        labels = dict(key)
        if labels.get("outcome") != "ok":
            continue
        stats = latency.stats(**labels)
        latency_by_kind[labels.get("kind", "?")] = {
            "count": stats["count"],
            "p50_ms": round(stats["p50"], 3),
            "p95_ms": round(stats["p95"], 3),
            "p99_ms": round(stats["p99"], 3),
            "max_ms": round(stats["max"], 3),
        }
    denominator = max(1, queries)
    slo = {
        "latency_ms": latency_by_kind,
        "timeout_rate": m.timeouts.total() / denominator,
        "rejection_rate": m.admission_rejected.total() / denominator,
        "retry_rate": m.retries.total() / denominator,
        "degraded_rate": m.degraded.total() / denominator,
        "tracer_dropped_spans": server.tracer.dropped_spans,
        "events_dropped": server.obs.events.dropped_events,
        "telemetry_loss": telemetry_loss(server),
    }
    payload = {
        "status": "degraded" if quarantined else "ok",
        "epoch": state.epoch,
        "stored_elements": len(state.materialized),
        "quarantined_elements": len(quarantined),
        "quarantined": [e.describe() for e in quarantined],
        "in_flight": m.in_flight.value(),
        "max_in_flight": server.max_in_flight,
        "queries": queries,
        "reconfigurations": server.stats.reconfigurations,
        "admission_rejected": m.admission_rejected.total(),
        "timeouts": m.timeouts.total(),
        "retries": m.retries.total(),
        "degraded_serves": m.degraded.total(),
        "updates": m.updates.value(),
        "updates_cache_patched": m.update_cache_patched.value(),
        "updates_cache_cleared": m.update_cache_cleared.total(),
        "cache_bypasses": m.cache_bypass.total(),
        "cache_warm_reads": _total("range_intermediate_served_total"),
        "integrity_failures": _total("integrity_failures_total"),
        "faults_injected": _total("faults_injected_total"),
        "tuning": {
            "dispatch_threshold": batch_exec.DISPATCH_THRESHOLD,
            "cache_entries": server._cache_entries,
            "cache_cells": server._cache_cells,
            "max_workers": max_workers,
            "max_retries": server.max_retries,
            "retry_backoff_ms": retry.BACKOFF_MS,
            "plan_cache_entries": MaterializedSet._PLAN_CACHE_ENTRIES,
            "flight_max_traces": MAX_TRACES,
            "flight_head_sample": HEAD_SAMPLE,
            "alert_fast_window_s": FAST_WINDOW_S,
            "alert_slow_window_s": SLOW_WINDOW_S,
        },
        "slo": slo,
    }
    if server.alerts is not None:
        payload["alerts"] = server.alerts.snapshot()
    # Key skew comes from the one per-element table the server keeps: the
    # tracker the serve envelope feeds (ranges record no element).
    with server._stats_lock:
        tracked = server.tracker.weights()
    weights = sorted(tracked.values(), reverse=True)
    total = sum(weights)
    hot = sum(weights[:HOT_TOP])
    payload["fingerprint"] = fingerprint = server.fingerprints.snapshot(
        hot_share=hot / total if total > 0.0 else 0.0
    )
    fingerprint["tracked_elements"] = len(weights)
    flight = server.flight
    if flight is not None:
        payload["flight"] = flight.snapshot()
    if server._partition is not None:
        payload["shards"] = {
            **state.materialized.shards_health(),
            "scatters": _total("shard_scatters_total"),
            "shard_retries": _total("shard_retries_total"),
            "shard_degraded": _total("shard_degraded_total"),
        }
    if server._lineage is not None:
        payload["durability"] = server._lineage.health(_total)
    if flight is not None:
        # Each health poll leaves a compact SLO snapshot in the recorder's
        # bounded ring, so a diag bundle shows how the scalar rates evolved
        # up to the incident, not just the instant of the dump.
        flight.note_health(
            {
                "epoch": server.epoch,
                "queries": queries,
                "timeout_rate": slo["timeout_rate"],
                "rejection_rate": slo["rejection_rate"],
                "retry_rate": slo["retry_rate"],
                "degraded_rate": slo["degraded_rate"],
                "firing": payload.get("alerts", {}).get("firing_now", []),
            }
        )
    return payload


def telemetry_loss(server) -> dict:
    """Every bounded-telemetry shed, so evidence is self-describing."""
    loss = {
        "tracer_dropped_spans": server.tracer.dropped_spans,
        "events_dropped": server.obs.events.dropped_events,
        "metrics_dropped_series": server.metrics.dropped_series_total(),
    }
    if server.flight is not None:
        loss["flight"] = server.flight.loss()
    return loss


class Diagnostics:
    """The numbered bundle paths of one server's ``diagnostics_dir``.

    Explicit dumps and alert auto-dumps are numbered apart, and only the
    auto-dumps are capped (:data:`MAX_AUTO_DUMPS`): an operator's dumps
    never spend the next incident's budget.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._manual = self._auto = 0

    def manual(self) -> Path:
        """The next explicit dump's path."""
        with self._lock:
            self._manual += 1
            count = self._manual
        return self.directory / f"diag-manual-{count:03d}.json"

    def auto(self, rule: str) -> Path | None:
        """The next auto-dump's path, or ``None`` once the budget is spent."""
        with self._lock:
            if self._auto >= MAX_AUTO_DUMPS:
                return None
            self._auto += 1
            count = self._auto
        return self.directory / f"diag-{rule}-{count:03d}.json"


def watch_alerts(server) -> None:
    """Hook ``server.alerts``: a firing alert is counted, logged and — with
    a ``diagnostics_dir`` — auto-dumped; a resolved one is logged."""

    def fire(event: dict) -> None:
        server._m.alerts.inc(rule=event["rule"])
        with server.obs.activate():
            log_event(
                "alert_firing",
                rule=event["rule"],
                fast_burn=event["fast_burn"],
                slow_burn=event["slow_burn"],
            )
        dumps = server._dumps
        path = dumps.auto(event["rule"]) if dumps is not None else None
        if path is None:
            return
        try:
            dump_diagnostics(server, path, trigger=event)
        except Exception:
            server._m.diag_dump_failures.inc()

    def resolve(event: dict) -> None:
        with server.obs.activate():
            log_event(
                "alert_resolved",
                rule=event["rule"],
                duration_s=round(event.get("duration_s", 0.0), 3),
            )

    server.alerts.on_fire.append(fire)
    server.alerts.on_resolve.append(resolve)


@_read_once
def dump_diagnostics(
    server, path: str | Path | None = None, trigger: dict | None = None
) -> Path:
    """:meth:`OLAPServer.dump_diagnostics
    <repro.server.OLAPServer.dump_diagnostics>`: write ``server``'s bundle
    (see :mod:`repro.obs.flight`) and return its path."""
    if path is None:
        if server._dumps is None:
            raise ValueError("no path given and the server has no diagnostics_dir")
        path = server._dumps.manual()
    health = server.health()
    flight, kept, flight_section = server.flight, (), None
    if flight is not None:
        kept = flight.exemplars(limit=EXEMPLARS)
        flight_section = flight.snapshot()
        # The ring of recent health() polls: how the SLO rates evolved
        # *up to* the incident, not just at dump time.
        flight_section["health_ring"] = list(flight.health_snapshots())
    bundle = {
        "trigger": dict(trigger) if trigger is not None else {"kind": "manual"},
        "health": health,
        "tuning": health["tuning"],
        "metrics": server.metrics.snapshot(),
        "events_tail": [
            dict(e) for e in server.obs.events.events()[-EVENTS_TAIL:]
        ],
        "telemetry_loss": telemetry_loss(server),
        "exemplar_traces": [t.to_dict() for t in kept],
        "flight": flight_section,
        "alerts": server.alerts.snapshot() if server.alerts is not None else None,
        "fingerprint": health["fingerprint"],
        "profiler": (
            server.profiler.snapshot() if server.profiler is not None else None
        ),
        "durability": health.get("durability"),
    }
    bundle["manifest"] = {
        "bundle_format": BUNDLE_FORMAT,
        "created_unix": time.time(),
        "trigger": bundle["trigger"].get("rule")
        or bundle["trigger"].get("kind", "manual"),
        "contents": sorted((*bundle, "manifest")),
    }
    with server.obs.activate():
        log_event(
            "diag_bundle",
            path=str(path),
            trigger=bundle["manifest"]["trigger"],
            exemplars=len(bundle["exemplar_traces"]),
        )
    return write_bundle(bundle, path)
