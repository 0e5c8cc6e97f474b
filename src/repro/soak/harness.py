"""Replay drifting soak traces against a live server and measure SLOs.

:func:`run_soak` drives one :class:`~repro.server.OLAPServer` through a
:func:`~repro.workloads.traces.drifting_trace` with
:func:`repro.replay.replay`, recording every batch's wall time and
reading p50/p95/p99 per query kind from the
server's own ``server_latency_ms`` SLO histogram (the same numbers
``health()`` and ``python -m repro stats`` render — the soak harness adds
no second latency bookkeeping).  On top of raw latency it measures
**adaptation lag**: after each ``drift`` marker, how many batches until
latency falls back under 1.5x the pre-drift median.

With ``adaptation`` on, every assembly batch's planned-vs-measured
profile (:meth:`OLAPServer.query_profile`) goes to
:meth:`OLAPServer.observe_profile`: the server's own cost-model monitor
re-selects when it trips — the paper's dynamic re-selection, driven by
live execution telemetry instead of a synthetic schedule.

:func:`run_soak_check` is the correctness gate (``python -m repro soak
--check``): the full drifting replay — ingest bursts, a re-selection at
every phase boundary, live adaptation — while a
:class:`~repro.replay.Replica` is maintained on the side and **every**
answer is compared byte for byte against recomputation from scratch.
Adaptation must never change answers, only their latency.
"""

from __future__ import annotations

import statistics

from ..replay import Replica, replay, seeded_cube
from ..workloads.traces import SoakConfig, drifting_trace

__all__ = [
    "GATE_CONFIG",
    "run_soak",
    "run_soak_check",
    "render_soak_report",
    "render_check_report",
]

#: A post-drift batch counts as "recovered" once its wall time is back
#: under this multiple of the pre-drift median.
LAG_RECOVERY_FACTOR = 1.5
#: How many pre-drift batch walls the recovery baseline medians over.
LAG_BASELINE_WINDOW = 5


def _quantile(walls: list[float], q: float) -> float:
    if not walls:
        return 0.0
    ordered = sorted(walls)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_soak(
    config: SoakConfig | None = None,
    trace: list[dict] | None = None,
    check_answers: bool = False,
    adaptation: bool = True,
    server_kwargs: dict | None = None,
) -> dict:
    """Replay one drifting trace; report SLO quantiles and adaptation lag.

    ``check_answers`` maintains an ndarray replica and byte-compares
    every answer (slow; the gate path).  ``adaptation`` feeds each
    assembly batch's profile to :meth:`OLAPServer.observe_profile`.
    """
    config = config or SoakConfig()
    if trace is None:
        trace = drifting_trace(config)
    # Imported lazily: repro.server pulls in the shard layer.
    from ..server import OLAPServer

    server = OLAPServer(
        seeded_cube(config.seed, config.sizes), **(server_kwargs or {})
    )
    replica = Replica(server.cube.values) if check_answers else None
    reconfigurations: list[dict] = []  # the server's own re-selections
    divergence = None  # the monitor's after the last profile

    walls: list[float] = []  # timed (query/rollup/range) batch walls, ms
    wall_kinds: list[str] = []  # parallel to walls
    drift_points: list[dict] = []  # {"phase", "at"(index into walls)}
    queries = 0

    for _, op, answers, wall_ms in replay(server, trace, replica, config.workers):
        kind = op["op"]
        if kind == "drift":
            drift_points.append({"phase": op["phase"], "at": len(walls)})
        if not answers:
            continue
        queries += len(answers)
        walls.append(wall_ms)
        wall_kinds.append(kind)
        if adaptation and kind in ("query_batch", "rollup_batch"):
            monitor = server.cost_monitor
            tripped = server.observe_profile(server.query_profile())
            divergence = monitor.divergence
            if tripped:
                reconfigurations.append(
                    {
                        "epoch": server.epoch,
                        "divergence": round(divergence, 4),
                        "storage": int(server.materialized.storage),
                        "expected_cost": server.stats.last_expected_cost,
                    }
                )

    health = server.health()
    latency = health["slo"]["latency_ms"]
    # Headline p99: the dominant batch kind, falling back across kinds.
    headline = 0.0
    for kind in ("view", "rollup", "range"):
        if kind in latency:
            headline = max(headline, float(latency[kind]["p99_ms"]))
    total_wall_s = sum(walls) / 1e3
    lags = _adaptation_lags(walls, drift_points)
    # Assembly batches (view/roll-up) are the walls of the batch
    # executor; range sums never touch it, so they get their own series.
    assembly_walls = [
        wall
        for wall, kind in zip(walls, wall_kinds)
        if kind in ("query_batch", "rollup_batch")
    ]

    report = {
        "config": config.to_dict(),
        "tuning": health["tuning"],
        "trace_ops": len(trace),
        "timed_batches": len(walls),
        "queries": queries,
        "qps": round(queries / total_wall_s, 1) if total_wall_s else 0.0,
        "wall_ms_total": round(sum(walls), 3),
        "batch_ms": {
            "p50": round(_quantile(walls, 0.50), 3),
            "p95": round(_quantile(walls, 0.95), 3),
            "p99": round(_quantile(walls, 0.99), 3),
        },
        "assembly_ms": {
            "count": len(assembly_walls),
            "p50": round(_quantile(assembly_walls, 0.50), 3),
            "p95": round(_quantile(assembly_walls, 0.95), 3),
            "p99": round(_quantile(assembly_walls, 0.99), 3),
        },
        "latency_ms": latency,
        "p99_ms": round(headline, 3),
        "drift": lags,
        "adaptation": {
            "reconfigurations": reconfigurations,
            "final_divergence": (
                round(divergence, 4) if divergence is not None else None
            ),
        },
        "cache_hit_rate": round(server._view_cache.hit_rate, 4),
        "epoch": server.epoch,
        "fingerprint": health.get("fingerprint"),
    }
    if replica is not None:
        report["compared"] = replica.compared
        report["mismatches"] = replica.mismatches
        report["bit_identical"] = not replica.mismatches
    return report


def _adaptation_lags(walls: list[float], drift_points: list[dict]) -> list[dict]:
    """Batches-to-recover after each drift (skips the phase-0 marker)."""
    lags: list[dict] = []
    for point in drift_points:
        at = point["at"]
        if point["phase"] == 0 or at == 0:
            continue
        baseline_walls = walls[max(0, at - LAG_BASELINE_WINDOW) : at]
        if not baseline_walls:
            continue
        baseline = statistics.median(baseline_walls)
        threshold = baseline * LAG_RECOVERY_FACTOR
        lag = None
        for offset, wall in enumerate(walls[at:]):
            if wall <= threshold:
                lag = offset
                break
        lags.append(
            {
                "phase": point["phase"],
                "baseline_ms": round(baseline, 3),
                "lag_batches": lag if lag is not None else len(walls) - at,
                "recovered": lag is not None,
            }
        )
    return lags


#: The gate's cube and trace length (``python -m repro soak --check``).
GATE_CONFIG = SoakConfig(
    sizes=(16, 16, 8), batches=18, phase_batches=6, batch_size=6,
    burst_every=4, burst_cells=16,
)


def run_soak_check(config: SoakConfig = GATE_CONFIG) -> dict:
    """The soak gate: the drifting replay stays bit-identical.

    Runs the full loop — ingest bursts, live cost-model adaptation, and a
    ``reconfigure`` op inserted at every phase boundary past the first
    (a trace this short never trips the cost-model monitor on its own) —
    with a replica checking every answer byte for byte; any divergence,
    or a run that never re-selected, fails the gate.
    """
    trace: list[dict] = []
    for op in drifting_trace(config):
        trace.append(op)
        if op["op"] == "drift" and op["phase"] > 0:
            trace.append({"op": "reconfigure"})
    run = run_soak(config, trace=trace, check_answers=True)
    ok = (
        run["bit_identical"]
        and run["compared"] > 0
        and run["epoch"] >= 1
        and sum(k["count"] for k in run["latency_ms"].values()) > 0
    )
    return {
        "config": config.to_dict(),
        "runs": [
            {
                "ok": ok,
                "compared": run["compared"],
                "mismatches": run["mismatches"],
                "bit_identical": run["bit_identical"],
                # Every reconfigure (trace op or adaptation) bumps the epoch.
                "reconfigurations": run["epoch"],
                "p99_ms": run["p99_ms"],
                "qps": run["qps"],
            }
        ],
        "ok": ok,
    }


def render_soak_report(report: dict) -> str:
    config = report["config"]
    lines = [
        f"soak: sizes={tuple(config['sizes'])} batches={config['batches']} "
        f"seed={config['seed']}",
        f"  {report['queries']} queries over {report['timed_batches']} timed "
        f"batches, {report['wall_ms_total']:.1f} ms wall "
        f"({report['qps']:.0f} qps), cache hit rate "
        f"{report['cache_hit_rate']:.2f}, epoch {report['epoch']}",
        f"  batch wall ms: p50={report['batch_ms']['p50']} "
        f"p95={report['batch_ms']['p95']} p99={report['batch_ms']['p99']}",
        f"  assembly wall ms ({report['assembly_ms']['count']} batches): "
        f"p50={report['assembly_ms']['p50']} "
        f"p95={report['assembly_ms']['p95']} "
        f"p99={report['assembly_ms']['p99']}",
    ]
    for kind, stats in sorted(report["latency_ms"].items()):
        lines.append(
            f"  slo[{kind}]: n={stats['count']} p50={stats['p50_ms']}ms "
            f"p95={stats['p95_ms']}ms p99={stats['p99_ms']}ms"
        )
    for lag in report["drift"]:
        status = "recovered" if lag["recovered"] else "NOT RECOVERED"
        lines.append(
            f"  drift phase {lag['phase']}: lag={lag['lag_batches']} "
            f"batches ({status}, baseline {lag['baseline_ms']}ms)"
        )
    reconfs = report["adaptation"]["reconfigurations"]
    if reconfs:
        lines.append(f"  adaptation: {len(reconfs)} re-selection(s)")
    if "bit_identical" in report:
        lines.append(
            f"  differential: compared={report['compared']} "
            f"mismatches={len(report['mismatches'])} "
            f"bit_identical={report['bit_identical']}"
        )
    return "\n".join(lines)


def render_check_report(report: dict) -> str:
    lines = [
        f"soak gate: sizes={tuple(report['config']['sizes'])} "
        f"batches={report['config']['batches']}"
    ]
    for run in report["runs"]:
        lines.append(
            f"  compared={run['compared']} "
            f"bit_identical={run['bit_identical']} "
            f"reconfigs={run['reconfigurations']} p99={run['p99_ms']}ms "
            f"-> {'ok' if run['ok'] else 'FAIL'}"
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)
