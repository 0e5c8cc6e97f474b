"""The streaming-ingest differential gate (``python -m repro update``).

Replays one :func:`~repro.workloads.traces.flat_trace` (or a
``--trace ops.json`` file) — point ``update``\\ s, bulk ``update_many``
batches, repeated aggregated views (so the result cache genuinely
warms), shared-plan batches, roll-ups, range sums, point cells, and a
mid-run ``reconfigure`` — against one :class:`~repro.server.OLAPServer`
per shard count, every answer byte-compared with the
:class:`~repro.replay.Replica`.  The cube is integer-valued, so delta
patching must be *exactly* the recomputation — the filter bank is linear
with signed integer sums, so any divergence is a bug, not float noise.

Because every shard count is compared with the same replica, the gate
is also the shard-vs-monolith gate: sharded == replica == monolithic.
On top of byte-identity it asserts:

- the linear path never falls back to a coarse invalidation
  (``server_update_cache_cleared_total == 0``) and really does repair
  warm state in place (``server_update_cache_patched_total > 0``);
- the result cache is never wholesale-cleared outside ``reconfigure()``;
- on sharded servers, a single-cell update bumps exactly the owning
  shard's epoch — the other shards keep their storage and warm state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..replay import Replica, replay, seeded_cube
from ..workloads.traces import flat_trace

__all__ = ["UpdateStreamConfig", "render_report", "run_update_differential"]


@dataclass(frozen=True)
class UpdateStreamConfig:
    seed: int = 23
    sizes: tuple[int, ...] = (8, 16, 16)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    workers: int = 2
    operations: int = 60


def _run_one(config: UpdateStreamConfig, shards: int, trace: list[dict]) -> dict:
    from ..server import OLAPServer

    server = OLAPServer(seeded_cube(config.seed, config.sizes), shards=shards)
    replica = Replica(server.cube.values)
    epoch_violations: list[int] = []
    epochs = server.materialized.epochs if shards > 1 else None
    for index, op, _, _ in replay(server, trace, replica, config.workers):
        if epochs is not None:
            after = server.materialized.epochs
            moved = sum(a != b for a, b in zip(epochs, after))
            if op["op"] == "update" and moved != 1:
                epoch_violations.append(index)
            epochs = after

    health = server.health()
    clears = server.metrics.get("view_cache_clears_total")
    run = {
        "shards": shards,
        "compared": replica.compared,
        "mismatches": replica.mismatches,
        "bit_identical": not replica.mismatches,
        "updates": health["updates"],
        "cache_patched": health["updates_cache_patched"],
        "cache_cleared": health["updates_cache_cleared"],
        "cache_clears_total": float(clears.total()) if clears is not None else 0.0,
        "reconfigurations": sum(op["op"] == "reconfigure" for op in trace),
        "epoch_violations": epoch_violations,
        "cache_hit_rate": server._view_cache.hit_rate,
        "shards_health": health.get("shards"),
    }
    run["ok"] = (
        run["bit_identical"]
        and run["compared"] > 0
        and run["cache_cleared"] == 0
        and run["cache_patched"] > 0
        # reconfigure() clears the cache it supersedes; updates never do.
        and run["cache_clears_total"] <= run["reconfigurations"]
        and not epoch_violations
    )
    return run


def run_update_differential(
    config: UpdateStreamConfig | None = None,
    trace: list[dict] | None = None,
) -> dict:
    """Replay the trace per shard count; report divergence and clear leaks."""
    config = config or UpdateStreamConfig()
    if trace is None:
        trace = flat_trace(config.seed, config.sizes, config.operations)
    runs = [_run_one(config, shards, trace) for shards in config.shard_counts]
    return {
        "seed": config.seed,
        "sizes": list(config.sizes),
        "workers": config.workers,
        "trace_ops": len(trace),
        "runs": runs,
        "ok": all(run["ok"] for run in runs),
    }


def render_report(report: dict) -> str:
    lines = [
        f"update-stream differential: sizes={tuple(report['sizes'])} "
        f"seed={report['seed']} trace_ops={report['trace_ops']}"
    ]
    for run in report["runs"]:
        verdict = "BIT-IDENTICAL" if run["bit_identical"] else "DIVERGED"
        lines.append(
            f"  shards={run['shards']}: {run['compared']} answers compared "
            f"-> {verdict}"
            + (f" at {run['mismatches']}" if run["mismatches"] else "")
        )
        lines.append(
            f"    updates={run['updates']:.0f} "
            f"patched={run['cache_patched']:.0f} "
            f"coarse_cleared={run['cache_cleared']:.0f} "
            f"hit_rate={run['cache_hit_rate']:.1%}"
            + (
                f" EPOCH-VIOLATIONS at {run['epoch_violations']}"
                if run["epoch_violations"]
                else ""
            )
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)
