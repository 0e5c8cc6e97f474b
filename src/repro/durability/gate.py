"""The kill-and-recover differential gate (``python -m repro recover``).

The durability claim is behavioural, so the gate tests the behaviour, not
the bytes: a sacrificial child process drives a seeded interleaved
update/query trace (the same generator the update gate replays —
:func:`repro.workloads.traces.flat_trace`, through
:func:`repro.replay.replay`) against a durable
:class:`~repro.server.OLAPServer`, taking periodic snapshots, while a
seeded ``"kill"`` fault rule ``SIGKILL``\\ s it at a chosen invocation of
``wal.append`` (mid-record, after the first half reached the OS — a
genuinely torn tail) or ``snapshot.write`` (between snapshot files — a
half-written staging directory).  The parent then restores from the
survivor directory and checks, per scenario:

- **Zero lost acknowledged updates.**  The child appends the WAL sequence
  of every *returned* update to a fsynced ack log; the restored server's
  last applied sequence must reach the highest acknowledged one.
- **Bounded unacknowledged tail.**  At most one batch beyond the last ack
  may replay — the single batch that was in flight when the kill landed.
- **Byte-identical answers.**  A :class:`~repro.replay.Replica` is
  rebuilt by applying exactly the restored prefix of the deterministic
  mutation sequence to the base cube; the shared quiescent sweep
  (:func:`repro.replay.sweep`: the restored cube, aggregated views, a
  roll-up, and range sums) must match byte for byte (the cube is
  integer-valued, so equality is exact, not approximate).

The matrix crosses shard layouts (1/2/4 by default) with seeded kill
points on both sites plus a clean-shutdown control, and per layout one
scenario also restores onto a *different* shard count — recovery is not
allowed to depend on resurrecting the exact process topology that died.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from shutil import rmtree

from ..replay import MUTATIONS, Replica, replay, seeded_cube, sweep
from ..workloads.traces import flat_trace
from . import DurabilityConfig, latest_snapshot

__all__ = ["RecoveryGateConfig", "run_recovery_gate", "render_report"]


@dataclass(frozen=True)
class RecoveryGateConfig:
    seed: int = 31
    #: Power-of-two extents (the filter-bank domain requirement).
    sizes: tuple[int, ...] = (8, 8, 8)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    operations: int = 48
    fsync: str = "interval"
    workers: int = 2
    #: Mutations between the child's explicit snapshots.
    snapshot_every: int = 6
    #: Small segments so the trace genuinely rotates and prunes.
    segment_bytes: int = 2048
    #: Seeded kill points per layout, by site.
    wal_kills: int = 5
    snapshot_kills: int = 2
    include_clean: bool = True
    cross_restore: bool = True
    timeout_s: float = 90.0

    def __post_init__(self):
        for count in self.shard_counts:
            if count < 1 or count & (count - 1):
                raise ValueError(f"shard count {count} is not a power of two")


def _trace(config: RecoveryGateConfig) -> list[dict]:
    """The trace both sides rebuild from the gate's seed."""
    return flat_trace(config.seed, config.sizes, config.operations)


def _child_main(payload: dict) -> None:
    """Sacrificial child: drive the trace durably until killed (or done).

    Module-level so the ``spawn`` start method can import it by name.
    The ack protocol is the ground truth the parent judges against: the
    applied WAL sequence is appended to the ack log — flushed *and*
    fsynced — only after the update call returned, so every line is an
    acknowledgement the recovered server is obliged to honour.
    """
    from ..resilience.faults import FaultInjector, FaultRule
    from ..server import OLAPServer

    config = RecoveryGateConfig(**payload["config"])
    server = OLAPServer(
        seeded_cube(config.seed, config.sizes),
        shards=payload["shards"],
        durability=DurabilityConfig(
            payload["directory"],
            fsync=config.fsync,
            segment_bytes=config.segment_bytes,
        ),
    )
    rules = []
    if payload["kill_site"]:
        rules.append(
            FaultRule(
                site=payload["kill_site"],
                kind="kill",
                start_after=payload["kill_after"],
                max_fires=1,
            )
        )
    injector = FaultInjector(rules, seed=config.seed)
    mutations = 0
    with open(payload["acks"], "a") as acks, injector.activate():
        for _, op, _, _ in replay(server, _trace(config), workers=config.workers):
            if op["op"] in MUTATIONS:
                acks.write(f"{server._lineage.applied_seq}\n")
                acks.flush()
                os.fsync(acks.fileno())
                mutations += 1
                if mutations % config.snapshot_every == 0:
                    server.snapshot()
    server.close()


def _read_last_ack(acks: Path) -> int:
    if not acks.is_file():
        return 0
    last = 0
    for line in acks.read_text().splitlines():
        line = line.strip()
        if line:
            last = int(line)
    return last


def _verify_restore(
    directory: Path,
    restore_shards: int,
    max_acked: int,
    mutation_ops: list[dict],
    config: RecoveryGateConfig,
) -> dict:
    """Restore in-process and differential-check against the trace prefix."""
    from ..server import OLAPServer

    server = OLAPServer.restore(directory, shards=restore_shards)
    try:
        applied = server._lineage.applied_seq
        # The reference: base cube + exactly the restored mutation prefix.
        replica = Replica(seeded_cube(config.seed, config.sizes).values)
        replica.apply(mutation_ops[:applied])
        sweep(server, replica, applied)

        lost = max(0, max_acked - applied)
        tail = applied - max_acked
        return {
            "restore_shards": restore_shards,
            "applied": applied,
            "replayed": server._lineage.replayed_records,
            "acked": max_acked,
            "lost_acked": lost,
            "unacked_tail": tail,
            "compared": replica.compared,
            "mismatches": replica.mismatches,
            "ok": (
                lost == 0
                and tail <= 1
                and replica.compared > 0
                and not replica.mismatches
            ),
        }
    finally:
        server.close()


def _scenarios(config: RecoveryGateConfig, mutation_count: int) -> list[dict]:
    """The seeded kill matrix: deterministic in the gate seed."""
    out = []
    counts = list(config.shard_counts)
    for shards in counts:
        cross = counts[(counts.index(shards) + 1) % len(counts)]
        rng = Random(f"{config.seed}:{shards}")
        # wal.append is visited once per mutation; offsets stay inside
        # the trace's actual mutation count so every kill really fires.
        wal_pool = range(0, max(config.wal_kills, min(12, mutation_count)))
        wal_offsets = rng.sample(wal_pool, config.wal_kills)
        # snapshot.write fires per file per snapshot; the first in-trace
        # snapshot provides at least cube+set+manifest invocations.
        snap_offsets = rng.sample(range(0, 3), config.snapshot_kills)
        for i, offset in enumerate(sorted(wal_offsets)):
            out.append(
                {
                    "shards": shards,
                    "kill_site": "wal.append",
                    "kill_after": offset,
                    "restore_shards": (
                        [shards, cross]
                        if config.cross_restore and i == 0 and cross != shards
                        else [shards]
                    ),
                }
            )
        for offset in sorted(snap_offsets):
            out.append(
                {
                    "shards": shards,
                    "kill_site": "snapshot.write",
                    "kill_after": offset,
                    "restore_shards": [shards],
                }
            )
        if config.include_clean:
            out.append(
                {
                    "shards": shards,
                    "kill_site": None,
                    "kill_after": 0,
                    "restore_shards": [shards],
                }
            )
    return out


def run_recovery_gate(
    config: RecoveryGateConfig | None = None,
    workdir: str | Path | None = None,
) -> dict:
    """Run the full kill/restore matrix; returns a JSON-friendly report."""
    config = config or RecoveryGateConfig()
    owned = workdir is None
    root = Path(workdir) if workdir else Path(
        tempfile.mkdtemp(prefix="repro-recover-")
    )
    root.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    try:
        trace = _trace(config)
        # Mutation *k* is WAL sequence *k + 1*.
        mutation_ops = [op for op in trace if op["op"] in MUTATIONS]
        scenarios = []
        kill_points = 0
        ok = True
        for index, scenario in enumerate(
            _scenarios(config, len(mutation_ops))
        ):
            directory = root / f"scn-{index:03d}"
            acks = root / f"scn-{index:03d}.acks"
            child = ctx.Process(
                target=_child_main,
                args=(
                    {
                        "config": asdict(config),
                        "shards": scenario["shards"],
                        "directory": str(directory),
                        "acks": str(acks),
                        "kill_site": scenario["kill_site"],
                        "kill_after": scenario["kill_after"],
                    },
                ),
            )
            child.start()
            child.join(config.timeout_s)
            timed_out = child.is_alive()
            if timed_out:
                child.kill()
                child.join()
            exitcode = child.exitcode
            killed = exitcode == -signal.SIGKILL
            max_acked = _read_last_ack(acks)
            # A child that died before its first snapshot (a crash while
            # starting up) left nothing to restore: the scenario fails on
            # its exit code alone.
            snapshot = latest_snapshot(DurabilityConfig(directory).snapshot_dir)
            restores = [
                _verify_restore(
                    directory, target, max_acked, mutation_ops, config
                )
                for target in scenario["restore_shards"]
                if snapshot is not None
            ]
            expected_exit = (
                killed if scenario["kill_site"] else exitcode == 0
            )
            scenario_ok = (
                not timed_out
                and expected_exit
                and bool(restores)
                and all(r["ok"] for r in restores)
            )
            if scenario["kill_site"] and killed:
                kill_points += 1
            ok = ok and scenario_ok
            scenarios.append(
                {
                    "shards": scenario["shards"],
                    "kill_site": scenario["kill_site"],
                    "kill_after": scenario["kill_after"],
                    "exitcode": exitcode,
                    "killed": killed,
                    "timed_out": timed_out,
                    "acked": max_acked,
                    "restores": restores,
                    "ok": scenario_ok,
                }
            )
        return {
            "seed": config.seed,
            "sizes": list(config.sizes),
            "fsync": config.fsync,
            "trace_ops": len(trace),
            "mutations": len(mutation_ops),
            "scenarios": scenarios,
            "kill_points": kill_points,
            "ok": ok,
        }
    finally:
        if owned:
            rmtree(root, ignore_errors=True)


def render_report(report: dict) -> str:
    lines = [
        f"kill-and-recover gate: seed={report['seed']} "
        f"sizes={tuple(report['sizes'])} fsync={report['fsync']} "
        f"trace_ops={report['trace_ops']} "
        f"({report['mutations']} mutations)"
    ]
    for scn in report["scenarios"]:
        site = scn["kill_site"] or "clean-shutdown"
        death = (
            "SIGKILL"
            if scn["killed"]
            else ("timeout" if scn["timed_out"] else f"exit {scn['exitcode']}")
        )
        lines.append(
            f"  shards={scn['shards']} {site}@{scn['kill_after']}: {death}, "
            f"acked seq {scn['acked']}"
            + ("" if scn["restores"] else ", no snapshot to restore -> FAILED")
        )
        for r in scn["restores"]:
            verdict = "OK" if r["ok"] else "FAILED"
            lines.append(
                f"    restore shards={r['restore_shards']}: applied "
                f"{r['applied']} (replayed {r['replayed']}), lost_acked="
                f"{r['lost_acked']} tail={r['unacked_tail']}, "
                f"{r['compared']} answers compared -> {verdict}"
                + (f" at {r['mismatches']}" if r["mismatches"] else "")
            )
    lines.append(
        f"{report['kill_points']} SIGKILL points exercised; "
        + ("PASS" if report["ok"] else "FAIL")
    )
    return "\n".join(lines)
