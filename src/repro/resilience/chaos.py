"""Seeded chaos replay: prove queries survive faults bit-identically.

The acceptance harness for the resilience layer.  It replays one seeded
:func:`~repro.workloads.traces.flat_trace` over an integer-valued cube
with a seeded :class:`~repro.resilience.faults.FaultInjector` active —
transient errors at the executor's compute nodes and the assembly entry
points, injected latency, and one post-seal corruption of a stored
element array — and compares every answer byte-for-byte with the
fault-free ndarray :class:`~repro.replay.Replica`.  Because the cube
holds integer values (exact in float64) and quarantine re-routes through
the paper's perfect-reconstruction algebra, the faulted server must
produce the *identical* bytes for every view, roll-up, batch, and range
sum: retries absorb the transient faults, first-use verification
quarantines the corrupted element, and degradation falls back to the
base cube when the surviving set is incomplete.

A separate **deadline probe** checks the timeout path: a query with a
10 ms deadline against a 50 ms injected stall must raise
:class:`~repro.errors.QueryTimeout` and release its admission slot (a
follow-up query on the same one-slot server must be admitted).

``python -m repro chaos [--seed N] [--json] [--output report.json]``
drives this and exits non-zero unless survival is 100%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AdmissionRejected, QueryTimeout
from ..replay import Replica, replay, seeded_cube
from .faults import FaultInjector, FaultRule


def _server_cls():
    # Imported lazily: repro.server (and repro.cube / repro.core below it)
    # imports this package for its deadline and fault plumbing, so a
    # module-level import would be circular.
    from ..server import OLAPServer

    return OLAPServer

__all__ = ["ChaosConfig", "run_chaos", "render_report"]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos replay (all defaults are the CI smoke gate)."""

    seed: int = 7
    queries: int = 60
    sizes: tuple[int, ...] = (8, 8, 8)
    #: Probability of a transient error per executor node / assembly call.
    fault_probability: float = 0.05
    #: Injected stall per latency fire (kept small: the suite runs it).
    latency_ms: float = 0.5
    latency_probability: float = 0.1
    #: Retry budget of the chaos server (transient faults only).
    max_retries: int = 3
    #: Deadline and stall used by the timeout probe.
    probe_deadline_ms: float = 10.0
    probe_stall_ms: float = 50.0
    #: Shard count of the chaos server (the replica is one ndarray, so
    #: the replay also gates the scatter-gather merge under faults).
    shards: int = 1


def _chaos_rules(config: ChaosConfig) -> list[FaultRule]:
    return [
        FaultRule(
            site="exec.compute_node",
            kind="error",
            probability=config.fault_probability,
        ),
        FaultRule(
            site="materialize.assemble",
            kind="error",
            probability=config.fault_probability,
        ),
        FaultRule(
            site="materialize.assemble",
            kind="latency",
            probability=config.latency_probability,
            latency_ms=config.latency_ms,
        ),
        # One post-seal corruption of the first store made while the
        # injector is active — i.e. the first element migrated by the first
        # reconfigure (the constructor's root copy happens before
        # activation).  First-use verification must quarantine it.
        FaultRule(
            site="materialize.store",
            kind="corrupt",
            probability=1.0,
            max_fires=1,
        ),
    ]


def _deadline_probe(config: ChaosConfig) -> dict:
    """A 10 ms deadline against a 50 ms stall: timeout + slot release."""
    server = _server_cls()(
        seeded_cube(config.seed, config.sizes), max_in_flight=1, max_retries=0
    )
    injector = FaultInjector(
        [
            FaultRule(
                site="materialize.assemble",
                kind="latency",
                probability=1.0,
                latency_ms=config.probe_stall_ms,
            )
        ],
        seed=config.seed,
    )
    raised = False
    with injector.activate():
        try:
            server.view(["d0"], deadline_ms=config.probe_deadline_ms)
        except QueryTimeout:
            raised = True
    slot_freed = True
    try:
        server.view(["d0"])
    except AdmissionRejected:
        slot_freed = False
    return {
        "deadline_ms": config.probe_deadline_ms,
        "stall_ms": config.probe_stall_ms,
        "timeout_raised": raised,
        "slot_freed": slot_freed,
        "timeouts_counted": server.metrics.counter(
            "server_timeouts_total"
        ).total(),
    }


def run_chaos(config: ChaosConfig | None = None) -> dict:
    """Replay the trace under faults against the replica; report survival."""
    # Imported lazily, like the server: repro.workloads sits above repro.core.
    from ..workloads.traces import flat_trace

    config = config if config is not None else ChaosConfig()
    ops = flat_trace(config.seed, config.sizes, config.queries)
    chaos_server = _server_cls()(
        seeded_cube(config.seed, config.sizes),
        max_in_flight=8,
        max_retries=config.max_retries,
        shards=config.shards,
    )
    replica = Replica(chaos_server.cube.values)
    injector = FaultInjector(_chaos_rules(config), seed=config.seed)
    uncaught: str | None = None
    answered = 0
    with injector.activate():
        try:
            for _ in replay(chaos_server, ops, replica):
                answered += 1
        except Exception as exc:  # the gate: nothing may escape
            uncaught = f"{type(exc).__name__}: {exc}"

    mismatches = replica.mismatches
    survived = answered - len(set(mismatches)) if uncaught is None else 0
    probe = _deadline_probe(config)
    integrity_failures = chaos_server.metrics.counter(
        "integrity_failures_total"
    ).total()
    ok = (
        uncaught is None
        and not mismatches
        and answered == len(ops)
        and probe["timeout_raised"]
        and probe["slot_freed"]
        and integrity_failures > 0
    )
    return {
        "ok": ok,
        "seed": config.seed,
        "operations": len(ops),
        "answered": answered,
        "compared": replica.compared,
        "mismatches": mismatches,
        "survival_rate": survived / len(ops) if ops else 1.0,
        "uncaught_exception": uncaught,
        "faults_injected": injector.summary(),
        "integrity_failures": integrity_failures,
        "retries": chaos_server.metrics.counter(
            "server_retries_total"
        ).total(),
        "degraded_serves": chaos_server.metrics.counter(
            "server_degraded_total"
        ).total(),
        "deadline_probe": probe,
        "health": chaos_server.health(),
    }


def render_report(report: dict) -> str:
    """Human-readable summary of :func:`run_chaos` output."""
    probe = report["deadline_probe"]
    lines = [
        f"chaos replay (seed {report['seed']}): "
        f"{report['answered']}/{report['operations']} operations answered, "
        f"survival {report['survival_rate']:.1%}",
        f"faults injected: {report['faults_injected']}",
        f"retries: {report['retries']:.0f}, "
        f"degraded serves: {report['degraded_serves']:.0f}, "
        f"elements quarantined: {report['integrity_failures']:.0f}",
        f"deadline probe ({probe['deadline_ms']:.0f} ms vs "
        f"{probe['stall_ms']:.0f} ms stall): "
        f"timeout_raised={probe['timeout_raised']} "
        f"slot_freed={probe['slot_freed']}",
        f"server health: {report['health']['status']}",
        "RESULT: " + ("SURVIVED" if report["ok"] else "FAILED"),
    ]
    if report["uncaught_exception"]:
        lines.insert(1, f"uncaught exception: {report['uncaught_exception']}")
    if report["mismatches"]:
        lines.insert(1, f"mismatched answers at ops {report['mismatches']}")
    return "\n".join(lines)
