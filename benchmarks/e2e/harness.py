"""Set-up, timed rounds and the traced run of one workload.

Closed loop, one client thread, no sockets.  A round replays the
workload's fixed op section against ``OLAPServer``; a run is a fixed number
of identical rounds and every timing metric is the median over rounds of
the per-round value.  The oracle runs between operations, outside every
timer.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from oracle import Oracle
from tracing import ATTRS, END, NAME, PARENT, START
from workloads import (
    KINDS,
    READ_KINDS,
    Workload,
    cold_read,
    cube_values,
    rewarm_ops,
    settle_ops,
    dim_names,
)

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.durability import DurabilityConfig
from repro.obs import Observability
from repro.server import OLAPServer

perf = time.perf_counter

#: Rounds of the traced run: untraced (for the overhead ratio), traced,
#: and on the telemetry-off twin.
TRACE_ROUNDS = 2
RESTORES = 3

OUT_DIR = Path(__file__).resolve().parent / "out"


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    return float(statistics.median(samples))


def ratio(a: float, b: float) -> float:
    """``a / b``, and 0 for a layer the workload never entered."""
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# Calling the server


def call(server: OLAPServer, names, kind: str, payload):
    if kind == "view":
        return server.view(payload)
    if kind == "query_batch":
        return server.query_batch(payload)
    if kind == "rollup_batch":
        return server.rollup_batch([dict(zip(names, lv)) for lv in payload])
    if kind == "range_sum":
        return server.range_sum(payload)
    return server.update_many(*payload)


@dataclass
class Tally:
    """Attempted / failed operations of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def play(
    server: OLAPServer,
    ops,
    *,
    oracle: Oracle | None = None,
    every: int = 0,
    offset: int = 0,
    lat: dict | None = None,
    tally: Tally | None = None,
    probe: MachineProbe | None = None,
    samples: list | None = None,
) -> None:
    """Replay ``ops``; time each call, keep the oracle in step, check
    every ``every``-th read against it (0 = none), and sample the machine
    probe between calls."""
    names = dim_names(server.cube.shape_id.sizes)
    probe_every = max(1, len(ops) // PROBES_PER_ROUND)
    for i, (kind, payload) in enumerate(ops):
        if probe is not None and i % probe_every == 0:
            samples.append(probe.sample())
        if tally is not None:
            tally.attempted += 1
        try:
            t0 = perf()
            result = call(server, names, kind, payload)
            t1 = perf()
        except Exception as exc:  # noqa: BLE001 - report the failure, keep measuring
            if tally is None:
                raise
            tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        if lat is not None:
            lat[kind].append(t1 - t0)
        if oracle is None:
            continue
        if kind == "update_many":
            oracle.apply(*payload)
        elif every and (i + offset) % every == 0:
            if not oracle.check(kind, payload, result) and tally is not None:
                tally.fail(f"{kind}: answer differs from the oracle")


# ----------------------------------------------------------------------
# Machine probe


#: What one probe takes on a quiet machine of this class, by kind.  They
#: define the unit of the gated timings: milliseconds at the machine speed
#: at which the probe takes this long.
CPU_REF_MS = 0.14
MEM_REF_MS = 2.5
PROBES_PER_ROUND = 40

#: Per-round values that are times (divided by the slowness) and rates
#: (multiplied by it); everything else is a count or a share.
TIMES = (
    "view_p50_ms", "batch_p50_ms", "rollup_p50_ms", "range_p50_ms", "update_p50_ms",
    "read_tail_ms", "update_tail_ms", "round_wall_s", "reconfigure_s", "snapshot_ms",
    "cold_read_ms",
)
RATES = ("ops_per_s", "update_cells_per_s")


class MachineProbe:
    """A fixed piece of benchmark-only work, timed on the load-generating
    thread between operations all through a round.

    The machines this runs on change speed in plateaus of tens of seconds
    to minutes, both CPUs together: interpreter-bound work by up to 1.5x,
    and, independently of it, memory-bound work by 10-25 % (no steal time
    is reported).  A round's timings are reported as measured and divided
    by ``median(samples) / ref_ms``.  The probe resembles the workload:
    300 dict updates and 300 adds of 256-element arrays for the
    interpreter-bound workloads, one 8 MiB copy for the memory-bound one.

    A sample never releases the interpreter lock (numpy keeps it for loops
    of up to 500 elements, ``bytearray`` slice assignment always), allocates
    nothing the collector tracks, and is short against the 5 ms switch
    interval; the median of 40 ignores the few a thread switch does hit.
    So a busy thread or collector pressure added to the program slows the
    operations and not the probe, and cannot hide in the scaling."""

    def __init__(self, memory_bound: bool):
        self.memory_bound = memory_bound
        if memory_bound:
            self._src, self._dst = b"\x01" * (8 << 20), bytearray(8 << 20)
            self.ref_ms = MEM_REF_MS
        else:
            self._arrays = np.ones(1 << 8), np.ones(1 << 8), np.empty(1 << 8)
            self._counts: dict[int, int] = {}
            self.ref_ms = CPU_REF_MS

    def sample(self) -> float:
        if self.memory_bound:
            t0 = perf()
            self._dst[:] = self._src
            return perf() - t0
        (lo, hi, out), counts = self._arrays, self._counts
        counts.clear()
        t0 = perf()
        for i in range(300):
            counts[i & 31] = counts.get(i & 31, 0) + i
            np.add(lo, hi, out=out)
        return perf() - t0

    def slowness(self, samples) -> float:
        """Machine slowness during the samples (1.0 = the reference)."""
        return median(samples) * 1e3 / self.ref_ms


def at_reference(values: dict) -> dict:
    """The per-round ``values`` as read at the reference machine speed."""
    slow = values["slowness"]
    scale = {**dict.fromkeys(TIMES, 1.0 / slow), **dict.fromkeys(RATES, slow)}
    return {key: value * scale.get(key, 1.0) for key, value in values.items()}


def burst(probe: MachineProbe) -> list[float]:
    """Samples taken back to back, around a step that cannot be probed
    from inside."""
    return [probe.sample() for _ in range(8)]


# ----------------------------------------------------------------------
# Set-up


@dataclass
class Ready:
    """A warmed server and the replica that shadows it."""

    server: OLAPServer
    oracle: Oracle
    probe: MachineProbe
    #: Set-up time as measured, and at the reference machine speed.
    raw_seconds: float
    seconds: float
    durability: DurabilityConfig | None


def make_server(workload: Workload, values, durability=None, telemetry=True) -> OLAPServer:
    names = dim_names(values.shape)
    dims = [Dimension(n, list(range(s))) for n, s in zip(names, values.shape)]
    kwargs = dict(workload.server)
    if durability is not None:
        kwargs["durability"] = durability
    if not telemetry:
        kwargs.update(
            observability=Observability(tracing=False), flight=False, alerts=False
        )
    return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)


def set_up(
    workload: Workload, seed: int, ops, scratch: Path, probe: MachineProbe,
    telemetry: bool = True,
) -> Ready:
    """Cube build + server + warm-up trace + ``reconfigure()`` + warm pass."""
    durability = None
    if workload.durable:
        taken = sum(1 for _ in scratch.iterdir())
        durability = DurabilityConfig(scratch / f"durable-{taken}", fsync="interval")
    gc.collect()
    samples: list[float] = []
    t0 = perf()
    values = cube_values(workload, seed)
    server = make_server(workload, values.copy(), durability, telemetry)
    warm = ops[: workload.warm_ops]
    play(server, warm, probe=probe, samples=samples)
    passes = 1
    if workload.reconfigure:
        play(server, settle_ops(workload))
        server.reconfigure()
        play(server, warm, probe=probe, samples=samples)
        passes = 2
    # The probe ran between the warm-up operations, on either side of the
    # one long ``reconfigure()`` call; its own time is not set-up time.
    raw_seconds = perf() - t0 - sum(samples)
    seconds = raw_seconds / probe.slowness(samples)
    oracle = Oracle(values)
    for _ in range(passes):
        for kind, payload in warm:
            if kind == "update_many":
                oracle.apply(*payload)
    return Ready(server, oracle, probe, raw_seconds, seconds, durability)


# ----------------------------------------------------------------------
# Rounds


def run_round(ready: Ready, workload: Workload, ops, index: int, tally: Tally,
              every: int) -> dict:
    """One round; returns the per-round value of every timing metric as
    measured, and the machine slowness probed during the round."""
    server = ready.server
    lat = {k: [] for k in KINDS}
    samples: list[float] = []
    q0, o0 = server.stats.queries, server.stats.operations
    play(server, ops, oracle=ready.oracle, every=every, offset=index, lat=lat,
         tally=tally, probe=ready.probe, samples=samples)
    out = {}
    if workload.durable:
        play(server, settle_ops(workload), tally=tally)
        t0 = perf()
        server.reconfigure()
        out["reconfigure_s"] = perf() - t0
        t0 = perf()
        snapshot = Path(server.snapshot())
        out["snapshot_ms"] = (perf() - t0) * 1e3
        first = {"range_sum": []}
        play(server, [cold_read(workload)], oracle=ready.oracle, every=1, lat=first, tally=tally)
        out["cold_read_ms"] = first["range_sum"][0] * 1e3 if first["range_sum"] else 0.0
        play(server, rewarm_ops(workload), oracle=ready.oracle, every=1, tally=tally,
             probe=ready.probe, samples=samples)
        out["snapshot_bytes"] = sum(
            f.stat().st_size for f in snapshot.rglob("*") if f.is_file()
        )
    wall = sum(sum(v) for v in lat.values())
    reads = [x for k in READ_KINDS for x in lat[k]]
    out.update(
        ops_per_s=sum(len(v) for v in lat.values()) / wall,
        view_p50_ms=median(lat["view"]) * 1e3,
        batch_p50_ms=median(lat["query_batch"]) * 1e3,
        rollup_p50_ms=median(lat["rollup_batch"]) * 1e3,
        range_p50_ms=median(lat["range_sum"]) * 1e3,
        read_tail_ms=percentile(reads, workload.tail_percentile) * 1e3,
        scalar_ops_per_query=(server.stats.operations - o0) / (server.stats.queries - q0),
        round_wall_s=wall,
        slowness=ready.probe.slowness(samples),
    )
    updates = lat["update_many"]
    if updates:
        cells = sum(len(p[0]) for k, p in ops if k == "update_many")
        out.update(
            update_p50_ms=median(updates) * 1e3,
            update_tail_ms=percentile(updates, 90) * 1e3,
            update_cells_per_s=cells / sum(updates),
            update_wall_share=sum(updates) / wall,
        )
    return out


def medians(rounds: list[dict]) -> dict:
    return {key: median([r[key] for r in rounds]) for key in rounds[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def restore_and_check(ready: Ready, workload: Workload, tally: Tally) -> float:
    """Seconds (at the reference speed) of ``OLAPServer.restore()`` from
    the closed server's directory; the restored cube must equal the replica
    byte for byte."""
    samples = burst(ready.probe)
    t0 = perf()
    restored = OLAPServer.restore(ready.durability, **workload.server)
    seconds = perf() - t0
    samples += burst(ready.probe)
    tally.attempted += 1
    try:
        if restored.cube.values.tobytes() != ready.oracle.values.tobytes():
            tally.fail("restored cube differs from the oracle")
        ready.oracle.checked += 1
    finally:
        restored.close()
    return seconds / ready.probe.slowness(samples)


class Scratch:
    """A private directory under ``out/``, removed on exit."""

    def __enter__(self) -> Path:
        self.path = OUT_DIR / f"tmp-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics


#: The end-to-end metrics that are timings: reported at the reference
#: machine speed, and as measured (``raw.<name>``) beside them.
GATED_TIMINGS = (
    "ops_per_s", "view_p50_ms", "batch_p50_ms", "rollup_p50_ms", "range_p50_ms",
    "read_tail_ms",
)


def run_end_to_end(workload: Workload, seed: int, rounds: int, ops):
    """Returns ``(end-to-end metrics, tally, diagnostics)``."""
    tally = Tally()
    probe = MachineProbe(workload.memory_bound)
    with Scratch() as scratch:
        setups, raw_setups = [], []
        for left in reversed(range(workload.setups)):
            ready = set_up(workload, seed, ops, scratch, probe)
            setups.append(ready.seconds)
            raw_setups.append(ready.raw_seconds)
            if left:
                # Drop this server before building the next, so peak RSS
                # is one server's, not two.
                ready.server.close()
                ready = None
        # The fully checked round is not timed: the oracle between every
        # two calls would disturb what the timed rounds measure.
        run_round(ready, workload, ops, 0, tally, workload.verify_first)
        measured = []
        for index in range(1, rounds + 1):
            gc.collect()
            measured.append(run_round(ready, workload, ops, index, tally, workload.verify_every))
        health = ready.server.health()
        ready.server.close()
        if workload.durable:
            restore_and_check(ready, workload, tally)
    raw = medians(measured)
    scaled = medians([at_reference(r) for r in measured])
    metrics = {name: scaled[name] for name in GATED_TIMINGS}
    metrics["scalar_ops_per_query"] = raw["scalar_ops_per_query"]
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    as_measured = {name: raw[name] for name in GATED_TIMINGS}
    as_measured["setup_s"] = median(raw_setups)
    slow = [r["slowness"] for r in measured]
    diagnostics = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "raw": as_measured,
        "setups_s": raw_setups,
        "slowness": raw["slowness"],
        "slowness_spread": (max(slow) - min(slow)) / raw["slowness"],
        "per_round": measured,
        "checked_ops": ready.oracle.checked,
        "mismatches": ready.oracle.mismatches,
        "status": health["status"],
        "errors": tally.errors,
    }
    return metrics, tally, diagnostics


# ----------------------------------------------------------------------
# The traced run: per-layer metrics


def _counters(server: OLAPServer) -> dict[str, float]:
    """The program's own counters the per-layer ratios are taken from."""

    def total(name: str) -> float:
        metric = server.metrics.get(name)
        return float(metric.total()) if metric is not None else 0.0

    pool = server.materialized.pool_stats()
    return {
        "hits": total("view_cache_hits_total"),
        "misses": total("view_cache_misses_total"),
        "evictions": total("view_cache_evictions_total"),
        "patched": total("server_update_cache_patched_total"),
        "pool_hits": pool["hits"],
        "pool_misses": pool["misses"],
    }


def run_traced(workload: Workload, seed: int, ops, trace_path: Path):
    """Returns ``(per-layer metrics, tally, diagnostics)``.

    Order: traced set-up, checked round, untraced rounds, traced rounds
    (+ final op section and restores for a durable workload), then the
    same untraced rounds on a twin server with telemetry off.
    """
    tally = Tally()
    setup_recorder, recorder = tracing.Recorder(), tracing.Recorder()
    probe = MachineProbe(workload.memory_bound)
    with Scratch() as scratch:
        installed = tracing.install(setup_recorder)
        try:
            ready = set_up(workload, seed, ops, scratch, probe)
        finally:
            installed.remove()
        server = ready.server
        run_round(ready, workload, ops, 0, tally, workload.verify_first)
        plain = []
        for i in range(TRACE_ROUNDS):
            gc.collect()
            plain.append(run_round(ready, workload, ops, i + 1, tally, workload.verify_every))

        before = _counters(server)
        installed = tracing.install(recorder)
        restores, wal_bytes_per_cell = [], 0.0
        try:
            traced = []
            for i in range(TRACE_ROUNDS):
                gc.collect()
                traced.append(
                    run_round(ready, workload, ops, TRACE_ROUNDS + i + 1, tally, workload.verify_every)
                )
            moved = {name: value - before[name] for name, value in _counters(server).items()}
            health = server.health()
            tracked = len(server.tracker.population()) if server.tracker.total_accesses else 0
            expected_cost = server.stats.last_expected_cost
            traced_ops = TRACE_ROUNDS * (len(ops) + workload.durable)
            if workload.durable:
                # Final op section: its updates sit in the WAL past the
                # last snapshot, so restore has a suffix to replay.
                wal_before = health["durability"]["wal"]["bytes"]
                play(server, ops, oracle=ready.oracle, every=workload.verify_every, tally=tally)
                wal_after = server.health()["durability"]["wal"]["bytes"]
                cells = sum(len(p[0]) for k, p in ops if k == "update_many")
                wal_bytes_per_cell = ratio(wal_after - wal_before, cells)
                traced_ops += len(ops)
            server.close()
            if workload.durable:
                restores = [restore_and_check(ready, workload, tally) for _ in range(RESTORES)]
        finally:
            installed.remove()
        leftovers = _still_wrapped()

        twin = set_up(workload, seed, ops, scratch, probe, telemetry=False)
        twin_tally = Tally()
        run_round(twin, workload, ops, 0, twin_tally, 0)
        bare = [run_round(twin, workload, ops, i + 1, twin_tally, 0) for i in range(TRACE_ROUNDS)]
        twin.server.close()
        tally.failed += twin_tally.failed
        tally.attempted += twin_tally.attempted

    summary = tracing.summarize(recorder.spans)
    plain_mid, traced_mid, bare_mid = (
        medians([at_reference(r) for r in rounds]) for rounds in (plain, traced, bare)
    )
    slow = [r["slowness"] for r in plain + traced + bare]
    metrics = layer_metrics(workload, summary, recorder.spans, setup_recorder.spans, traced_ops)
    bursts = summary.get("server.update_many", {}).get("count", 0)
    metrics.update(
        {
            "adaptive.tracked_views": tracked,
            "obs.overhead_ratio": ratio(plain_mid["round_wall_s"], bare_mid["round_wall_s"]),
            "cache.hit_ratio": ratio(moved["hits"], moved["hits"] + moved["misses"]),
            "cache.evictions_per_kop": ratio(moved["evictions"] * 1e3, traced_ops),
            "cache.patched_per_burst": ratio(moved["patched"], bursts),
            "kernels.pool_hit_ratio": ratio(
                moved["pool_hits"], moved["pool_hits"] + moved["pool_misses"]
            ),
            "select.graph_nodes": server.cube.shape_id.num_view_elements(),
            "select.stored_elements": health["stored_elements"],
            "select.expected_cost": expected_cost if expected_cost == expected_cost else 0.0,
            "wal.bytes_per_cell": wal_bytes_per_cell,
            "snapshot.bytes": plain_mid.get("snapshot_bytes", 0.0),
            "adapt.reconfigure_s": plain_mid.get("reconfigure_s", 0.0),
            "adapt.snapshot_ms": plain_mid.get("snapshot_ms", 0.0),
            "adapt.cold_read_ms": plain_mid.get("cold_read_ms", 0.0),
            "adapt.restore_s": median(restores) if restores else 0.0,
            "adapt.update_p50_ms": plain_mid.get("update_p50_ms", 0.0),
            "adapt.update_tail_ms": plain_mid.get("update_tail_ms", 0.0),
            "adapt.update_cells_per_s": plain_mid.get("update_cells_per_s", 0.0),
            "adapt.update_wall_share": plain_mid.get("update_wall_share", 0.0),
            "machine.calib_ms": median(slow) * probe.ref_ms,
            "machine.calib_spread": (max(slow) - min(slow)) / median(slow),
            "trace.overhead_ratio": ratio(traced_mid["round_wall_s"], plain_mid["round_wall_s"]),
            "trace.spans": len(setup_recorder.spans) + len(recorder.spans),
            "trace.dropped": setup_recorder.dropped + recorder.dropped,
            "verify.checked_ops": ready.oracle.checked,
            "verify.mismatches": ready.oracle.mismatches,
        }
    )
    if leftovers:
        tally.fail(f"wrappers still installed after the traced run: {leftovers[:3]}")
    write_trace(trace_path, workload, seed, setup_recorder, recorder, summary)
    diagnostics = {
        "warnings": recorder.warnings,
        "errors": tally.errors,
        "self_time_share": self_time_share(summary),
        "plain_round_wall_s": plain_mid["round_wall_s"],
    }
    return metrics, tally, diagnostics


def _still_wrapped() -> list[str]:
    """Layer points whose current attribute is one of our wrappers."""
    found = []
    for point in tracing.POINTS:
        try:
            owner = importlib.import_module(point.module)
            for part in point.target.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            continue
        if getattr(owner, "__wrapped__", None) is not None:
            found.append(point.span)
    return found


def self_time_share(summary: dict) -> dict:
    """Each layer's self time as a share of the server spans' total."""
    total = sum(row["total_s"] for name, row in summary.items() if name.startswith("server."))
    layers: dict[str, float] = {}
    for name, row in summary.items():
        layer = tracing.layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return {layer: ratio(own, total) for layer, own in sorted(layers.items())}


def layer_metrics(workload, summary, spans, setup_spans, traced_ops) -> dict:
    """Per-layer metrics that come from the spans alone (``spans``: the
    traced rounds, ``setup_spans``: the traced set-up)."""

    def rows(*prefixes):
        return [row for name, row in summary.items() if name.startswith(prefixes)]

    def count(*prefixes):
        return sum(row["count"] for row in rows(*prefixes))

    def total(*prefixes):
        return sum(row["total_s"] for row in rows(*prefixes))

    def own(*prefixes):
        return sum(row["self_s"] for row in rows(*prefixes))

    def attr_sum(name: str, key: str):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])

    sharded = workload.server.get("shards", 1) > 1
    batches = count("shard.assemble_batch" if sharded else "materialize.assemble_batch")
    bursts = count("server.update_many")
    compute = ("kernels.", "operators.")
    # Kernels nest (a fused kernel may call an operator) and run on pool
    # threads side by side: busy time is the union of their intervals.
    busy = tracing.union_length(
        (s[START], s[END]) for s in spans if s[NAME].startswith(compute)
    )
    cells = sum(
        s[ATTRS]["cells"] for s in spans
        if s[NAME].startswith(compute) and s[ATTRS] and not _parent_is(spans, s, compute)
    )
    nodes = attr_sum("exec.execute_plan", "nodes")
    executes = count("exec.execute_plan")
    set_apply = "shard.apply_updates" if sharded else "materialize.apply_updates"
    select = summary.get("select.basis") or tracing.summarize(setup_spans).get("select.basis")
    replayed = attr_sum("wal.replay", "records")
    return {
        "server.self_us_per_op": ratio(own("server.") * 1e6, traced_ops),
        "server.calls": count("server."),
        "adaptive.record_us_per_call": ratio(total("adaptive.record") * 1e6, count("adaptive.record")),
        "element.resolve_us_per_request": ratio(total("element.") * 1e6, count("element.")),
        "cache.get_us_per_call": ratio(total("cache.get") * 1e6, count("cache.get")),
        "cache.patch_us_per_entry": ratio(
            total("cache.patch") * 1e6, attr_sum("cache.patch", "patched")
        ),
        "materialize.assemble_self_us_per_call": ratio(
            own("materialize.assemble", "shard.assemble") * 1e6,
            count("materialize.assemble", "shard.assemble"),
        ),
        "materialize.plan_reuse_ratio": ratio(executes - count("exec.plan_batch"), executes),
        "materialize.apply_updates_ms_per_burst": ratio(total(set_apply) * 1e3, bursts),
        "exec.plan_ms_per_batch": ratio(total("exec.plan_batch") * 1e3, batches),
        "exec.execute_ms_per_batch": ratio(total("exec.execute_plan") * 1e3, batches),
        "exec.nodes_per_batch": ratio(nodes, batches),
        "exec.planned_cost_per_batch": ratio(attr_sum("exec.execute_plan", "planned_cost"), batches),
        "exec.dispatch_us_per_node": ratio(own("exec.execute_plan") * 1e6, nodes),
        "kernels.busy_ms_per_batch": ratio(busy * 1e3, batches),
        "kernels.mcells_per_s": ratio(cells / 1e6, busy),
        "kernels.calls_per_batch": ratio(count(*compute), batches),
        "kernels.wall_share": ratio(busy, total("server.")),
        "shard.gather_self_ms_per_batch": ratio(own("shard.assemble_batch") * 1e3, batches),
        "shard.straggler_ratio": straggler_ratio(spans),
        "range.sum_us_per_call": ratio(total("range.range_sum") * 1e6, count("range.range_sum")),
        "range.cells_read_per_call": ratio(
            attr_sum("range.range_sum", "cells_read"), count("range.range_sum")
        ),
        "range.apply_updates_ms_per_burst": ratio(total("range.apply_updates") * 1e3, bursts),
        "range.cold_first_ms": cold_first_ms(spans) or cold_first_ms(setup_spans),
        "delta.patch_us_per_call": ratio(total("delta.patch_array") * 1e6, count("delta.patch_array")),
        "delta.calls_per_burst": ratio(count("delta.patch_array"), bursts),
        "select.basis_s": ratio(select["total_s"], select["count"]) if select else 0.0,
        "wal.append_us_per_call": ratio(total("wal.append") * 1e6, count("wal.append")),
        "wal.replay_records_per_s": ratio(replayed, total("wal.replay")),
        "snapshot.write_ms": ratio(total("snapshot.write") * 1e3, count("snapshot.write")),
        "snapshot.load_ms": ratio(total("snapshot.load") * 1e3, count("snapshot.load")),
    }


def _parent_is(spans, span, prefixes) -> bool:
    parent = span[PARENT]
    return parent >= 0 and spans[parent][NAME].startswith(prefixes)


def straggler_ratio(spans) -> float:
    """Mean over scatters of slowest shard leg / mean leg (1.0 = even)."""
    legs: dict[int, list[float]] = {}
    for s in spans:
        if s[NAME] == "exec.execute_plan" and s[PARENT] >= 0:
            if spans[s[PARENT]][NAME] == "shard.assemble_batch":
                legs.setdefault(s[PARENT], []).append(s[END] - s[START])
    ratios = [max(v) / (sum(v) / len(v)) for v in legs.values() if len(v) > 1]
    return sum(ratios) / len(ratios) if ratios else 0.0


def cold_first_ms(spans) -> float:
    """Mean duration of the first range sum after each reconfigure."""
    firsts, armed = [], False
    for s in spans:
        if s[NAME] == "server.reconfigure":
            armed = True
        elif armed and s[NAME] == "range.range_sum":
            firsts.append((s[END] - s[START]) * 1e3)
            armed = False
    return sum(firsts) / len(firsts) if firsts else 0.0


def write_trace(path: Path, workload, seed, setup_recorder, recorder, summary) -> None:
    """``parent`` indexes into the span list the span is in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "columns": ["name", "start_s", "end_s", "parent", "trace_id", "attrs"],
                "dropped": setup_recorder.dropped + recorder.dropped,
                "warnings": recorder.warnings,
                "summary": summary,
                "setup_spans": setup_recorder.spans,
                "spans": recorder.spans,
            },
            fh,
        )
