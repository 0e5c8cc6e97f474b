"""The streaming-ingest differential gate (``python -m repro update``).

Replays one seeded trace of interleaved mutations and queries — point
``update``\\ s, bulk ``update_many`` batches, repeated aggregated views
(so the result cache genuinely warms), shared-plan batches, roll-ups,
range sums, and a mid-run ``reconfigure()`` — against
:class:`~repro.server.OLAPServer` instances (monolithic and sharded),
while maintaining a plain ndarray replica of the cube on the side.

Every answer the server gives is compared **byte for byte** against a
recompute-from-scratch on the replica (:func:`~repro.core.materialize.
compute_element` / :func:`~repro.core.range_query.range_sum_direct`).
The cube is integer-valued, so delta patching must be *exactly* the
recomputation — the filter bank is linear with signed integer sums, so
any divergence is a bug, not float noise.  On top of byte-identity the
gate asserts the point of this PR:

- the linear path never falls back to a coarse invalidation
  (``server_update_cache_cleared_total == 0``) and really does repair
  warm state in place (``server_update_cache_patched_total > 0``);
- the result cache is never wholesale-cleared outside ``reconfigure()``;
- on sharded servers, a single-cell update bumps exactly the owning
  shard's epoch — the other shards keep their storage and warm state.

The CI update-gate job runs this gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core.materialize import compute_element
from .core.range_query import range_sum_direct
from .cube.datacube import DataCube
from .cube.dimensions import Dimension
from .cube.hierarchy import rollup_element

if TYPE_CHECKING:  # pragma: no cover - the import is lazy at runtime
    from .server import OLAPServer

__all__ = [
    "UpdateStreamConfig",
    "generate_trace",
    "load_trace",
    "save_trace",
    "run_update_differential",
    "render_report",
]


@dataclass(frozen=True)
class UpdateStreamConfig:
    seed: int = 23
    sizes: tuple[int, ...] = (8, 16, 16)
    shard_counts: tuple[int, ...] = (1, 2)
    workers: int = 2
    operations: int = 60
    bulk_max: int = 6


@dataclass
class _Tally:
    compared: int = 0
    mismatches: list = field(default_factory=list)


def generate_trace(config: UpdateStreamConfig) -> list[dict]:
    """A seeded interleaving of mutations and (repeating) queries.

    Queries are drawn from a small working set so the same views recur and
    the result cache warms up — the regime where patch-vs-clear matters.
    The mix is roughly half queries, a third mutations (point and bulk),
    plus ranges and one mid-trace reconfiguration.
    """
    rng = np.random.default_rng(config.seed)
    names = [f"d{i}" for i in range(len(config.sizes))]
    view_pool = [[], [names[0]], [names[-1]], names[:2], list(names)]
    rollup_pool = [{names[0]: 1}, {names[-1]: 2}, {n: 1 for n in names[:2]}]

    def cell() -> list[int]:
        return [int(rng.integers(0, n)) for n in config.sizes]

    trace: list[dict] = []
    for step in range(config.operations):
        if step == config.operations // 2:
            trace.append({"op": "reconfigure"})
        roll = rng.random()
        if roll < 0.30:
            trace.append(
                {"op": "view", "dims": view_pool[int(rng.integers(len(view_pool)))]}
            )
        elif roll < 0.40:
            k = int(rng.integers(2, len(view_pool) + 1))
            picks = rng.choice(len(view_pool), size=k, replace=True)
            trace.append(
                {"op": "query_batch", "requests": [view_pool[i] for i in picks]}
            )
        elif roll < 0.50:
            trace.append(
                {
                    "op": "rollup",
                    "levels": rollup_pool[int(rng.integers(len(rollup_pool)))],
                }
            )
        elif roll < 0.62:
            trace.append(
                {
                    "op": "range",
                    "ranges": [
                        sorted(int(v) for v in rng.integers(0, n + 1, size=2))
                        for n in config.sizes
                    ],
                }
            )
        elif roll < 0.82:
            trace.append(
                {
                    "op": "update",
                    "coords": cell(),
                    "delta": int(rng.integers(-9, 10)),
                }
            )
        else:
            count = int(rng.integers(2, config.bulk_max + 1))
            trace.append(
                {
                    "op": "update_many",
                    "coords": [cell() for _ in range(count)],
                    "deltas": [int(v) for v in rng.integers(-9, 10, size=count)],
                }
            )
    return trace


def save_trace(trace: list[dict], path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace, indent=2) + "\n")


def load_trace(path: str | Path) -> list[dict]:
    trace = json.loads(Path(path).read_text())
    if not isinstance(trace, list):
        raise ValueError(f"trace file {path} must hold a JSON list of ops")
    return trace


def _build_server(config: UpdateStreamConfig, **kwargs) -> "OLAPServer":
    # Imported lazily: repro.server imports repro.shard for storage.
    from .server import OLAPServer

    rng = np.random.default_rng(config.seed)
    values = rng.integers(0, 100, size=config.sizes).astype(np.float64)
    dims = [
        Dimension(f"d{i}", list(range(n))) for i, n in enumerate(config.sizes)
    ]
    return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)


def _replay(
    server: "OLAPServer",
    reference: np.ndarray,
    trace: list[dict],
    config: UpdateStreamConfig,
) -> dict:
    """Drive one server through the trace, checking every answer.

    ``reference`` is mutated alongside the server's cube; each query is
    answered from scratch off the replica and compared byte for byte.
    """
    names = [f"d{i}" for i in range(len(config.sizes))]
    shape = server.shape
    tally = _Tally()
    epoch_violations: list[int] = []

    def element_for(dims: list[str]):
        aggregated = [i for i, name in enumerate(names) if name not in set(dims)]
        return shape.aggregated_view(aggregated)

    def compare(i: int, got, want) -> None:
        tally.compared += 1
        if got != want:
            tally.mismatches.append(i)

    for i, op in enumerate(trace):
        kind = op["op"]
        if kind == "update":
            before = (
                server.materialized.epochs if server.shards > 1 else None
            )
            server.update(
                float(op["delta"]),
                **{name: c for name, c in zip(names, op["coords"])},
            )
            reference[tuple(op["coords"])] += float(op["delta"])
            if before is not None:
                after = server.materialized.epochs
                if sum(a != b for a, b in zip(before, after)) != 1:
                    epoch_violations.append(i)
        elif kind == "update_many":
            coords = np.asarray(op["coords"], dtype=np.int64)
            deltas = np.asarray(op["deltas"], dtype=np.float64)
            server.update_many(coords, deltas)
            np.add.at(reference, tuple(coords.T), deltas)
        elif kind == "view":
            element = element_for(op["dims"])
            compare(
                i,
                server.view(list(op["dims"])).tobytes(),
                compute_element(reference, element).tobytes(),
            )
        elif kind == "query_batch":
            answers = server.query_batch(
                [list(r) for r in op["requests"]],
                max_workers=config.workers,
            )
            for request, answer in zip(op["requests"], answers):
                compare(
                    i,
                    answer.tobytes(),
                    compute_element(reference, element_for(request)).tobytes(),
                )
        elif kind == "rollup":
            element = rollup_element(server.cube, op["levels"])
            compare(
                i,
                server.rollup(op["levels"]).tobytes(),
                compute_element(reference, element).tobytes(),
            )
        elif kind == "range":
            ranges = tuple((lo, hi) for lo, hi in op["ranges"])
            compare(
                i,
                float(server.range_sum(ranges)),
                range_sum_direct(reference, ranges),
            )
        elif kind == "reconfigure":
            server.reconfigure()
        else:
            raise ValueError(f"unknown trace op {kind!r} at index {i}")

    # Final quiescent sweep: the streamed server must agree with a from-
    # scratch recomputation of every working-set view on the final cube.
    compare(len(trace), server.cube.values.tobytes(), reference.tobytes())
    for dims in ([], [names[0]], names[:2], list(names)):
        compare(
            len(trace),
            server.view(list(dims)).tobytes(),
            compute_element(reference, element_for(list(dims))).tobytes(),
        )

    health = server.health()
    reconfigures = sum(1 for op in trace if op["op"] == "reconfigure")
    clears_metric = server.metrics.get("view_cache_clears_total")
    cache_clears = (
        float(clears_metric.total()) if clears_metric is not None else 0.0
    )
    return {
        "shards": server.shards,
        "compared": tally.compared,
        "mismatches": tally.mismatches,
        "bit_identical": not tally.mismatches,
        "updates": health["updates"],
        "cache_patched": health["updates_cache_patched"],
        "cache_cleared": health["updates_cache_cleared"],
        "cache_clears_total": cache_clears,
        "reconfigurations": reconfigures,
        "epoch_violations": epoch_violations,
        "cache_hit_rate": server._view_cache.hit_rate,
    }


def run_update_differential(
    config: UpdateStreamConfig | None = None,
    trace: list[dict] | None = None,
) -> dict:
    """Replay the trace per shard count; report divergence and clear leaks."""
    config = config or UpdateStreamConfig()
    if trace is None:
        trace = generate_trace(config)
    rng = np.random.default_rng(config.seed)
    base = rng.integers(0, 100, size=config.sizes).astype(np.float64)
    runs = []
    ok = True
    for shards in config.shard_counts:
        server = _build_server(config, shards=shards)
        run = _replay(server, base.copy(), trace, config)
        run["ok"] = (
            run["bit_identical"]
            and run["compared"] > 0
            and run["cache_cleared"] == 0
            and run["cache_patched"] > 0
            # reconfigure() clears the cache it supersedes; updates never do.
            and run["cache_clears_total"] <= run["reconfigurations"]
            and not run["epoch_violations"]
        )
        ok = ok and run["ok"]
        runs.append(run)
    return {
        "seed": config.seed,
        "sizes": list(config.sizes),
        "workers": config.workers,
        "trace_ops": len(trace),
        "runs": runs,
        "ok": ok,
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
