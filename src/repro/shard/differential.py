"""The shard-vs-monolith differential gate (``python -m repro shard``).

Replays one deterministic workload — views, shared-plan batches, rollups,
range sums, point cells, an in-place update, and a mid-run
``reconfigure()`` — against a monolithic :class:`~repro.server.OLAPServer`
and against sharded servers (``--shards`` counts), comparing every
answer **byte for byte**.  The cube is
integer-valued, so each comparison is meaningful on any shard axis: the
scatter–gather merge must be *exactly* the monolithic cascade, not merely
close.  The CI shard-smoke job runs this with ``--check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from ..cube.datacube import DataCube
from ..cube.dimensions import Dimension

if TYPE_CHECKING:  # pragma: no cover - the import is lazy at runtime
    from ..server import OLAPServer

__all__ = ["DifferentialConfig", "run_differential", "render_report"]


@dataclass(frozen=True)
class DifferentialConfig:
    seed: int = 11
    sizes: tuple[int, ...] = (8, 16, 16)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    workers: int = 2


@dataclass
class _Tally:
    compared: int = 0
    mismatches: list = field(default_factory=list)


def _build_server(config: DifferentialConfig, **kwargs) -> "OLAPServer":
    # Imported here: repro.server itself imports repro.shard for its
    # sharded storage, so the gate pulls the server in lazily.
    from ..server import OLAPServer

    rng = np.random.default_rng(config.seed)
    values = rng.integers(0, 100, size=config.sizes).astype(np.float64)
    dims = [
        Dimension(f"d{i}", list(range(n)))
        for i, n in enumerate(config.sizes)
    ]
    return OLAPServer(DataCube(values, dims, measure="amount"), **kwargs)


def _workload(server: "OLAPServer", config: DifferentialConfig) -> list:
    """Deterministic answers; every entry is bytes or a float."""
    rng = np.random.default_rng(config.seed + 1)
    names = [f"d{i}" for i in range(len(config.sizes))]
    workers = config.workers
    answers: list = []

    def batch(requests):
        results = server.query_batch(requests, max_workers=workers)
        answers.extend(a.tobytes() for a in results)

    # Single views: every group-by of the first two dims plus the full cube.
    for request in ([], [names[0]], names[:2], names):
        answers.append(server.view(list(request)).tobytes())
    # Shared-plan batches (the scatter path proper).
    batch([[], [names[0]], names[:2]])
    batch([names, [names[-1]]])
    # Rollups (partial aggregation levels per dimension).
    rollup_levels = [
        {names[0]: 1},
        {names[-1]: 2},
        {n: 1 for n in names[:2]},
    ]
    for levels in rollup_levels:
        answers.append(server.rollup(levels).tobytes())
    answers.extend(
        a.tobytes()
        for a in server.rollup_batch(rollup_levels, max_workers=workers)
    )
    # Range sums: boundary-crossing, non-dyadic endpoints.
    for _ in range(6):
        ranges = tuple(
            tuple(sorted(rng.integers(0, n + 1, size=2)))
            for n in config.sizes
        )
        answers.append(float(server.range_sum(ranges)))
    # Point cells.
    for _ in range(4):
        coords = {
            name: int(rng.integers(0, n))
            for name, n in zip(names, config.sizes)
        }
        answers.append(float(server.cell(**coords)))
    # Mutate, reconfigure, and re-ask: the sharded migration path.
    server.update(3.0, **{name: 0 for name in names})
    server.reconfigure()
    batch([[], [names[0]], names[:2], names])
    answers.append(float(server.range_sum(tuple((0, n) for n in config.sizes))))
    return answers


def run_differential(config: DifferentialConfig | None = None) -> dict:
    """Replay the workload monolithic and sharded; report any divergence."""
    config = config or DifferentialConfig()
    reference = _workload(_build_server(config), config)
    runs = []
    ok = True
    for shards in config.shard_counts:
        server = _build_server(config, shards=shards)
        tally = _Tally()
        answers = _workload(server, config)
        for i, (got, want) in enumerate(zip(answers, reference)):
            tally.compared += 1
            if got != want:
                tally.mismatches.append(i)
        health = server.health()
        run = {
            "shards": shards,
            "compared": tally.compared,
            "mismatches": tally.mismatches,
            "bit_identical": not tally.mismatches,
            "shards_health": health.get("shards"),
        }
        ok = ok and run["bit_identical"] and tally.compared == len(reference)
        runs.append(run)
    return {
        "seed": config.seed,
        "sizes": list(config.sizes),
        "workers": config.workers,
        "operations": len(reference),
        "runs": runs,
        "ok": ok,
    }


def render_report(report: dict) -> str:
    lines = [
        f"shard differential: sizes={tuple(report['sizes'])} "
        f"seed={report['seed']}"
    ]
    for run in report["runs"]:
        verdict = (
            "BIT-IDENTICAL" if run["bit_identical"] else "DIVERGED"
        )
        lines.append(
            f"  shards={run['shards']}: {run['compared']} answers "
            f"compared -> {verdict}"
            + (f" at {run['mismatches']}" if run["mismatches"] else "")
        )
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)
