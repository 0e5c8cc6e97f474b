"""Sharded scatter-gather vs monolithic assembly (wall, ops, merge cost).

Serves the same batch of group-by views — every non-root aggregation of a
3-d cube — from a monolithic :class:`~repro.core.materialize.
MaterializedSet` and from :class:`~repro.shard.sets.ShardedSet` at 1, 2,
4, and 8 shards, and reports the wall-clock speedup plus the gather
(merge) overhead of the scatter layer.

Shard legs run *serially* (``max_workers=1``): the win measured here is
cache locality, not thread parallelism — each shard's slab keeps the
cascade intermediates resident in cache where the monolithic cube's
working set does not fit.  That makes the gate meaningful on any core
count, including single-core CI runners.  Every sharded answer is
asserted byte-identical to the monolithic baseline (the merge is exact by
distributivity), and the full-mode gate requires >= 1.6x at 4 shards on
the 2^24-cell cube.

Runs standalone (writes ``BENCH_shard.json``)::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        --output BENCH_shard.json
    ... --small --check                 # CI smoke: small cube + gates
    ... --compare BENCH_shard.json      # fail on >1.5x speedup regression

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations

import numpy as np
from _gates import REGRESSION_FACTOR, build_parser, finish, ratio_regressed

from repro.core.element import CubeShape
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.replay import seeded_cube
from repro.shard.partition import CubePartition
from repro.shard.sets import ShardedSet

#: 2^24 cells; the largest dimension (the tied 512s break to the last
#: axis) is the shard axis, so 8 shards still leave 64-deep slabs.
FULL_SIZES = (64, 512, 512)
FULL_SHARDS = (1, 2, 4, 8)

#: 2^19 cells for the CI smoke run (seconds, not minutes).
SMALL_SIZES = (32, 128, 128)
SMALL_SHARDS = (1, 2, 4)

#: Minimum speedup of 4 shards over 1 shard.  The full cube carries the
#: paper-sized claim.  The small cube fits in last-level cache whole, so
#: sharding buys nothing there and costs a little gather work; its floor
#: only asserts the scatter layer did not collapse (stayed within ~2x of
#: the single-shard wall).
SPEEDUP_FLOOR = {"full": 1.6, "small": 0.5}


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _targets(shape: CubeShape):
    """Every proper group-by view (the root is stored — a trivial copy
    would dilute the assembly measurement)."""
    d = shape.ndim
    return [
        shape.aggregated_view(agg)
        for k in range(1, d + 1)
        for agg in combinations(range(d), k)
    ]


def _build_values(sizes) -> np.ndarray:
    return seeded_cube(24, sizes).values


def _measure_monolithic(shape, values, targets, repeats: int) -> dict:
    ms = MaterializedSet(shape)
    ms.store(shape.root(), values)

    def serve():
        counter = OpCounter()
        return (
            ms.assemble_batch(targets, counter=counter),
            counter,
        )

    expected, counter = serve()
    wall = _best_wall(serve, repeats)
    return {
        "wall_ms": wall * 1e3,
        "operations": counter.total,
    }, expected


def _measure_sharded(
    shape, values, targets, shards: int, expected, repeats: int
) -> dict:
    partition = CubePartition.for_shape(shape, shards)
    sharded = ShardedSet(partition, base_values=values)
    sharded.store(shape.root(), values)

    def serve():
        counter = OpCounter()
        return (
            sharded.assemble_batch(targets, counter=counter, max_workers=1),
            counter,
        )

    got, counter = serve()
    for target in targets:
        assert got[target].tobytes() == expected[target].tobytes(), (
            f"{shards} shards: answers are not bit-identical"
        )
    wall = _best_wall(serve, repeats)
    stats = dict(sharded.last_scatter_stats or {})
    wall_ms = wall * 1e3
    return {
        "shards": shards,
        "axis": partition.axis,
        "wall_ms": wall_ms,
        "operations": counter.total,
        "bit_identical": True,
        "plans": stats.get("plans"),
        "degraded_shards": stats.get("degraded_shards", []),
        "merge_ops": stats.get("merge_ops"),
        "gather_ms": stats.get("gather_ms"),
        "gather_overhead_fraction": (
            stats.get("gather_ms", 0.0) / wall_ms if wall_ms else 0.0
        ),
    }


def run(small: bool = False, repeats: int | None = None) -> dict:
    sizes = SMALL_SIZES if small else FULL_SIZES
    shard_counts = SMALL_SHARDS if small else FULL_SHARDS
    if repeats is None:
        repeats = 5
    shape = CubeShape(sizes)
    values = _build_values(sizes)
    targets = _targets(shape)
    monolithic, expected = _measure_monolithic(
        shape, values, targets, repeats
    )
    entries = [
        _measure_sharded(shape, values, targets, s, expected, repeats)
        for s in shard_counts
    ]
    base_wall = entries[0]["wall_ms"]  # the 1-shard configuration
    for entry in entries:
        entry["speedup_vs_1_shard"] = base_wall / entry["wall_ms"]
        entry["speedup_vs_monolithic"] = (
            monolithic["wall_ms"] / entry["wall_ms"]
        )
    return {
        "benchmark": "sharded scatter-gather scaling",
        "mode": "small" if small else "full",
        "shape": list(sizes),
        "cells": int(np.prod(sizes)),
        "targets": len(targets),
        "repeats": repeats,
        "scatter_workers": 1,
        "monolithic": monolithic,
        "shards": entries,
    }


def check(report: dict) -> None:
    """Smoke gates: exact merges, no degradation, sharding must pay off."""
    for entry in report["shards"]:
        assert entry["bit_identical"], (
            f"{entry['shards']} shards not bit-identical"
        )
        assert entry["degraded_shards"] == [], (
            f"{entry['shards']} shards: fault-free run degraded "
            f"{entry['degraded_shards']}"
        )
    by_count = {entry["shards"]: entry for entry in report["shards"]}
    floor = SPEEDUP_FLOOR[report["mode"]]
    four = by_count[4]
    assert four["speedup_vs_1_shard"] >= floor, (
        f"4 shards: speedup {four['speedup_vs_1_shard']:.2f}x over 1 shard "
        f"is below the {floor}x floor"
    )
    # The merge stays a small fraction of the serve — the scatter layer
    # must not trade assembly time for gather time.
    for entry in report["shards"]:
        assert entry["gather_overhead_fraction"] < 0.5, (
            f"{entry['shards']} shards: gather is "
            f"{entry['gather_overhead_fraction']:.0%} of the batch wall"
        )


def compare(report: dict, baseline: dict) -> list[str]:
    """Speedup-ratio regression gate against a checked-in report."""
    failures: list[str] = []
    base = {entry["shards"]: entry for entry in baseline.get("shards", [])}
    if report["shape"] != baseline.get("shape"):
        return failures
    for entry in report["shards"]:
        ref = base.get(entry["shards"])
        if ref is None or entry["shards"] == 1:
            continue
        current = entry["speedup_vs_1_shard"]
        reference = ref["speedup_vs_1_shard"]
        if ratio_regressed(current, reference):
            failures.append(
                f"{entry['shards']} shards: speedup {current:.2f}x "
                f"regressed more than {REGRESSION_FACTOR}x from baseline "
                f"{reference:.2f}x"
            )
    return failures


def render(report: dict) -> str:
    mono = report["monolithic"]
    lines = [
        f"{tuple(report['shape'])} ({report['cells']} cells), "
        f"{report['targets']} targets: monolithic {mono['wall_ms']:.1f} ms"
    ]
    for entry in report["shards"]:
        lines.append(
            f"  {entry['shards']} shard(s): {entry['wall_ms']:.1f} ms "
            f"({entry['speedup_vs_1_shard']:.2f}x vs 1 shard, "
            f"{entry['speedup_vs_monolithic']:.2f}x vs monolithic, "
            f"gather {entry['gather_ms']:.2f} ms, "
            f"{entry['merge_ops']} merge ops)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        small_help="small cube (CI smoke)",
        check_help="assert the scaling gates",
    )
    args = parser.parse_args(argv)
    report = run(small=args.small, repeats=args.repeats)
    return finish(report, args, check=check, compare=compare, render=render)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small cube; assertions always on)


def test_shard_scaling_small(benchmark):
    report = benchmark.pedantic(
        lambda: run(small=True, repeats=3), rounds=1, iterations=1
    )
    check(report)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
