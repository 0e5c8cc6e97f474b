"""Sequential vs shared-plan batch assembly (ops + wall time).

Measures the three serving strategies over two workloads:

- the paper's Table 2 pedagogical cube (2x2, root stored, all four
  aggregated views queried), and
- a star-schema cube (``repro.workloads.star_schema.sales_cube``,
  8x4x8x16) with all ``2^4`` group-by views.

Strategies: per-target :meth:`MaterializedSet.assemble` (sequential: a
batch of one per target, so nothing is shared between targets), the
shared-plan executor at one worker (the pure algorithmic win — CSE, no
threads), the thread-pool executor at 2 and 4 workers, and the
**server-default path** (:data:`repro.server.MAX_WORKERS` workers with
cost-aware dispatch free to demote) — ``--check`` asserts the demoted
multi-worker walls stay within :data:`DEMOTED_WALL_FACTOR` of the
1-worker wall on the Table 2 cube, holding the small-batch cliff shut.  Scalar
operations are exact (:class:`OpCounter`); wall time is min-of-N and
measures steady-state serving — repeated batches hit the set's plan cache,
as each sequential target hits its own single-target plan.

Runs standalone (writes ``BENCH_batch.json``)::

    PYTHONPATH=src python benchmarks/bench_batch_assembly.py \
        --output BENCH_batch.json
    ... --small --check   # CI smoke: tiny star shape + assertions

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations

import numpy as np
from _gates import REGRESSION_FACTOR, build_parser, finish, ratio_regressed

from repro.core.element import CubeShape
from repro.core.exec import execute_plan, plan_batch
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.server import MAX_WORKERS

WORKERS = (2, 4)

#: Multi-worker walls must stay within this factor of the 1-worker wall
#: on the tiny workloads: cost-aware dispatch demotes batches whose nodes
#: never repay a thread round-trip, so asking for more workers than the
#: work supports must cost (almost) nothing.  This is the small-batch
#: cliff the dispatch threshold exists to prevent — hold it with a gate.
DEMOTED_WALL_FACTOR = 1.2


def group_by_views(shape: CubeShape):
    """All ``2^d`` group-by (aggregated) views of the cube."""
    d = shape.ndim
    return [
        shape.aggregated_view(agg)
        for k in range(d + 1)
        for agg in combinations(range(d), k)
    ]


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def table2_workload():
    """The paper's 2x2 example cube: root stored, four views queried."""
    shape = CubeShape((2, 2))
    ms = MaterializedSet(shape)
    ms.store(shape.root(), np.random.default_rng(2024).standard_normal((2, 2)))
    return "table2_2x2", ms, group_by_views(shape)


def star_schema_workload(small: bool):
    """Star-schema sales cube with every group-by view queried."""
    if small:
        shape = CubeShape((4, 4, 2))
        ms = MaterializedSet(shape)
        ms.store(
            shape.root(),
            np.random.default_rng(2024).standard_normal(shape.sizes),
        )
        return "star_schema_small", ms, group_by_views(shape)
    from repro.workloads.star_schema import sales_cube

    cube = sales_cube()
    shape = cube.shape_id
    ms = MaterializedSet(shape)
    ms.store(shape.root(), cube.values)
    return "star_schema", ms, group_by_views(shape)


def measure_workload(name, ms, targets, repeats: int) -> dict:
    """One workload under all strategies, with bit-identity asserted."""

    def sequential():
        counter = OpCounter()
        return {t: ms.assemble(t, counter=counter) for t in targets}, counter

    def shared(workers):
        counter = OpCounter()
        return (
            ms.assemble_batch(targets, counter=counter, max_workers=workers),
            counter,
        )

    expected, seq_counter = sequential()
    plan = plan_batch(targets, ms.elements)

    result = {
        "name": name,
        "shape": list(ms.shape.sizes),
        "targets": len(targets),
        "dag_nodes": len(plan.nodes),
        "cse_hits": plan.cse_hits,
        "cse_ratio": round(plan.cse_ratio, 4),
        "sequential": {
            "operations": seq_counter.total,
            "wall_ms": _best_wall(lambda: sequential(), repeats) * 1e3,
        },
    }

    for label, workers in [("shared_plan", 1)] + [
        (f"shared_plan_{w}_workers", w) for w in WORKERS
    ]:
        values, counter = shared(workers)
        for target in targets:
            np.testing.assert_array_equal(values[target], expected[target])
        result[label] = {
            "workers": workers,
            "operations": counter.total,
            "wall_ms": _best_wall(lambda: shared(workers), repeats) * 1e3,
        }

    # The server-default path: exactly what ``OLAPServer.query_batch``
    # runs — ``MAX_WORKERS`` workers with cost-aware dispatch
    # free to demote.  One instrumented execution records whether the
    # executor actually demoted (tiny workloads must never pay the
    # multi-worker cliff the raw 2/4-worker rows would otherwise show).
    stats: dict = {}
    execute_plan(
        plan,
        ms.arrays_snapshot(),
        max_workers=MAX_WORKERS,
        stats=stats,
    )
    result["server_default"] = {
        "workers": MAX_WORKERS,
        "demoted": stats["demoted"],
        "dispatch_threshold": stats["dispatch_threshold"],
        "largest_node_cost": stats["largest_node_cost"],
        "wall_ms": _best_wall(
            lambda: shared(MAX_WORKERS), repeats
        )
        * 1e3,
    }

    seq = result["sequential"]
    one = result["shared_plan"]
    result["ops_saved"] = seq["operations"] - one["operations"]
    result["ops_speedup"] = (
        seq["operations"] / one["operations"] if one["operations"] else None
    )
    result["wall_speedup_1_worker"] = seq["wall_ms"] / one["wall_ms"]
    return result


def run(small: bool = False, repeats: int | None = None) -> dict:
    if repeats is None:
        repeats = 10 if small else 7
    # The Table 2 cube is microseconds per iteration: give its min-of-N
    # many more samples so the checked-in wall numbers are stable.
    workloads = [
        (*table2_workload(), max(repeats, 300)),
        (*star_schema_workload(small), repeats),
    ]
    report = {
        "benchmark": "shared-plan batch assembly",
        "workers_compared": [1, *WORKERS],
        "repeats": repeats,
        "workloads": [
            measure_workload(name, ms, targets, n)
            for name, ms, targets, n in workloads
        ],
    }
    return report


def check(report: dict) -> None:
    """CI smoke assertions: the shared plan never loses on operations."""
    for wl in report["workloads"]:
        seq_ops = wl["sequential"]["operations"]
        one = wl["shared_plan"]
        assert one["operations"] < seq_ops, (
            f"{wl['name']}: shared plan must beat sequential on ops "
            f"({one['operations']} vs {seq_ops})"
        )
        for w in WORKERS:
            threaded = wl[f"shared_plan_{w}_workers"]
            assert threaded["operations"] == one["operations"], (
                f"{wl['name']}: thread count must not change the op count"
            )
        if wl["name"] == "table2_2x2":
            # The small-batch cliff gate: on a cube this tiny no node can
            # repay a thread round-trip, so the dispatcher must demote and
            # every multi-worker wall must track the 1-worker wall.
            sd = wl["server_default"]
            assert sd["demoted"], (
                f"table2: server-default path dispatched to the pool "
                f"(largest node {sd['largest_node_cost']} vs threshold "
                f"{sd['dispatch_threshold']}) - demotion is broken"
            )
            ceiling = DEMOTED_WALL_FACTOR * one["wall_ms"]
            for label in [
                f"shared_plan_{w}_workers" for w in WORKERS
            ] + ["server_default"]:
                wall = wl[label]["wall_ms"]
                assert wall <= ceiling, (
                    f"table2: demoted {label} wall {wall:.4f}ms exceeds "
                    f"{DEMOTED_WALL_FACTOR}x the 1-worker wall "
                    f"{one['wall_ms']:.4f}ms - the multi-worker cliff "
                    f"is back"
                )


def compare(report: dict, baseline: dict) -> list[str]:
    """Regression gate against a checked-in report.

    The operation-count speedup is deterministic (``OpCounter`` is exact),
    so any drop at all fails; the wall ratio gets the usual noise-tolerant
    factor.
    """
    failures: list[str] = []
    base = {wl["name"]: wl for wl in baseline.get("workloads", [])}
    for wl in report["workloads"]:
        ref = base.get(wl["name"])
        if ref is None or wl["shape"] != ref.get("shape"):
            continue
        if wl["ops_speedup"] < ref["ops_speedup"]:
            failures.append(
                f"{wl['name']}: ops speedup {wl['ops_speedup']:.3f}x fell "
                f"below baseline {ref['ops_speedup']:.3f}x (exact counter)"
            )
        if ratio_regressed(
            wl["wall_speedup_1_worker"], ref["wall_speedup_1_worker"]
        ):
            failures.append(
                f"{wl['name']}: wall speedup "
                f"{wl['wall_speedup_1_worker']:.2f}x regressed more than "
                f"{REGRESSION_FACTOR}x from baseline "
                f"{ref['wall_speedup_1_worker']:.2f}x"
            )
    return failures


def render(report: dict) -> str:
    lines = []
    for wl in report["workloads"]:
        seq = wl["sequential"]
        one = wl["shared_plan"]
        lines.append(
            f"{wl['name']}: sequential {seq['operations']} ops "
            f"{seq['wall_ms']:.3f} ms | shared(1) {one['operations']} ops "
            f"{one['wall_ms']:.3f} ms | "
            + " | ".join(
                f"shared({w}) "
                f"{wl[f'shared_plan_{w}_workers']['wall_ms']:.3f} ms"
                for w in WORKERS
            )
        )
        sd = wl["server_default"]
        lines.append(
            f"  server default ({sd['workers']} workers): "
            f"{sd['wall_ms']:.3f} ms, "
            + (
                "demoted to serial"
                if sd["demoted"]
                else f"dispatched (largest node {sd['largest_node_cost']})"
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        small_help="tiny star shape (CI smoke)",
        check_help="assert the shared plan wins",
    )
    args = parser.parse_args(argv)
    report = run(small=args.small, repeats=args.repeats)
    return finish(report, args, check=check, compare=compare, render=render)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (small shapes; assertions always on)


def test_batch_assembly_small(benchmark):
    report = benchmark.pedantic(
        lambda: run(small=True, repeats=3), rounds=1, iterations=1
    )
    check(report)


def test_batch_assembly_table2_wall_win():
    """The 1-worker shared plan wins ops on Table 2's cube outright."""
    report = run(small=True, repeats=10)
    table2 = report["workloads"][0]
    assert table2["sequential"]["operations"] == 7
    assert table2["shared_plan"]["operations"] == 5


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
