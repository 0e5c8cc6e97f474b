"""Fused cascade kernels vs step-by-step execution (wall, ops, allocations).

Measures the two layers the fused-kernel work touches:

- ``cascade``: one ``P1``/``R1`` chain run step-by-step through the
  :mod:`repro.core.operators` functions vs one :func:`~repro.core.kernels.
  fused_cascade` call — dispatch overhead only, the arithmetic is
  bit-identical.
- ``batch`` workloads: the full serving path (every ``2^d`` group-by view of
  a star-schema cube).  Sequential per-target assembly is the baseline;
  against it we run the unfused DAG, the fused DAG, and the cost-aware
  executor at 1/2/4 workers.  ``tracemalloc`` peaks show the temporaries
  each path holds at once.

Wall time is min-of-N steady-state serving (plan cache warm, allocator
pinned by :class:`~repro.core.materialize.MaterializedSet`); scalar
operations are exact (:class:`OpCounter`).  Every strategy's answers are
asserted byte-identical to the sequential baseline.

Runs standalone (writes ``BENCH_kernels.json``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --output BENCH_kernels.json
    ... --small --check                   # CI smoke: small shapes + gates
    ... --compare BENCH_kernels.json      # fail on >1.5x speedup regression

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from itertools import combinations

import numpy as np
from _gates import REGRESSION_FACTOR, build_parser, finish, ratio_regressed

from repro.core.element import CubeShape
from repro.core.exec import execute_plan, plan_batch
from repro.core.kernels import fused_cascade
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter, partial_residual, partial_sum

WORKERS = (2, 4)

#: A mixed P1/R1 chain over a 2-d cube — the shape every cascade section uses,
#: so ``--compare`` matches the section across reports.
CASCADE_SHAPE = (1024, 1024)
CASCADE_STEPS = (
    (0, False),
    (0, True),
    (1, False),
    (0, False),
    (1, True),
    (1, False),
    (0, False),
    (1, False),
)


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak(fn) -> int:
    """Peak bytes newly allocated while ``fn`` runs (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def group_by_views(shape: CubeShape):
    """All ``2^d`` group-by (aggregated) views of the cube."""
    d = shape.ndim
    return [
        shape.aggregated_view(agg)
        for k in range(d + 1)
        for agg in combinations(range(d), k)
    ]


# ---------------------------------------------------------------------------
# Section 1: one cascade, step-by-step vs fused


def measure_cascade(repeats: int) -> dict:
    """Step-by-step operator calls vs one fused kernel on the same chain."""
    rng = np.random.default_rng(2024)
    a = rng.standard_normal(CASCADE_SHAPE)

    def step_by_step():
        cur = a
        for dim, residual in CASCADE_STEPS:
            cur = (
                partial_residual(cur, dim)
                if residual
                else partial_sum(cur, dim)
            )
        return cur

    def fused():
        return fused_cascade(a, CASCADE_STEPS)

    expected = step_by_step()
    assert fused().tobytes() == expected.tobytes(), "fused cascade not bit-identical"

    step_wall = _best_wall(step_by_step, repeats)
    fused_wall = _best_wall(fused, repeats)
    step_peak = _traced_peak(step_by_step)
    fused_peak = _traced_peak(fused)

    return {
        "shape": list(CASCADE_SHAPE),
        "steps": len(CASCADE_STEPS),
        "bit_identical": True,
        "step_by_step": {
            "wall_ms": step_wall * 1e3,
            "peak_bytes": step_peak,
        },
        "fused": {
            "wall_ms": fused_wall * 1e3,
            "peak_bytes": fused_peak,
        },
        "wall_speedup": step_wall / fused_wall,
    }


# ---------------------------------------------------------------------------
# Section 2: full serving path over a star-schema batch


def star_schema_workload(small: bool):
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


def dense_cube_workload(small: bool):
    """A cube whose interior temporaries are large enough that holding
    fewer of them at once (not just fusion) is measurable."""
    sizes = (32, 32, 8) if small else (64, 64, 16)
    shape = CubeShape(sizes)
    ms = MaterializedSet(shape)
    ms.store(
        shape.root(), np.random.default_rng(11).standard_normal(shape.sizes)
    )
    name = "dense_cube_small" if small else "dense_cube"
    return name, ms, group_by_views(shape)


def measure_batch(name, ms, targets, repeats: int) -> dict:
    """Sequential baseline vs unfused DAG vs fused executor at 1/2/4 workers."""

    def sequential():
        counter = OpCounter()
        return {t: ms.assemble(t, counter=counter) for t in targets}, counter

    expected, seq_counter = sequential()
    seq_wall = _best_wall(sequential, repeats)
    seq_peak = _traced_peak(sequential)

    # Fusion ablation at the executor layer: identical DAG inputs, the only
    # difference is whether step chains were rewritten into fused nodes.
    arrays = {e: ms.array(e) for e in ms.elements}
    plan_unfused = plan_batch(targets, ms.elements, fuse=False)
    plan_fused = plan_batch(targets, ms.elements)

    def run_plan(plan):
        counter = OpCounter()
        return execute_plan(plan, arrays, counter=counter), counter

    unfused_values, unfused_counter = run_plan(plan_unfused)
    fused_values, fused_counter = run_plan(plan_fused)
    for target in targets:
        assert unfused_values[target].tobytes() == expected[target].tobytes()
        assert fused_values[target].tobytes() == expected[target].tobytes()
    unfused_wall = _best_wall(lambda: run_plan(plan_unfused), repeats)
    fused_wall = _best_wall(lambda: run_plan(plan_fused), repeats)

    result = {
        "name": name,
        "shape": list(ms.shape.sizes),
        "targets": len(targets),
        "dag_nodes_unfused": len(plan_unfused.nodes),
        "dag_nodes_fused": len(plan_fused.nodes),
        "fused_nodes": sum(
            1 for n in plan_fused.nodes.values() if n.kind == "fused"
        ),
        "cse_hits": plan_fused.cse_hits,
        "sequential": {
            "operations": seq_counter.total,
            "wall_ms": seq_wall * 1e3,
            "peak_bytes": seq_peak,
        },
        "unfused_exec": {
            "operations": unfused_counter.total,
            "wall_ms": unfused_wall * 1e3,
        },
        "fused_exec": {
            "operations": fused_counter.total,
            "wall_ms": fused_wall * 1e3,
        },
        "fusion_dispatch_speedup": unfused_wall / fused_wall,
    }

    # Serving path (plan cache) at 1/2/4 workers.
    for label, workers in [("fused_1_worker", 1)] + [
        (f"fused_{w}_workers", w) for w in WORKERS
    ]:
        def serve():
            counter = OpCounter()
            return (
                ms.assemble_batch(targets, counter=counter, max_workers=workers),
                counter,
            )

        values, counter = serve()
        for target in targets:
            assert values[target].tobytes() == expected[target].tobytes(), (
                f"{name}: {label} answers are not bit-identical"
            )
        wall = _best_wall(serve, repeats)
        entry = {
            "workers": workers,
            "operations": counter.total,
            "wall_ms": wall * 1e3,
        }
        if workers == 1:
            entry["peak_bytes_warm"] = _traced_peak(serve)
        result[label] = entry

    one = result["fused_1_worker"]
    result["wall_speedup_1_worker"] = seq_wall * 1e3 / one["wall_ms"]
    for w in WORKERS:
        result[f"wall_speedup_{w}_workers"] = (
            seq_wall * 1e3 / result[f"fused_{w}_workers"]["wall_ms"]
        )
    result["ops_speedup"] = (
        seq_counter.total / one["operations"] if one["operations"] else None
    )
    result["peak_temp_bytes_saved"] = seq_peak - one["peak_bytes_warm"]
    return result


# ---------------------------------------------------------------------------
# Report / gates


def run(small: bool = False, repeats: int | None = None) -> dict:
    if repeats is None:
        repeats = 5 if small else 7
    batches = [
        (*star_schema_workload(True), max(repeats, 10)),
        (*dense_cube_workload(small), repeats),
    ]
    if not small:
        batches.insert(1, (*star_schema_workload(False), repeats))
    return {
        "benchmark": "fused cascade kernels",
        "mode": "small" if small else "full",
        "workers_compared": [1, *WORKERS],
        "repeats": repeats,
        "cascade": measure_cascade(max(repeats * 4, 20)),
        "batches": [
            measure_batch(name, ms, targets, n)
            for name, ms, targets, n in batches
        ],
    }


#: Minimum wall speedup of the fused 1-worker path over the sequential
#: baseline per batch workload.  The full star schema carries the paper-sized
#: claim; the CI-small shape only has microseconds of work to fuse, so it
#: gets a smoke threshold.
SPEEDUP_FLOOR = {"star_schema": 3.0, "star_schema_small": 1.5}

#: Workloads whose temporaries are large enough for the shared plan's
#: early release to show in the traced peak; the star shapes' are a few
#: hundred bytes, below tracemalloc's noise.
PEAK_GATED = ("dense_cube", "dense_cube_small")

def check(report: dict) -> None:
    """Smoke gates: fused must win, threads must not lose."""
    cascade = report["cascade"]
    assert cascade["bit_identical"]
    # The chain is memory-bandwidth-bound, so fused wall tracks step-by-step
    # (the win is dispatch, not arithmetic); gate on "did not regress".
    assert cascade["wall_speedup"] > 0.8, (
        f"fused cascade regressed vs step-by-step: {cascade['wall_speedup']:.2f}x"
    )
    for wl in report["batches"]:
        floor = SPEEDUP_FLOOR.get(wl["name"], 1.0)
        assert wl["wall_speedup_1_worker"] >= floor, (
            f"{wl['name']}: fused 1-worker speedup "
            f"{wl['wall_speedup_1_worker']:.2f}x is below the {floor}x floor"
        )
        for w in WORKERS:
            assert wl[f"wall_speedup_{w}_workers"] >= 1.0, (
                f"{wl['name']}: {w} workers slower than the sequential baseline"
            )
            assert (
                wl[f"fused_{w}_workers"]["operations"]
                == wl["fused_1_worker"]["operations"]
            ), f"{wl['name']}: worker count changed the op count"
        assert wl["fused_exec"]["operations"] == wl["unfused_exec"]["operations"], (
            f"{wl['name']}: fusion changed the op count"
        )
        if wl["name"] in PEAK_GATED:
            assert wl["peak_temp_bytes_saved"] > 0, (
                f"{wl['name']}: warm fused batch did not reduce peak allocations"
            )


def compare(report: dict, baseline: dict) -> list[str]:
    """Speedup-ratio regression gate against a checked-in report.

    Compares machine-independent *ratios* (fused vs baseline wall on the
    same machine), never absolute walls, so the gate holds across runner
    generations.  Returns a list of failure messages (empty = pass).
    """
    failures: list[str] = []

    def gate(label: str, current: float, reference: float) -> None:
        if ratio_regressed(current, reference):
            failures.append(
                f"{label}: speedup {current:.2f}x regressed more than "
                f"{REGRESSION_FACTOR}x from baseline {reference:.2f}x"
            )

    if report["cascade"]["shape"] == baseline["cascade"]["shape"]:
        gate(
            "cascade.wall_speedup",
            report["cascade"]["wall_speedup"],
            baseline["cascade"]["wall_speedup"],
        )
    base_batches = {wl["name"]: wl for wl in baseline["batches"]}
    for wl in report["batches"]:
        ref = base_batches.get(wl["name"])
        if ref is None:
            continue
        gate(
            f"{wl['name']}.wall_speedup_1_worker",
            wl["wall_speedup_1_worker"],
            ref["wall_speedup_1_worker"],
        )
        gate(
            f"{wl['name']}.fusion_dispatch_speedup",
            wl["fusion_dispatch_speedup"],
            ref["fusion_dispatch_speedup"],
        )
    return failures


def render(report: dict) -> str:
    cascade = report["cascade"]
    lines = [
        f"cascade {tuple(cascade['shape'])} x{cascade['steps']} steps: "
        f"step-by-step {cascade['step_by_step']['wall_ms']:.4f} ms | "
        f"fused {cascade['fused']['wall_ms']:.4f} ms "
        f"({cascade['wall_speedup']:.2f}x)"
    ]
    for wl in report["batches"]:
        lines.append(
            f"{wl['name']}: sequential {wl['sequential']['wall_ms']:.3f} ms | "
            f"unfused {wl['unfused_exec']['wall_ms']:.3f} ms | "
            f"fused(1) {wl['fused_1_worker']['wall_ms']:.3f} ms "
            f"({wl['wall_speedup_1_worker']:.1f}x) | "
            + " | ".join(
                f"fused({w}) {wl[f'fused_{w}_workers']['wall_ms']:.3f} ms"
                for w in WORKERS
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        small_help="small shapes (CI smoke)",
        check_help="assert the fused path wins",
    )
    args = parser.parse_args(argv)
    report = run(small=args.small, repeats=args.repeats)
    return finish(report, args, check=check, compare=compare, render=render)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (small shapes; assertions always on)


def test_fused_kernels_small(benchmark):
    report = benchmark.pedantic(
        lambda: run(small=True, repeats=3), rounds=1, iterations=1
    )
    check(report)


def test_fused_cascade_is_bit_identical():
    assert measure_cascade(repeats=3)["bit_identical"]


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
