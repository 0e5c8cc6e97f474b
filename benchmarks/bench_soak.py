"""Drifting-workload soak: latency under load and adaptation lag.

Replays the seeded drifting workload of :mod:`repro.soak` against a server
running the constants it ships with, and records the two curves a
capacity planner wants:

- **p99-vs-qps curve** — the drifting mix replayed at increasing batch
  sizes: offered load rises, the assembly tail degrades, and the curve
  records where.
- **adaptation lag** — an adaptive replay (cost-model monitor feeding
  ``server.reconfigure``) reporting how many batches each hot-key shift
  takes to recover to 1.5x the pre-drift median.

Runs standalone (writes ``BENCH_soak.json``)::

    PYTHONPATH=src python benchmarks/bench_soak.py --output BENCH_soak.json
    ... --small --check                # CI smoke: small cube + gates
    ... --compare BENCH_soak.json     # fail on >1.5x hit-rate regression

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import dataclasses
import sys

from _gates import REGRESSION_FACTOR, build_parser, finish, ratio_regressed

from repro.soak import SoakConfig, run_soak

#: The full config is the 2048x16x4 cube with eight drift phases; the
#: small one is a CI-sized replica of the same drifting structure.
FULL_CONFIG = SoakConfig()
SMALL_CONFIG = SoakConfig(
    sizes=(16, 16, 8),
    batches=36,
    phase_batches=12,
    batch_size=4,
    burst_every=4,
    burst_cells=16,
)

#: Offered-load sweep for the p99-vs-qps curve (requests per batch).
CURVE_BATCH_SIZES = {"full": (2, 5, 8, 12), "small": (2, 4, 6)}

#: Every drift recovery must land within one phase; a lag that long
#: means the serving loop never actually adapted.
MAX_LAG_FRACTION = 1.0


def run(small: bool = False) -> dict:
    mode = "small" if small else "full"
    config = SMALL_CONFIG if small else FULL_CONFIG

    curve = []
    for batch_size in CURVE_BATCH_SIZES[mode]:
        point = run_soak(
            dataclasses.replace(config, batch_size=batch_size),
            adaptation=False,
        )
        curve.append(
            {
                "batch_size": batch_size,
                "qps": point["qps"],
                "assembly_p50_ms": point["assembly_ms"]["p50"],
                "assembly_p95_ms": point["assembly_ms"]["p95"],
                "assembly_p99_ms": point["assembly_ms"]["p99"],
            }
        )

    adaptive = run_soak(config)
    return {
        "mode": mode,
        "config": config.to_dict(),
        "curve": curve,
        "adaptation": {
            "drift": adaptive["drift"],
            "reconfigurations": len(adaptive["adaptation"]["reconfigurations"]),
            "cache_hit_rate": adaptive["cache_hit_rate"],
            "assembly_p99_ms": adaptive["assembly_ms"]["p99"],
        },
    }


def check(report: dict) -> None:
    """Smoke gates: drift recovery is bounded and every point served."""
    max_lag = report["config"]["phase_batches"] * MAX_LAG_FRACTION
    for entry in report["adaptation"]["drift"]:
        assert entry["recovered"], (
            f"phase {entry['phase']} never recovered after its hot-key "
            f"shift (baseline {entry['baseline_ms']}ms)"
        )
        assert entry["lag_batches"] <= max_lag, (
            f"phase {entry['phase']} took {entry['lag_batches']} batches "
            f"to recover (> {max_lag:.0f})"
        )
    qps = [point["qps"] for point in report["curve"]]
    assert all(q > 0 for q in qps), "a curve point served zero throughput"


def compare(report: dict, baseline: dict) -> list[str]:
    """Regression gate against a checked-in report.

    Only the adaptive replay's result-cache hit rate: it is fixed by the
    seeded trace and the re-selections, not by the machine's speed.
    """
    failures: list[str] = []
    if report["mode"] != baseline.get("mode"):
        return failures
    current = report["adaptation"]["cache_hit_rate"]
    reference = baseline["adaptation"]["cache_hit_rate"]
    if ratio_regressed(current, reference):
        failures.append(
            f"adaptation.cache_hit_rate: {current:.3f} regressed more than "
            f"{REGRESSION_FACTOR}x from baseline {reference:.3f}"
        )
    return failures


def render(report: dict) -> str:
    config = report["config"]
    lines = [
        f"{tuple(config['sizes'])} cube, {config['batches']} batches "
        f"x {config['batch_size']} requests, "
        f"{config['batches'] // config['phase_batches']} drift phases"
    ]
    lines.append("  p99-vs-qps curve:")
    for point in report["curve"]:
        lines.append(
            f"    batch_size={point['batch_size']:>2}: "
            f"{point['qps']:>7.1f} qps, assembly p99 "
            f"{point['assembly_p99_ms']:.3f} ms"
        )
    adapt = report["adaptation"]
    lag_bits = ", ".join(
        f"phase {e['phase']}: "
        + (f"{e['lag_batches']} batches" if e["recovered"] else "never")
        for e in adapt["drift"]
    )
    lines.append(
        f"  adaptation: {adapt['reconfigurations']} reconfigs, "
        f"lag [{lag_bits}], "
        f"hit rate {adapt['cache_hit_rate']:.1%}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        small_help="small cube (CI smoke)",
        check_help="assert the adaptation-lag floor",
        repeats=False,
    )
    args = parser.parse_args(argv)
    report = run(small=args.small)
    return finish(report, args, check=check, compare=compare, render=render)


if __name__ == "__main__":
    sys.exit(main())
