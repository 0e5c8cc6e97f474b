"""Durability overhead: WAL ack latency by fsync policy, recovery time.

Two questions a deployment asks before turning the WAL on:

- **What does an acknowledged update cost?**  The same seeded update
  stream is driven through a plain :class:`~repro.server.OLAPServer`
  (no WAL — the ceiling) and through durable servers under each fsync
  policy (``off``/``interval``/``always``).  The ack path is
  ``update_many`` returning: by then the record has reached the OS page
  cache (every policy) and the platter (``always``).  The report carries
  the per-batch ack latency and the overhead ratio against the no-WAL
  baseline; the checked floor is **fsync=interval ack overhead <= 1.25x**
  — the policy the server defaults to must be affordable.
- **How long until a crashed server answers again?**  For growing WAL
  suffix lengths the benchmark bootstraps a durable server, applies the
  suffix without snapshotting, then measures :meth:`OLAPServer.restore`
  wall — snapshot load + full replay — and verifies the restored cube is
  bit-identical to an independently maintained replica.

Runs standalone (writes ``BENCH_durability.json``)::

    PYTHONPATH=src python benchmarks/bench_durability.py \
        --output BENCH_durability.json
    ... --small --check                     # CI smoke: floors on
    ... --compare BENCH_durability.json     # fail on >1.5x regression

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from _gates import REGRESSION_FACTOR, build_parser, finish, ratio_regressed

from repro.durability import DurabilityConfig
from repro.replay import seeded_cube
from repro.server import OLAPServer

FULL_SIZES = (16, 32, 32)
SMALL_SIZES = (8, 16, 16)

#: Cells touched per acknowledged batch (a trickle-ingest commit).
BATCH_CELLS = 8

#: The checked ceiling on fsync=interval ack latency vs no-WAL.
INTERVAL_OVERHEAD_CEILING = 1.25

#: WAL suffix lengths (records) for the recovery-time curve.
RECOVERY_LENGTHS = {"full": (64, 256, 1024), "small": (32, 128)}


def _build_server(sizes, seed: int = 7, **kwargs) -> OLAPServer:
    return OLAPServer(seeded_cube(seed, sizes), **kwargs)


def _batches(sizes, count: int, seed: int = 51):
    """The same deltas for every policy: ``count`` acknowledged batches."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        coords = np.stack(
            [rng.integers(0, n, size=BATCH_CELLS) for n in sizes], axis=1
        ).astype(np.int64)
        deltas = rng.integers(-9, 10, size=BATCH_CELLS).astype(np.float64)
        out.append((coords, deltas))
    return out


def _drive(server: OLAPServer, batches) -> float:
    """Total ack wall: the time ``update_many`` holds the caller."""
    t0 = time.perf_counter()
    for coords, deltas in batches:
        server.update_many(coords, deltas)
    return time.perf_counter() - t0


def measure_ack_latency(sizes, count: int, repeats: int) -> dict:
    """Best-of-``repeats`` ack wall per policy, against a no-WAL baseline."""
    batches = _batches(sizes, count)
    results: dict[str, dict] = {}
    for policy in (None, "off", "interval", "always"):
        best = float("inf")
        for _ in range(repeats):
            root = Path(tempfile.mkdtemp(prefix="bench-durability-"))
            try:
                if policy is None:
                    server = _build_server(sizes)
                else:
                    server = _build_server(
                        sizes,
                        durability=DurabilityConfig(
                            root / "durable", fsync=policy
                        ),
                    )
                try:
                    best = min(best, _drive(server, batches))
                finally:
                    server.close()
            finally:
                shutil.rmtree(root, ignore_errors=True)
        key = policy or "none"
        results[key] = {
            "fsync": key,
            "ack_wall_ms": best * 1e3,
            "ack_latency_us": best / count * 1e6,
        }
    baseline = results["none"]["ack_wall_ms"]
    for entry in results.values():
        entry["overhead_vs_no_wal"] = entry["ack_wall_ms"] / baseline
    return results


def measure_recovery(sizes, lengths, repeats: int) -> list[dict]:
    """Restore wall vs WAL suffix length, with a bit-identity check."""
    out = []
    for length in lengths:
        batches = _batches(sizes, length)
        best = float("inf")
        replica = None
        restored_ok = True
        for _ in range(repeats):
            root = Path(tempfile.mkdtemp(prefix="bench-durability-"))
            try:
                config = DurabilityConfig(root / "durable", fsync="off")
                server = _build_server(sizes, durability=config)
                replica = server.cube.values.copy()
                for coords, deltas in batches:
                    server.update_many(coords, deltas)
                    np.add.at(replica, tuple(coords.T), deltas)
                server.close()
                t0 = time.perf_counter()
                restored = OLAPServer.restore(config)
                best = min(best, time.perf_counter() - t0)
                try:
                    restored_ok = restored_ok and (
                        restored._lineage.replayed_records == length
                        and restored.cube.values.tobytes()
                        == replica.tobytes()
                    )
                finally:
                    restored.close()
            finally:
                shutil.rmtree(root, ignore_errors=True)
        out.append(
            {
                "wal_records": length,
                "restore_wall_ms": best * 1e3,
                "replay_rate_records_per_s": length / best,
                "bit_identical": restored_ok,
            }
        )
    return out


def run(small: bool = False, repeats: int | None = None) -> dict:
    sizes = SMALL_SIZES if small else FULL_SIZES
    mode = "small" if small else "full"
    reps = repeats if repeats is not None else (3 if small else 5)
    count = 64 if small else 200
    ack = measure_ack_latency(sizes, count, reps)
    recovery = measure_recovery(sizes, RECOVERY_LENGTHS[mode], max(1, reps - 1))
    return {
        "benchmark": "durability overhead (WAL ack latency, recovery time)",
        "mode": mode,
        "shape": list(sizes),
        "cells": int(np.prod(sizes)),
        "batches": count,
        "batch_cells": BATCH_CELLS,
        "ack": ack,
        "interval_overhead": ack["interval"]["overhead_vs_no_wal"],
        "recovery": recovery,
    }


def check(report: dict) -> None:
    """Smoke gates: affordable default policy, exact recovery."""
    overhead = report["interval_overhead"]
    assert overhead <= INTERVAL_OVERHEAD_CEILING, (
        f"fsync=interval ack overhead {overhead:.3f}x exceeds the "
        f"{INTERVAL_OVERHEAD_CEILING}x ceiling over no-WAL"
    )
    for entry in report["recovery"]:
        assert entry["bit_identical"], (
            f"restore after {entry['wal_records']} WAL records was not "
            "bit-identical to the replica"
        )
        assert entry["replay_rate_records_per_s"] > 0


def compare(report: dict, baseline: dict) -> list[str]:
    """Regression gate against a checked-in report (ratios only)."""
    failures: list[str] = []
    if report["shape"] != baseline.get("shape"):
        return failures
    # Overhead ratios: lower is better, so regression = current grew past
    # the baseline by more than the shared factor.
    for policy in ("off", "interval"):
        current = report["ack"][policy]["overhead_vs_no_wal"]
        reference = baseline["ack"][policy]["overhead_vs_no_wal"]
        if ratio_regressed(reference, current):
            failures.append(
                f"ack overhead ({policy}): {current:.2f}x grew more than "
                f"{REGRESSION_FACTOR}x from baseline {reference:.2f}x"
            )
    current_rates = {
        e["wal_records"]: e["replay_rate_records_per_s"]
        for e in report["recovery"]
    }
    for entry in baseline.get("recovery", ()):
        rate = current_rates.get(entry["wal_records"])
        if rate is not None and ratio_regressed(
            rate, entry["replay_rate_records_per_s"]
        ):
            failures.append(
                f"replay rate @{entry['wal_records']} records: "
                f"{rate:.0f}/s regressed more than {REGRESSION_FACTOR}x "
                f"from baseline "
                f"{entry['replay_rate_records_per_s']:.0f}/s"
            )
    return failures


def render(report: dict) -> str:
    lines = [
        f"{tuple(report['shape'])} ({report['cells']} cells), "
        f"{report['batches']} batches x {report['batch_cells']} cells"
    ]
    for key in ("none", "off", "interval", "always"):
        entry = report["ack"][key]
        label = "no WAL" if key == "none" else f"fsync={key}"
        lines.append(
            f"  {label}: {entry['ack_latency_us']:.1f} us/ack "
            f"({entry['overhead_vs_no_wal']:.2f}x vs no-WAL)"
        )
    for entry in report["recovery"]:
        lines.append(
            f"  recovery @{entry['wal_records']} WAL records: "
            f"{entry['restore_wall_ms']:.1f} ms "
            f"({entry['replay_rate_records_per_s']:.0f} records/s, "
            f"bit-identical={entry['bit_identical']})"
        )
    lines.append(
        f"  fsync=interval ack overhead {report['interval_overhead']:.3f}x "
        f"(ceiling {INTERVAL_OVERHEAD_CEILING}x)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser(
        __doc__.splitlines()[0],
        small_help="small cube (CI smoke)",
        check_help="assert the fsync=interval overhead ceiling",
    )
    args = parser.parse_args(argv)
    report = run(small=args.small, repeats=args.repeats)
    return finish(report, args, check=check, compare=compare, render=render)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (small cube; assertions always on)


def test_durability_small(benchmark):
    report = benchmark.pedantic(
        lambda: run(small=True, repeats=2), rounds=1, iterations=1
    )
    check(report)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
