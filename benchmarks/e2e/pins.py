"""Pinned inputs: both commits of a comparison must receive the same load.

``pins.json`` records, for the default seed, the sha256 of each workload's
canonical round trace, and the tail percentile :func:`workloads.tail_rule`
gives its reads per round.  ``check`` aborts the run when the generator no
longer reproduces them (``BENCHMARK.json`` cannot carry extra keys, so the
pins live beside the driver).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import workloads

PINS = Path(__file__).resolve().parent / "pins.json"

#: ``--smoke`` divides every per-round op count by this.
SMOKE_DIVISOR = 10


class PinMismatch(SystemExit):
    pass


def load() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def current() -> dict:
    return {
        name: {
            "seed": workloads.DEFAULT_SEED,
            "ops_per_round": len(ops),
            "tail_percentile": workloads.tail_rule(workloads.reads_per_round(w)),
            "sha256": workloads.trace_digest(ops),
        }
        for name, w in workloads.WORKLOADS.items()
        for ops in [workloads.build_round(w, workloads.DEFAULT_SEED)]
    }


def write() -> None:
    with open(PINS, "w") as fh:
        json.dump(current(), fh, indent=1)
        fh.write("\n")


def check(workload: workloads.Workload, seed: int, ops) -> None:
    pinned = load()[workload.name]
    if workload.tail_percentile != pinned["tail_percentile"]:
        raise PinMismatch(
            f"{workload.name}: tail percentile {workload.tail_percentile} "
            f"is not the pinned p{pinned['tail_percentile']}"
        )
    if seed == pinned["seed"] and workloads.trace_digest(ops) != pinned["sha256"]:
        raise PinMismatch(
            f"{workload.name}: trace for seed {seed} no longer matches pins.json "
            "(the generator changed: two commits would be fed different inputs)"
        )


def smoke(workload: workloads.Workload) -> workloads.Workload:
    """The same workload on a cube 1/64 the size, a tenth of the ops per round."""
    counts = {k: max(2, v // SMOKE_DIVISOR) for k, v in workload.counts.items()}
    return dataclasses.replace(
        workload,
        sizes=tuple(max(4, n // 4) for n in workload.sizes),
        counts=counts,
        prefault_mb=16,
        warm_ops=max(10, workload.warm_ops // SMOKE_DIVISOR),
        tail_percentile=90,
    )
