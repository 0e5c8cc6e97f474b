"""Seeded drifting-workload generator for the soak harness.

A soak trace is a sequence of *batches* replayed against a live
:class:`~repro.server.OLAPServer`.  Unlike the streaming gate's flat op
mix (:mod:`repro.streaming`), the soak trace *drifts* on purpose — the
regime the stored selection and the result cache were warm for shifts
out from under the server mid-run:

- **hot-key shifts** — each phase draws a fresh hot set of aggregated
  views; 80% of batch requests hit the hot set, so the result cache
  goes cold at each boundary;
- **diurnal query-mix rotation** — phases rotate through view-heavy,
  rollup-heavy and range-heavy mixes (the "time of day" changing what
  the workload looks like);
- **range-vs-rollup phases** — the rotation deliberately swings between
  the shared-plan batch path and the prefix-sum range path, which stress
  different layers (batch executor vs. range-engine intermediates);
- **ingest bursts** — periodic ``update_many`` batches interleave
  streaming writes with the query load.

Phase boundaries are marked with explicit ``drift`` ops so the harness
can measure adaptation lag (batches until latency recovers after a
shift).  Generation is pure and seeded: the same :class:`SoakConfig`
always yields the same trace, so soak runs are replayable and the
curve points of ``benchmarks/bench_soak.py`` differ only in what the
config says.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SoakConfig",
    "generate_soak_trace",
    "save_soak_trace",
    "load_soak_trace",
]

# Diurnal rotation: (view, rollup, range) batch probabilities per phase.
# Phase p uses _MIXES[p % 3]; the swing between rollup- and range-heavy
# phases is what exercises both the batch executor and the range engine.
_MIXES: tuple[tuple[float, float, float], ...] = (
    (0.70, 0.20, 0.10),  # morning: view-heavy dashboard load
    (0.20, 0.60, 0.20),  # midday: rollup-heavy reporting
    (0.30, 0.20, 0.50),  # evening: range-scan analytics
)


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one drifting soak run (all seeded, all replayable).

    The defaults put cache-miss assembly in the regime where the
    executor's dispatch decision is closest to the line:

    - ``sizes`` is a 2048x16x4 cube (2^17 cells): fused batch nodes
      cost ~122k cells, above :data:`repro.core.exec.DISPATCH_THRESHOLD`
      (2^16), so every cache-miss batch engages the thread pool — and
      one dimension is deep rather than
      three moderately deep, because the batch planner's synthesis
      recursion is combinatorial in *interleaved* dimension depths;
    - the roll-up level universe on that shape has ~179 members, drawn
      with power-law rank skew (``rollup_skew``; classic OLAP hot-key
      behaviour) over a per-phase permutation — larger than the result
      cache's reach at soak length, so cache-miss assemblies keep
      flowing instead of settling into an all-hit steady state;
    - ``batch_size`` is small (interactive dashboard batches, not bulk
      reports): per-batch work is dominated by a handful of medium DAG
      nodes — larger batches amortize the pool round-trip;
    - ``batches`` spans eight drift phases, enough assembly batches for
      the p99 to be a statistic rather than a single unlucky wall.

    ``workers`` passes through to ``query_batch``; ``workers=None`` means
    :data:`repro.server.MAX_WORKERS`.
    """

    seed: int = 101
    sizes: tuple[int, ...] = (2048, 16, 4)
    batches: int = 192
    batch_size: int = 5
    phase_batches: int = 24
    hot_views: int = 3
    hot_ranges: int = 6
    rollup_skew: float = 1.5
    hot_fraction: float = 0.8
    burst_every: int = 6
    burst_cells: int = 32
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.batches < 1 or self.batch_size < 1 or self.phase_batches < 1:
            raise ValueError("batches, batch_size, phase_batches must be >= 1")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.rollup_skew < 1.0:
            raise ValueError("rollup_skew must be >= 1.0 (1.0 = uniform)")
        if any(int(n) < 2 for n in self.sizes):
            raise ValueError("every cube dimension must be >= 2")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["sizes"] = list(self.sizes)
        return payload


def _view_universe(names: list[str]) -> list[list[str]]:
    """Every aggregated view (subset of retained dimensions)."""
    universe: list[list[str]] = []
    for mask in range(1 << len(names)):
        universe.append([n for i, n in enumerate(names) if mask & (1 << i)])
    return universe


def _rollup_pool(names: list[str], sizes: tuple[int, ...]) -> list[dict]:
    """Every roll-up level combination over every dimension subset.

    This is the soak's big query universe (~179 members on the default
    shape) — deliberately larger than the default result-cache bound,
    so a long-running drifting workload keeps producing genuine
    cache-miss assemblies instead of settling into an all-hit steady
    state.
    """
    depths = [max(1, int(n).bit_length() - 1) for n in sizes]
    pool: list[dict] = []
    for mask in range(1, 1 << len(names)):
        picked = [i for i in range(len(names)) if mask & (1 << i)]
        for levels in itertools.product(
            *[range(1, depths[i] + 1) for i in picked]
        ):
            pool.append(
                {names[i]: level for i, level in zip(picked, levels)}
            )
    return pool


def generate_soak_trace(config: SoakConfig) -> list[dict]:
    """One seeded drifting trace: a list of batch-granularity ops.

    Ops: ``{"op": "drift", "phase": p, "hot": [...]}`` at phase
    boundaries, ``query_batch``/``rollup_batch`` (lists of requests),
    ``range`` (one multi-dimensional range sum), and ``ingest``
    (an ``update_many`` burst).  The first phase emits its ``drift``
    marker too (phase 0, no lag measured against it).
    """
    rng = np.random.default_rng(config.seed)
    names = [f"d{i}" for i in range(len(config.sizes))]
    universe = _view_universe(names)
    rollups = _rollup_pool(names, config.sizes)

    trace: list[dict] = []
    hot: list[int] = []
    roll_ranks: list[int] = []
    range_pool: list[list[list[int]]] = []

    def pick_view() -> int:
        if hot and rng.random() < config.hot_fraction:
            return hot[int(rng.integers(len(hot)))]
        return int(rng.integers(len(universe)))

    def pick_rollup() -> int:
        # Power-law rank skew over the phase's permutation: a few hot
        # roll-ups dominate, reuse distances spread across the tail.
        rank = int(len(roll_ranks) * rng.random() ** config.rollup_skew)
        return roll_ranks[min(rank, len(roll_ranks) - 1)]

    for batch in range(config.batches):
        phase = batch // config.phase_batches
        if batch % config.phase_batches == 0:
            k = min(config.hot_views, len(universe))
            hot = [int(i) for i in rng.choice(len(universe), size=k, replace=False)]
            # Hot-key shift: a fresh permutation re-ranks every roll-up.
            roll_ranks = [int(i) for i in rng.permutation(len(rollups))]
            # Hot range windows: dashboards re-run the same spans, so
            # the range engine's intermediates genuinely warm up.
            range_pool = [
                [
                    sorted(int(v) for v in rng.integers(0, n + 1, size=2))
                    for n in config.sizes
                ]
                for _ in range(max(1, config.hot_ranges))
            ]
            trace.append(
                {
                    "op": "drift",
                    "phase": phase,
                    "hot": [universe[i] for i in hot],
                    "mix": list(_MIXES[phase % len(_MIXES)]),
                }
            )
        if config.burst_every and batch % config.burst_every == config.burst_every - 1:
            count = int(rng.integers(config.burst_cells // 2, config.burst_cells + 1))
            trace.append(
                {
                    "op": "ingest",
                    "coords": [
                        [int(rng.integers(0, n)) for n in config.sizes]
                        for _ in range(count)
                    ],
                    "deltas": [int(v) for v in rng.integers(-9, 10, size=count)],
                }
            )
        p_view, p_roll, _ = _MIXES[phase % len(_MIXES)]
        roll = rng.random()
        if roll < p_view:
            trace.append(
                {
                    "op": "query_batch",
                    "requests": [
                        universe[pick_view()]
                        for _ in range(config.batch_size)
                    ],
                }
            )
        elif roll < p_view + p_roll:
            trace.append(
                {
                    "op": "rollup_batch",
                    "levels_list": [
                        rollups[pick_rollup()]
                        for _ in range(config.batch_size)
                    ],
                }
            )
        else:
            if rng.random() < config.hot_fraction:
                ranges = range_pool[int(rng.integers(len(range_pool)))]
            else:
                ranges = [
                    sorted(int(v) for v in rng.integers(0, n + 1, size=2))
                    for n in config.sizes
                ]
            trace.append({"op": "range", "ranges": ranges})
    return trace


def save_soak_trace(trace: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(trace, indent=2) + "\n")
    return path


def load_soak_trace(path: str | Path) -> list[dict]:
    trace = json.loads(Path(path).read_text())
    if not isinstance(trace, list):
        raise ValueError(f"soak trace file {path} must hold a JSON list")
    return trace
