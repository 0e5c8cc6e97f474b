"""Seeded trace generators in the :mod:`repro.replay` op vocabulary.

Two shapes of trace, both pure functions of their arguments so a run is
replayable from its seed:

- :func:`flat_trace` — a flat interleaving of every op kind, its views
  over a small recurring working set (so the result cache genuinely warms
  and delta patching has warm state to repair), with one mid-trace
  ``reconfigure``.
  The update, chaos and recover gates replay it.
- :func:`drifting_trace` — batch-granularity ops whose regime *drifts*:
  the stored selection and the result cache were warm for a workload that
  shifts out from under the server at each phase boundary.  The soak
  harness and ``benchmarks/bench_soak.py`` replay it:

  - **hot-key shifts** — each phase draws a fresh hot set of aggregated
    views; 80% of batch requests hit it, so the cache goes cold at each
    boundary;
  - **diurnal query-mix rotation** — phases rotate through view-heavy,
    rollup-heavy and range-heavy mixes, swinging between the shared-plan
    batch path and the prefix-sum range path;
  - **ingest bursts** — periodic ``update_many`` batches interleave
    streaming writes with the query load.

  Phase boundaries are explicit ``drift`` markers so the harness can
  measure adaptation lag (batches until latency recovers after a shift).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["SoakConfig", "drifting_trace", "flat_trace", "rollup_universe"]

#: Largest ``update_many`` batch of a flat trace.
BULK_MAX = 6

# Diurnal rotation: (view, rollup, range) batch probabilities per phase.
# Phase p uses _MIXES[p % 3]; the swing between rollup- and range-heavy
# phases is what exercises both the batch executor and the range engine.
_MIXES: tuple[tuple[float, float, float], ...] = (
    (0.70, 0.20, 0.10),  # morning: view-heavy dashboard load
    (0.20, 0.60, 0.20),  # midday: rollup-heavy reporting
    (0.30, 0.20, 0.50),  # evening: range-scan analytics
)


def _random_range(rng, sizes) -> list[list[int]]:
    return [sorted(int(v) for v in rng.integers(0, n + 1, size=2)) for n in sizes]


def flat_trace(seed: int, sizes, operations: int) -> list[dict]:
    """A seeded interleaving of mutations and (repeating) queries.

    Views are drawn from a small working set so the same ones recur and
    the result cache warms up — the regime where in-place patching
    matters.  Roughly 60% queries (views, batches, roll-ups, roll-up
    batches, ranges, point cells), 40% mutations (point and bulk), and
    one reconfiguration at the midpoint.
    """
    rng = np.random.default_rng(seed)
    names = [f"d{i}" for i in range(len(sizes))]
    view_pool = [[], [names[0]], [names[-1]], names[:2], list(names)]
    # Roll-ups range over the whole level universe instead: mostly
    # distinct elements, so cache-miss assemblies (and, under chaos, the
    # fault sites on that path) keep flowing after the views have warmed.
    rollup_pool = rollup_universe(sizes)

    def cell() -> list[int]:
        return [int(rng.integers(0, n)) for n in sizes]

    trace: list[dict] = []
    for step in range(operations):
        if step == operations // 2:
            trace.append({"op": "reconfigure"})
        roll = rng.random()
        if roll < 0.22:
            dims = view_pool[int(rng.integers(len(view_pool)))]
            trace.append({"op": "view", "dims": dims})
        elif roll < 0.32:
            k = int(rng.integers(2, len(view_pool) + 1))
            picks = rng.choice(len(view_pool), size=k, replace=True)
            trace.append(
                {"op": "query_batch", "requests": [view_pool[i] for i in picks]}
            )
        elif roll < 0.40:
            levels = rollup_pool[int(rng.integers(len(rollup_pool)))]
            trace.append({"op": "rollup", "levels": levels})
        elif roll < 0.46:
            picks = rng.choice(len(rollup_pool), size=3, replace=True)
            trace.append(
                {"op": "rollup_batch", "levels_list": [rollup_pool[i] for i in picks]}
            )
        elif roll < 0.57:
            trace.append({"op": "range", "ranges": _random_range(rng, sizes)})
        elif roll < 0.62:
            trace.append({"op": "cell", "coords": cell()})
        elif roll < 0.82:
            trace.append(
                {"op": "update", "coords": cell(), "delta": int(rng.integers(-9, 10))}
            )
        else:
            count = int(rng.integers(2, BULK_MAX + 1))
            trace.append(
                {
                    "op": "update_many",
                    "coords": [cell() for _ in range(count)],
                    "deltas": [int(v) for v in rng.integers(-9, 10, size=count)],
                }
            )
    return trace


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


def rollup_universe(sizes) -> list[dict]:
    """Every roll-up level combination over every dimension subset.

    This is the big query universe (~179 members on the default soak
    shape) — deliberately larger than the default result-cache bound, so
    a long-running drifting workload keeps producing genuine cache-miss
    assemblies instead of settling into an all-hit steady state.  Its
    members are pairwise distinct elements, which is what the triage gate
    serves one per query.
    """
    names = [f"d{i}" for i in range(len(sizes))]
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


def drifting_trace(config: SoakConfig) -> list[dict]:
    """One seeded drifting trace: a list of batch-granularity ops.

    Ops: ``{"op": "drift", "phase": p, "hot": [...]}`` at phase
    boundaries, ``query_batch``/``rollup_batch`` (lists of requests),
    ``range`` (one multi-dimensional range sum), and ``update_many``
    (an ingest burst).  The first phase emits its ``drift`` marker too
    (phase 0, no lag measured against it).
    """
    rng = np.random.default_rng(config.seed)
    names = [f"d{i}" for i in range(len(config.sizes))]
    universe = _view_universe(names)
    rollups = rollup_universe(config.sizes)

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
                _random_range(rng, config.sizes)
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
                    "op": "update_many",
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
                ranges = _random_range(rng, config.sizes)
            trace.append({"op": "range", "ranges": ranges})
    return trace
