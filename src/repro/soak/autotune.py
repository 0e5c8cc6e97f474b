"""Close the loop on hand-set performance constants.

Every knob in :class:`~repro.tuning.TuningConfig` was originally set by
eyeballing one machine's benchmark run.  This module replaces the
eyeball with measurement, at two timescales:

- :func:`autotune` — **offline** coordinate hill-climb over the knob
  axes with successive-halving trials: each axis's candidate values get
  a short soak run, the better half graduates to a longer run, and the
  survivor becomes the new incumbent.  The search is warm-started by
  :func:`warm_start`, which calibrates the cost model's planned costs
  against measured operations (a :class:`CostModelMonitor` over a probe
  run's planned-vs-measured node profile) and places the dispatch
  threshold just above the calibrated top-quartile node cost — nodes
  below that line never repay a thread round-trip, so searching starts
  near the right decade instead of at the shipped default.
  ``python -m repro tune`` drives this and emits ``tuned.json``.

- :class:`OnlineTuner` — **online**, between batches of a live soak: a
  one-knob hill climber that nudges the dispatch threshold up or down a
  factor of two whenever a window of batch walls got worse, reversing
  direction on regression.  Nudges are applied through the per-call
  ``dispatch_threshold`` override (serving state is never rebuilt) and
  recorded as ``tuning_nudge`` events plus the ``tuning_nudges_total``
  counter, so a drifting deployment leaves an audit trail of what the
  tuner did and when.

Tuning never changes answers — ``repro soak --check`` replays the whole
loop against an ndarray replica byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from ..tuning import DEFAULT_TUNING, TuningConfig
from .harness import _quantile, build_soak_server, run_soak
from .workload import SoakConfig, generate_soak_trace

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = [
    "OnlineTuner",
    "autotune",
    "measure_speedup",
    "render_tune_report",
    "warm_start",
]

#: Dispatch-threshold search bounds (cells of modeled node cost).
THRESHOLD_LO = 1 << 10
THRESHOLD_HI = 1 << 26

#: A challenger must beat the incumbent by this factor before its knob
#: value is adopted.  Knobs whose candidates genuinely tie (every value
#: below the smallest node cost, say) otherwise get decided by scheduler
#: noise — and a noise-adopted move is pure downside on the machines
#: where the tie was real.
ADOPTION_MARGIN = 0.97


def _pow2_above(value: float) -> int:
    """Smallest power of two strictly greater than ``value``."""
    return 1 << max(1, int(value).bit_length())


def _clamp_pow2(value: int, lo: int = THRESHOLD_LO, hi: int = THRESHOLD_HI) -> int:
    return max(lo, min(hi, int(value)))


def _objective(report: dict) -> float:
    """Lower is better: tail-weighted assembly batch wall.

    Reads the assembly-path series (view/roll-up batches): those are the
    walls the executor/cache knobs can actually move — range sums never
    touch the batch executor, and folding their tail in would just add
    tuning-independent noise.  Batch walls discriminate finer than the
    SLO histogram's bucket interpolation, which matters for short
    trials; the p50 term keeps the tuner from trading median latency
    for a lucky tail.
    """
    assembly = report["assembly_ms"]
    return 0.75 * assembly["p99"] + 0.25 * assembly["p50"]


def _floor_quantiles(wall_runs: list[list[float]]) -> dict:
    """Quantiles of the per-batch floor across replays of one trace.

    A machine-noise burst inflates a batch's wall in one replay but
    rarely in every replay, while a systematic cost — a pool round-trip
    that never pays, a cache sized below the working set — recurs in all
    of them.  Taking the per-batch *minimum* across repeated replays of
    the identical trace therefore strips the bursts and keeps the
    signal, and quantiles of that floor trace are far more stable than
    quantiles of any single run (the p99 of one run is a single order
    statistic, owned entirely by whichever burst hit it).
    """
    count = min(len(walls) for walls in wall_runs)
    floor = [min(walls[i] for walls in wall_runs) for i in range(count)]
    return {
        "p50": _quantile(floor, 0.50),
        "p95": _quantile(floor, 0.95),
        "p99": _quantile(floor, 0.99),
    }


def _floor_objective(quantiles: dict) -> float:
    """The tuning objective over a floor-trace quantile dict."""
    return 0.75 * quantiles["p99"] + 0.25 * quantiles["p50"]


def warm_start(
    config: SoakConfig,
    base: TuningConfig | None = None,
    probe_batches: int = 4,
) -> TuningConfig:
    """Calibrate the dispatch threshold from planned-vs-measured profiles.

    Two measurements, no eyeballs:

    1. A short probe against a soak server joins each batch's
       :meth:`~repro.server.OLAPServer.query_profile` node costs and
       folds measured/planned ratios into a :class:`CostModelMonitor`
       exactly as the serving loop does — calibrating modeled cells to
       this machine's actual operation rate.
    2. An A/B replay of the same probe on two fresh servers — one forced
       serial via the ``dispatch_threshold`` override, one under the
       shipped dispatch policy — measures whether a pool round-trip
       actually pays for this workload's node sizes *on this machine*.

    When serial wins the A/B, the warm-started threshold sits one power
    of two above the calibrated *maximum* observed node cost (no node
    this workload produces should dispatch); when dispatch wins, it sits
    above the 75th percentile (only the genuinely large tail should).
    The coordinate search then refines around a measurement instead of a
    guess.
    """
    import time

    from ..core.adaptive import CostModelMonitor

    base = base or DEFAULT_TUNING
    server = build_soak_server(config, tuning=base)
    trace = generate_soak_trace(config)
    # Both assembly-path op kinds: roll-up plans fuse deeper cascades
    # than view plans, so their nodes set the true top of the cost range
    # — a view-only probe would anchor the threshold below them.
    batches = [
        op
        for op in trace
        if op["op"] in ("query_batch", "rollup_batch")
    ][: 2 * probe_batches]
    if not batches:  # degenerate mix: fall back to the base profile
        return base

    def replay(probe_server, op, **overrides) -> None:
        if op["op"] == "query_batch":
            probe_server.query_batch(
                [list(r) for r in op["requests"]],
                max_workers=config.workers,
                **overrides,
            )
        else:
            probe_server.rollup_batch(
                [dict(levels) for levels in op["levels_list"]],
                max_workers=config.workers,
                **overrides,
            )

    monitor = CostModelMonitor()
    planned_costs: list[float] = []
    for op in batches:
        replay(server, op)
        profile = server.query_profile()
        monitor.ingest(profile)
        for node in profile["nodes"]:
            if node["planned"]:
                planned_costs.append(float(node["planned"]))
    if not planned_costs:
        return base

    def probe_wall(dispatch_threshold: int | None) -> float:
        probe_server = build_soak_server(config, tuning=base)
        overrides = (
            {}
            if dispatch_threshold is None
            else {"dispatch_threshold": dispatch_threshold}
        )
        t0 = time.perf_counter()
        for op in batches:
            replay(probe_server, op, **overrides)
        return time.perf_counter() - t0

    serial_wall = probe_wall(THRESHOLD_HI)
    shipped_wall = probe_wall(None)

    calibration = monitor.divergence or 1.0
    ordered = sorted(planned_costs)
    if serial_wall <= shipped_wall:
        anchor = ordered[-1]
    else:
        anchor = ordered[
            min(len(ordered) - 1, int(round(0.75 * (len(ordered) - 1))))
        ]
    threshold = _clamp_pow2(_pow2_above(anchor * calibration))
    return base.replace(dispatch_threshold=threshold)


def _axis_candidates(base: TuningConfig) -> list[tuple[str, list]]:
    """Coordinate axes and their candidate values around the incumbent."""
    t = base.dispatch_threshold
    thresholds = sorted(
        {_clamp_pow2(v) for v in (t >> 4, t >> 2, t, t << 2, t << 4)}
    )
    cache = base.cache_entries
    caches = sorted({max(8, cache // 4), cache, min(4096, cache * 4)})
    pools = sorted({0, 1 << 10, base.pool_min_cells, 1 << 14})
    return [
        ("dispatch_threshold", thresholds),
        ("max_workers", sorted({1, 2, base.max_workers, 8})),
        ("cache_entries", caches),
        ("pool_min_cells", pools),
    ]


def autotune(
    config: SoakConfig | None = None,
    base: TuningConfig | None = None,
    rounds: int = 1,
    trial_batches: int = 24,
    warm: bool = True,
) -> tuple[TuningConfig, dict]:
    """Offline search: coordinate descent with successive-halving trials.

    For each knob axis in turn, every candidate value gets a *short*
    soak trial (``trial_batches`` batches of the drifting workload); the
    better half graduates to best-of-two double-length trials and the
    survivor — if it actually beat the incumbent — becomes the new
    incumbent.  One ``rounds`` pass over all axes is usually enough
    because the axes are nearly separable (the dispatch threshold
    dominates).  ``trial_batches`` defaults to one full drift phase of
    the default soak: a trial's tail statistic needs a phase's worth of
    assembly batches before candidates separated only by rare
    worst-case batches rank by signal instead of scheduler noise.

    Returns ``(best_tuning, report)``; the report logs every trial so a
    tuned profile's provenance is auditable.
    """
    config = config or SoakConfig()
    incumbent = base or DEFAULT_TUNING
    if warm and base is None:
        incumbent = warm_start(config, incumbent)

    def evaluate(tuning: TuningConfig, batches: int, repeats: int = 1) -> float:
        trial_config = dataclasses.replace(config, batches=batches)
        wall_runs = [
            run_soak(
                trial_config, tuning=tuning, adaptation=False, keep_walls=True
            )["assembly_walls"]
            for _ in range(max(1, repeats))
        ]
        return _floor_objective(_floor_quantiles(wall_runs))

    trials: list[dict] = []
    # Survivors graduate to the *full* drifting trace: the knobs that
    # matter most differ only on rare worst-case batches (one oversized
    # fused cascade per phase), and a short trial window that never sees
    # one cannot rank them.  Stage 1 stays short — it only has to get
    # the ordering roughly right.
    full_batches = max(config.batches, 2 * trial_batches)
    incumbent_score = evaluate(incumbent, full_batches, repeats=2)
    for _ in range(max(1, rounds)):
        for knob, candidates in _axis_candidates(incumbent):
            current = getattr(incumbent, knob)
            pool = [v for v in candidates if v != current] + [current]
            # Stage 1: short trials for every candidate.
            scored = []
            for value in pool:
                tuning = incumbent.replace(**{knob: value})
                score = evaluate(tuning, trial_batches)
                scored.append((score, value))
                trials.append(
                    {"knob": knob, "value": value, "stage": 1,
                     "batches": trial_batches, "objective_ms": round(score, 3)}
                )
            scored.sort(key=lambda pair: pair[0])
            # Stage 2: the better half re-runs best-of-two on the full
            # trace, matching the incumbent's own measurement budget so
            # adoption compares like with like.
            survivors = [v for _, v in scored[: max(1, len(scored) // 2)]]
            best_value, best_score = current, incumbent_score
            for value in survivors:
                tuning = incumbent.replace(**{knob: value})
                score = evaluate(tuning, full_batches, repeats=2)
                trials.append(
                    {"knob": knob, "value": value, "stage": 2,
                     "batches": full_batches,
                     "objective_ms": round(score, 3)}
                )
                margin = ADOPTION_MARGIN if value != current else 1.0
                if score < best_score * margin:
                    best_value, best_score = value, score
            if best_value != current:
                incumbent = incumbent.replace(**{knob: best_value})
                incumbent_score = best_score

    report = {
        "config": config.to_dict(),
        "trials": trials,
        "best": incumbent.to_dict(),
        "best_objective_ms": round(incumbent_score, 3),
    }
    return incumbent, report


def measure_speedup(
    config: SoakConfig | None = None,
    tuned: TuningConfig | None = None,
    repeats: int = 3,
) -> dict:
    """Tuned-vs-default soak comparison on identical traces.

    ``repeats`` interleaved replays per profile (default, tuned,
    default, tuned, ... — a burst of machine noise lands on both sides
    instead of biasing whichever one owned that stretch of wall-clock),
    same seeded trace both sides, fresh server per run.  Each side's
    quantiles come from its per-batch floor across the replays
    (:func:`_floor_quantiles`): systematic costs recur in every replay
    and survive the floor, noise bursts do not.  ``speedup`` > 1 means
    the tuned profile's tail-weighted batch wall beat the shipped
    defaults.
    """
    config = config or SoakConfig()
    tuned = tuned or DEFAULT_TUNING
    trace = generate_soak_trace(config)

    default_walls: list[list[float]] = []
    tuned_walls: list[list[float]] = []
    for _ in range(max(1, repeats)):
        for tuning, store in ((None, default_walls), (tuned, tuned_walls)):
            report = run_soak(
                config,
                tuning=tuning,
                trace=trace,
                adaptation=False,
                keep_walls=True,
            )
            store.append(report["assembly_walls"])
    default_q = _floor_quantiles(default_walls)
    tuned_q = _floor_quantiles(tuned_walls)
    default_score = _floor_objective(default_q)
    tuned_score = _floor_objective(tuned_q)
    default_p99 = default_q["p99"]
    tuned_p99 = tuned_q["p99"]
    return {
        "default_objective_ms": round(default_score, 3),
        "tuned_objective_ms": round(tuned_score, 3),
        "default_p99_ms": round(default_p99, 3),
        "tuned_p99_ms": round(tuned_p99, 3),
        "speedup": round(default_score / tuned_score, 3)
        if tuned_score
        else 0.0,
        "p99_speedup": round(default_p99 / tuned_p99, 3) if tuned_p99 else 0.0,
    }


def render_tune_report(report: dict, speedup: dict | None = None) -> str:
    """Human-readable autotune summary (trials, winner, optional speedup)."""
    lines = [
        f"autotune: {len(report['trials'])} trials, best objective "
        f"{report['best_objective_ms']}ms"
    ]
    by_knob: dict[str, int] = {}
    for trial in report["trials"]:
        by_knob[trial["knob"]] = by_knob.get(trial["knob"], 0) + 1
    lines.append(
        "  trials per axis: "
        + ", ".join(f"{k}={n}" for k, n in by_knob.items())
    )
    defaults = DEFAULT_TUNING.to_dict()
    moved = {
        k: v for k, v in report["best"].items() if defaults.get(k) != v
    }
    lines.append(
        "  tuned away from defaults: "
        + (
            ", ".join(f"{k}={v}" for k, v in sorted(moved.items()))
            if moved
            else "(none - defaults won every axis)"
        )
    )
    if speedup is not None:
        lines.append(
            f"  tuned-vs-default: objective {speedup['speedup']}x, "
            f"assembly p99 {speedup['p99_speedup']}x "
            f"({speedup['default_p99_ms']}ms -> {speedup['tuned_p99_ms']}ms)"
        )
    return "\n".join(lines)


class OnlineTuner:
    """Between-batch hill climb on the dispatch threshold.

    Watches windows of batch wall times; when a window's tail got worse
    than the last one, the climb direction flips, and either way the
    threshold moves a factor of two (clamped to
    ``[THRESHOLD_LO, THRESHOLD_HI]``).  The move is applied through the
    per-call ``dispatch_threshold`` override — no serving state is
    rebuilt, so a bad nudge costs one window, not a reconfiguration.
    :meth:`observe` returns the nudge record (or ``None``), which the
    soak harness logs as a ``tuning_nudge`` event.
    """

    def __init__(
        self,
        base: TuningConfig | None = None,
        window: int = 8,
        factor: int = 2,
        lo: int = THRESHOLD_LO,
        hi: int = THRESHOLD_HI,
    ):
        if window < 2:
            raise ValueError("window must be >= 2 batches")
        base = base or DEFAULT_TUNING
        self.value = _clamp_pow2(base.dispatch_threshold, lo, hi)
        self.window = window
        self.factor = factor
        self.lo = lo
        self.hi = hi
        self.nudges = 0
        self._walls: list[float] = []
        self._previous_score: float | None = None
        self._direction = 1

    def overrides(self) -> dict:
        """Per-call executor overrides for the next batch."""
        return {"dispatch_threshold": self.value}

    def observe(self, wall_ms: float) -> dict | None:
        """Fold one batch wall in; returns a nudge record when it moves."""
        self._walls.append(float(wall_ms))
        if len(self._walls) < self.window:
            return None
        ordered = sorted(self._walls)
        score = ordered[int(round(0.9 * (len(ordered) - 1)))]
        self._walls.clear()
        if self._previous_score is not None and score > self._previous_score:
            self._direction = -self._direction
        self._previous_score = score
        step = self.factor if self._direction > 0 else 1.0 / self.factor
        proposed = _clamp_pow2(int(self.value * step), self.lo, self.hi)
        if proposed == self.value:
            # Pinned at a bound: turn around and try the other way.
            self._direction = -self._direction
            step = self.factor if self._direction > 0 else 1.0 / self.factor
            proposed = _clamp_pow2(int(self.value * step), self.lo, self.hi)
            if proposed == self.value:
                return None
        old, self.value = self.value, proposed
        self.nudges += 1
        return {
            "knob": "dispatch_threshold",
            "old": old,
            "new": proposed,
            "window_p90_ms": round(score, 3),
            "direction": "up" if self._direction > 0 else "down",
        }
