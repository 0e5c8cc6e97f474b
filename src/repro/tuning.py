"""Performance knobs as data: :class:`TuningConfig`.

Every layer of the serving stack carries a hand-set performance constant:
the executor's dispatch threshold, the buffer pool's engagement
floor and retention bound, the server's result-cache capacity and default
batch worker count, the retry budget.  Each constant was measured once on
one machine; this module turns the whole set into a value object that can
be threaded through construction (``OLAPServer(cube, tuning=...)``),
persisted per machine (:meth:`TuningConfig.save` /
:meth:`TuningConfig.load`), and searched by the autotuner
(:mod:`repro.soak`).

The module constants remain the defaults: ``TuningConfig()`` is exactly
the historical behaviour, every existing call site keeps working, and a
constructed object validates its own invariants once instead of every
read site re-checking them.

The knob catalogue (:func:`describe_knobs`) is the single authoritative
list — rendered by ``python -m repro stats`` via
:meth:`~repro.server.OLAPServer.health` and by ``docs/tuning.md``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .core.exec import DISPATCH_THRESHOLD
from .core.kernels import POOL_MAX_CELLS, POOL_MIN_CELLS

__all__ = ["TuningConfig", "DEFAULT_TUNING", "describe_knobs", "KNOBS"]

#: Historical server defaults, named here so the dataclass and the knob
#: catalogue quote one definition.
CACHE_ENTRIES = 128
MAX_WORKERS = 4
MAX_RETRIES = 2
RETRY_BACKOFF_MS = 5.0
PLAN_CACHE_ENTRIES = 32
FLIGHT_MAX_TRACES = 64
FLIGHT_HEAD_SAMPLE = 64
ALERT_FAST_WINDOW_S = 60.0
ALERT_SLOW_WINDOW_S = 600.0

#: The knob catalogue: ``(field, default, subsystem, effect)``.  The
#: subsystem names the layer that *reads* the knob; ``describe_knobs``
#: joins this with a config's effective values.
KNOBS: tuple[tuple[str, object, str, str], ...] = (
    (
        "dispatch_threshold",
        DISPATCH_THRESHOLD,
        "core.exec.execute_plan",
        "modeled scalar ops below which a DAG node runs inline instead of "
        "on a pool worker; when no node clears it the whole batch is "
        "demoted to serial",
    ),
    (
        "pool_min_cells",
        POOL_MIN_CELLS,
        "core.kernels.BufferPool (materialize / shard / exec pools)",
        "engagement floor: buffers smaller than this bypass the pool "
        "(the allocator beats a lock round-trip on tiny arrays)",
    ),
    (
        "pool_max_cells",
        POOL_MAX_CELLS,
        "core.kernels.BufferPool (materialize / shard / exec pools)",
        "total cells retained across all shapes; returns beyond the bound "
        "are dropped to the allocator",
    ),
    (
        "cache_entries",
        CACHE_ENTRIES,
        "server.OLAPServer result cache",
        "maximum cached assembled answers (LRU entries keyed by "
        "(element, epoch))",
    ),
    (
        "cache_cells",
        None,
        "server.OLAPServer result cache",
        "total cells the result cache may hold (None = unbounded weight)",
    ),
    (
        "max_workers",
        MAX_WORKERS,
        "server.OLAPServer.query_batch / rollup_batch",
        "default executor worker count for shared-plan batches (cost-aware "
        "dispatch demotes to serial when no node is worth a thread)",
    ),
    (
        "max_retries",
        MAX_RETRIES,
        "server.OLAPServer / shard.ShardedSet",
        "transient-fault retries before a query fails",
    ),
    (
        "retry_backoff_ms",
        RETRY_BACKOFF_MS,
        "server.OLAPServer / shard.ShardedSet",
        "base of the exponential retry backoff, bounded by the deadline",
    ),
    (
        "plan_cache_entries",
        PLAN_CACHE_ENTRIES,
        "core.materialize.MaterializedSet / shard.ShardedSet",
        "multi-target batch plans retained per stored set, least recently "
        "used first out (single-target plans live in the route table, one "
        "per element)",
    ),
    (
        "flight_max_traces",
        FLIGHT_MAX_TRACES,
        "obs.flight.FlightRecorder",
        "full traces the flight recorder retains (tail-biased ring of "
        "error/event/slow/head exemplars); 0 keeps only counters",
    ),
    (
        "flight_head_sample",
        FLIGHT_HEAD_SAMPLE,
        "obs.flight.FlightRecorder",
        "healthy fast-path head-sampling rate (keep 1 in N roots per "
        "(name, kind)); 0 disables head sampling entirely",
    ),
    (
        "alert_fast_window_s",
        ALERT_FAST_WINDOW_S,
        "obs.alerts.AlertEngine",
        "fast burn-rate window in seconds (bucket width is 1/6 of this); "
        "the window that catches sharp SLO regressions",
    ),
    (
        "alert_slow_window_s",
        ALERT_SLOW_WINDOW_S,
        "obs.alerts.AlertEngine",
        "slow burn-rate window in seconds; the window that filters "
        "one-off blips (must be >= the fast window)",
    ),
)


@dataclass(frozen=True)
class TuningConfig:
    """Every serving-stack performance knob, as one immutable value.

    ``TuningConfig()`` reproduces the module-constant defaults exactly.
    Construct with overrides, or :meth:`load` a per-machine profile the
    autotuner (``python -m repro tune``) emitted.  Instances are hashable
    and comparable, so a tuned profile can key caches and appear in
    reports verbatim.
    """

    dispatch_threshold: int = DISPATCH_THRESHOLD
    pool_min_cells: int = POOL_MIN_CELLS
    pool_max_cells: int = POOL_MAX_CELLS
    cache_entries: int = CACHE_ENTRIES
    cache_cells: int | None = None
    max_workers: int = MAX_WORKERS
    max_retries: int = MAX_RETRIES
    retry_backoff_ms: float = RETRY_BACKOFF_MS
    plan_cache_entries: int = PLAN_CACHE_ENTRIES
    flight_max_traces: int = FLIGHT_MAX_TRACES
    flight_head_sample: int = FLIGHT_HEAD_SAMPLE
    alert_fast_window_s: float = ALERT_FAST_WINDOW_S
    alert_slow_window_s: float = ALERT_SLOW_WINDOW_S

    def __post_init__(self) -> None:
        for name in (
            "dispatch_threshold",
            "pool_min_cells",
            "pool_max_cells",
            "cache_entries",
            "plan_cache_entries",
            "flight_max_traces",
            "flight_head_sample",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative int, got {value!r}")
        if self.cache_cells is not None and (
            not isinstance(self.cache_cells, int) or self.cache_cells <= 0
        ):
            raise ValueError(
                f"cache_cells must be a positive int or None, got "
                f"{self.cache_cells!r}"
            )
        if not isinstance(self.max_workers, int) or self.max_workers < 1:
            raise ValueError(
                f"max_workers must be a positive int, got {self.max_workers!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative int, got "
                f"{self.max_retries!r}"
            )
        if self.retry_backoff_ms < 0:
            raise ValueError(
                f"retry_backoff_ms must be non-negative, got "
                f"{self.retry_backoff_ms!r}"
            )
        if self.alert_fast_window_s <= 0 or (
            self.alert_slow_window_s < self.alert_fast_window_s
        ):
            raise ValueError(
                "alert windows must satisfy 0 < alert_fast_window_s <= "
                f"alert_slow_window_s, got {self.alert_fast_window_s!r} / "
                f"{self.alert_slow_window_s!r}"
            )

    # ------------------------------------------------------------------
    # Derivation

    def replace(self, **overrides) -> "TuningConfig":
        """A copy with the named knobs changed (validated on construction)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Persistence

    def to_dict(self) -> dict:
        """JSON-friendly mapping of every knob to its effective value."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningConfig":
        """Build from a mapping; unknown keys are a loud error.

        A typo'd knob in a tuned profile silently falling back to the
        default is exactly the failure mode this class exists to prevent.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown tuning knobs {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**payload)

    def save(self, path: str | Path) -> Path:
        """Write the profile as JSON (the ``repro tune`` output format)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TuningConfig":
        """Read a profile written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


#: The module-constant defaults as one shared immutable instance.
DEFAULT_TUNING = TuningConfig()


def describe_knobs(tuning: TuningConfig | None = None) -> list[dict]:
    """The knob catalogue joined with a config's effective values.

    One row per knob: ``{knob, value, default, subsystem, effect}``.
    Used by :meth:`OLAPServer.health` (so a tuned profile is auditable in
    production output) and by the docs page.
    """
    config = tuning if tuning is not None else DEFAULT_TUNING
    return [
        {
            "knob": name,
            "value": getattr(config, name),
            "default": default,
            "subsystem": subsystem,
            "effect": effect,
        }
        for name, default, subsystem, effect in KNOBS
    ]
