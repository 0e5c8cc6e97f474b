"""Counter/gauge/histogram metrics with a thread-safe registry.

The hot path of the reproduction (assembly, selection sweeps, range
queries, the server cache) increments named metrics through the *current*
:class:`MetricsRegistry`.  Components that own a registry (notably
:class:`repro.server.OLAPServer`) activate it around their work so nested
instrumentation lands in the right place; everything else falls back to a
process-wide default registry.

The model is deliberately Prometheus-shaped but dependency-free:

- :class:`Counter` — monotone totals (queries served, cache hits, sweep
  batches).
- :class:`Gauge` — last-written values (cache size, selection epoch).
- :class:`Histogram` — bucketed distributions of observed values
  (operations per assembly, query latency).  Alongside the running
  ``count/sum/min/max``, observations land in exponential buckets, from
  which ``stats()`` estimates p50/p95/p99 by linear interpolation within
  the covering bucket — the SLO quantiles ``health()`` and the Prometheus
  exposition report.

Metrics accept optional ``**labels``; each distinct label combination is an
independent time series.  All mutation goes through one registry lock, so
concurrent query threads can share a server registry safely.

Each metric kind has one write implementation, on its *bound series*:
``metric.labels(**labels)`` resolves the label key once and returns a handle
whose ``inc`` / ``set`` / ``observe`` take no labels.  A per-query writer
binds its handles where it declares its metrics and pays no key
construction per write; ``metric.inc(**labels)`` and friends are sugar that
bind and write in one call.

Per-metric label cardinality is bounded (``MetricsRegistry(max_label_sets=
...)``): once a metric holds that many distinct label combinations, writes
carrying *new* combinations fold into a single ``{overflow="true"}`` series
and each folded write increments ``metrics_dropped_series_total`` (labelled
by metric), so a high-cardinality star schema — per-element or per-shard
labels gone wild — degrades into one visible overflow bucket instead of an
unbounded registry.

Consumers that fold deferred records into a metric when it is read (the
flight recorder's ``flight_traces_kept_total``) register a *pre-read hook*
(:meth:`MetricsRegistry.add_pre_read`): every read of the registry —
:meth:`~MetricsRegistry.get`, :meth:`~MetricsRegistry.snapshot`, the
Prometheus export, or a read of any metric it holds — runs the hooks
first, outside every metric lock — once per :meth:`MetricsRegistry.reading`
block (``health()``, a diagnostic bundle, a snapshot), not once per read.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram", "MAX_LABEL_SETS",
    "MetricsRegistry", "OVERFLOW_KEY", "SeriesTable", "current_registry",
    "bound_series", "default_registry",
]

#: Label sets are stored as sorted ``(key, value)`` tuples.
LabelKey = tuple[tuple[str, str], ...]

#: Default per-metric bound on distinct label combinations; the overflow
#: series does not count against it.
MAX_LABEL_SETS = 256

#: Where writes land once a metric's label cardinality bound is hit.
OVERFLOW_KEY: LabelKey = (("overflow", "true"),)


def _label_key(labels: dict) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Shared bookkeeping for all metric kinds."""

    kind = "metric"
    #: The bound-series class of this kind (set by each subclass).
    _bound: type
    #: The owning registry's :meth:`MetricsRegistry.pre_read`, run before
    #: every read (``None`` for a metric outside a registry).
    _pre_read = None

    def __init__(
        self,
        name: str,
        description: str,
        lock: threading.RLock,
        max_series: int | None = None,
        on_overflow=None,
    ):
        self.name = name
        self.description = description
        self._lock = lock
        self._series: dict[LabelKey, float | dict] = {}
        self._max_series = max_series
        self._on_overflow = on_overflow

    def labels(self, **labels):
        """The bound series of one label combination.

        Resolves the label key once; the handle's writes take no labels.
        Binding creates nothing — the series appears on its first write,
        and the cardinality guard is applied on every write, so a handle
        bound past the bound folds into the overflow series like any
        other writer.
        """
        return self._bound(self, _label_key(labels))

    def _admit(self, key: LabelKey) -> LabelKey:
        """Cardinality guard for a *new* series (lock held): the key the
        write may use.

        A new combination past the bound is folded into
        :data:`OVERFLOW_KEY` and reported to the registry's overflow hook
        (which feeds ``metrics_dropped_series_total``).  Existing series
        never get here: the bound series check membership first.
        """
        if (
            self._max_series is None
            or len(self._series) < self._max_series
            or key == OVERFLOW_KEY
        ):
            return key
        if self._on_overflow is not None:
            self._on_overflow(self.name)
        return OVERFLOW_KEY

    def _before_read(self) -> None:
        if self._pre_read is not None:
            self._pre_read()

    def labelsets(self) -> tuple[LabelKey, ...]:
        """All label combinations observed so far."""
        self._before_read()
        with self._lock:
            return tuple(self._series)

    def snapshot(self) -> dict:
        """``{"type", "description", "values"}`` with rendered label keys."""
        self._before_read()
        with self._lock:
            values = {
                _render_labels(key): (
                    {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in series.items()
                    }
                    if isinstance(series, dict)
                    else series
                )
                for key, series in self._series.items()
            }
        return {
            "type": self.kind,
            "description": self.description,
            "values": values,
        }


class _BoundSeries:
    """One labelled series of a metric, its label key resolved once."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: LabelKey):
        self._metric = metric
        self._key = key


class _BoundScalar(_BoundSeries):
    """A counter or gauge series: one float."""

    __slots__ = ()

    #: Whether the series only goes up (a counter's): one write body for
    #: both kinds, so a counter's write is one call, not two.
    _monotonic = False

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the series by ``amount`` (a counter's must be
        non-negative)."""
        if amount < 0 and self._monotonic:
            raise ValueError(
                f"counter {self._metric.name} cannot decrease ({amount})"
            )
        metric = self._metric
        key = self._key
        with metric._lock:
            series = metric._series
            current = series.get(key)
            if current is None:
                key = metric._admit(key)
                current = series.get(key, 0.0)
            series[key] = current + amount

    def value(self) -> float:
        """Current value of the series (0 when never written)."""
        metric = self._metric
        metric._before_read()
        with metric._lock:
            return float(metric._series.get(self._key, 0.0))


class _BoundCounter(_BoundScalar):
    __slots__ = ()

    _monotonic = True


class _BoundGauge(_BoundScalar):
    __slots__ = ()

    def set(self, value: float) -> None:
        """Set the series to ``value``."""
        metric = self._metric
        key = self._key
        with metric._lock:
            series = metric._series
            if key not in series:
                key = metric._admit(key)
            series[key] = float(value)


class _BoundHistogram(_BoundSeries):
    __slots__ = ()

    def observe(self, value: float) -> None:
        """Record one observation into the series."""
        metric = self._metric
        key = self._key
        value = float(value)
        index = bisect_right(metric.bounds, value)
        with metric._lock:
            series = metric._series
            stats = series.get(key)
            if stats is None:
                key = metric._admit(key)
                stats = series.get(key)
                if stats is None:
                    stats = series[key] = {
                        "count": 0,
                        "sum": 0.0,
                        "min": value,
                        "max": value,
                        "buckets": [0] * (len(metric.bounds) + 1),
                    }
            stats["count"] += 1
            stats["sum"] += value
            if value < stats["min"]:
                stats["min"] = value
            elif value > stats["max"]:
                stats["max"] = value
            stats["buckets"][index] += 1


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"
    _bound = _BoundCounter

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be non-negative) to the labelled series."""
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        """Current total of the labelled series (0 when never incremented)."""
        return self.labels(**labels).value()

    def total(self) -> float:
        """Sum over every label combination."""
        self._before_read()
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that can go up and down; reads return the last write."""

    kind = "gauge"
    _bound = _BoundGauge

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        """Current value of the labelled series (0 when never set)."""
        return self.labels(**labels).value()


#: Default histogram bucket upper bounds: a geometric ladder wide enough
#: for both millisecond latencies and scalar-operation counts.  The last
#: implicit bucket is +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(base * 10**exp, 6)
    for exp in range(-2, 9)
    for base in (1.0, 2.5, 5.0)
)


class Histogram(_Metric):
    """Bucketed distribution (count/sum/min/max + quantile estimates)."""

    kind = "histogram"
    _bound = _BoundHistogram

    def __init__(
        self,
        name: str,
        description: str,
        lock: threading.RLock,
        buckets: tuple[float, ...] | None = None,
        max_series: int | None = None,
        on_overflow=None,
    ):
        super().__init__(
            name,
            description,
            lock,
            max_series=max_series,
            on_overflow=on_overflow,
        )
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(
            sorted(float(b) for b in buckets)
        )
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        self.labels(**labels).observe(value)

    def _quantile_locked(self, stats: dict, q: float) -> float:
        """Interpolated quantile from the bucket counts (lock held).

        Finds the bucket containing the q-th ranked observation and
        interpolates linearly inside it, clamped to the observed min/max so
        estimates never leave the data's range (and are exact for q=0/1).
        """
        count = stats["count"]
        if count == 0:
            return 0.0
        rank = q * count
        cum = 0.0
        for index, bucket_count in enumerate(stats["buckets"]):
            if bucket_count == 0:
                continue
            if cum + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else stats["min"]
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else stats["max"]
                )
                lo = max(lo, stats["min"])
                hi = min(hi, stats["max"])
                if hi <= lo:
                    return min(max(lo, stats["min"]), stats["max"])
                frac = (rank - cum) / bucket_count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            cum += bucket_count
        return stats["max"]

    def quantile(self, q: float, **labels) -> float:
        """Estimated q-quantile (0 <= q <= 1) of the labelled series."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        self._before_read()
        with self._lock:
            stats = self._series.get(_label_key(labels))
            if stats is None:
                return 0.0
            return self._quantile_locked(stats, q)

    def stats(self, **labels) -> dict:
        """``{count, sum, min, max, mean, p50, p95, p99}`` of the series."""
        self._before_read()
        with self._lock:
            stats = self._series.get(_label_key(labels))
            if stats is None:
                return {
                    "count": 0,
                    "sum": 0.0,
                    "min": 0.0,
                    "max": 0.0,
                    "mean": 0.0,
                    "p50": 0.0,
                    "p95": 0.0,
                    "p99": 0.0,
                }
            out = {k: v for k, v in stats.items() if k != "buckets"}
            out["p50"] = self._quantile_locked(stats, 0.50)
            out["p95"] = self._quantile_locked(stats, 0.95)
            out["p99"] = self._quantile_locked(stats, 0.99)
        out["mean"] = out["sum"] / out["count"]
        return out

    def buckets(self, **labels) -> tuple[tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair has ``float("inf")`` as its bound and equals the
        total observation count.
        """
        self._before_read()
        with self._lock:
            stats = self._series.get(_label_key(labels))
            counts = list(stats["buckets"]) if stats else [0] * (
                len(self.bounds) + 1
            )
        out = []
        cum = 0
        for bound, count in zip(
            tuple(self.bounds) + (float("inf"),), counts
        ):
            cum += count
            out.append((bound, cum))
        return tuple(out)


class MetricsRegistry:
    """Named metrics, created on first use and shared afterwards.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing metric (and raises ``TypeError``
    when the name is already registered as a different kind).
    """

    def __init__(self, max_label_sets: int | None = MAX_LABEL_SETS):
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        #: Per-metric bound on distinct label combinations (``None`` =
        #: unbounded, the pre-guard behaviour).
        self.max_label_sets = max_label_sets
        #: Pre-read hooks (see the module notes), an immutable tuple so a
        #: read runs them without the lock.
        self._pre_read_hooks: tuple = ()

    def add_pre_read(self, hook) -> None:
        """Run ``hook()`` before every read of this registry or its
        metrics; it must not read the registry itself."""
        with self._lock:
            self._pre_read_hooks = self._pre_read_hooks + (hook,)

    def remove_pre_read(self, hook) -> None:
        """Detach a hook added with :meth:`add_pre_read` (idempotent)."""
        with self._lock:
            self._pre_read_hooks = tuple(
                fn for fn in self._pre_read_hooks if fn != hook
            )

    def pre_read(self) -> None:
        """Run the pre-read hooks (every read does, first), unless this
        thread is inside a :meth:`reading` block, which ran them."""
        if _READING.get() is not self:
            for hook in self._pre_read_hooks:
                hook()

    @contextmanager
    def reading(self):
        """Read this registry inside the block with the pre-read hooks run
        once, on entry (a nested block runs none)."""
        self.pre_read()
        token = _READING.set(self)
        try:
            yield self
        finally:
            _READING.reset(token)

    def _note_series_overflow(self, metric_name: str) -> None:
        """One write folded into an overflow series (guard hook).

        Called with the registry lock held (it is re-entrant); the drop
        counter itself is created unguarded so accounting the overflow can
        never overflow.
        """
        counter = self._metrics.get("metrics_dropped_series_total")
        if counter is None:
            counter = Counter(
                "metrics_dropped_series_total",
                "metric writes folded into an overflow series by the "
                "label-cardinality guard",
                self._lock,
            )
            counter._pre_read = self.pre_read
            self._metrics["metrics_dropped_series_total"] = counter
        counter.inc(metric=metric_name)

    def dropped_series_total(self) -> float:
        """Writes the cardinality guard folded, across all metrics."""
        with self._lock:
            counter = self._metrics.get("metrics_dropped_series_total")
        return float(counter.total()) if counter is not None else 0.0

    def _get_or_create(self, cls, name: str, description: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(
                    name,
                    description,
                    self._lock,
                    max_series=self.max_label_sets,
                    on_overflow=self._note_series_overflow,
                )
                metric._pre_read = self.pre_read
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create the named :class:`Histogram`.

        ``buckets`` (upper bounds; +Inf is implicit) only takes effect at
        creation — later calls return the existing histogram unchanged.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(
                    name,
                    description,
                    self._lock,
                    buckets,
                    max_series=self.max_label_sets,
                    on_overflow=self._note_series_overflow,
                )
                metric._pre_read = self.pre_read
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def get(self, name: str) -> _Metric | None:
        """The named metric, or ``None`` when absent."""
        self.pre_read()
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> tuple[str, ...]:
        """Registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def clear(self) -> None:
        """Drop every metric (tests and long-lived servers)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> dict:
        """``{name: metric.snapshot()}`` for every registered metric."""
        with self.reading():
            with self._lock:
                metrics = dict(self._metrics)
            return {name: metrics[name].snapshot() for name in sorted(metrics)}

    @contextmanager
    def activate(self):
        """Make this registry the current one within the ``with`` block."""
        token = _ACTIVE_REGISTRY.set(self)
        try:
            yield self
        finally:
            _ACTIVE_REGISTRY.reset(token)


_DEFAULT_REGISTRY = MetricsRegistry()
#: The registry whose :meth:`MetricsRegistry.reading` block this thread is in.
_READING: ContextVar = ContextVar("repro_obs_reading", default=None)
_ACTIVE_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_registry", default=None
)


def default_registry() -> MetricsRegistry:
    """The process-wide fallback registry."""
    return _DEFAULT_REGISTRY


def current_registry() -> MetricsRegistry:
    """The registry instrumentation should write to right now.

    The innermost :meth:`MetricsRegistry.activate` wins; outside any
    activation this is :func:`default_registry`.
    """
    return _ACTIVE_REGISTRY.get() or _DEFAULT_REGISTRY


class SeriesTable:
    """A component's series in one registry, each bound on first use.

    ``specs`` maps an attribute to ``(kind, name, description, labels)``:
    reading the attribute the first time creates the metric (``kind`` is
    ``"counter"``, ``"gauge"`` or ``"histogram"``) and binds its series
    for ``labels`` — a dict, or a list of dicts for a list of series — so
    a registry gains a metric only once it is written, as by a by-name
    write, and every later write is one bound call.
    """

    def __init__(self, registry: MetricsRegistry, specs: dict):
        self.registry = registry
        self._specs = specs

    def __getattr__(self, attribute: str):
        try:
            kind, name, description, labels = self._specs[attribute]
        except KeyError:
            raise AttributeError(attribute) from None
        metric = getattr(self.registry, kind)(name, description)
        series = (
            [metric.labels(**each) for each in labels]
            if isinstance(labels, list)
            else metric.labels(**labels)
        )
        setattr(self, attribute, series)
        return series


def bound_series(owner, specs: dict) -> SeriesTable:
    """``owner``'s :class:`SeriesTable` over ``specs`` in the current
    registry, kept on ``owner._series`` (bound per instance: nothing
    module-level keeps a registry alive) and replaced when another
    registry is current."""
    registry = _ACTIVE_REGISTRY.get() or _DEFAULT_REGISTRY
    table = owner._series
    if table is None or table.registry is not registry:
        table = owner._series = SeriesTable(registry, specs)
    return table
