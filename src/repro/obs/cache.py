"""A bounded LRU cache instrumented through the metrics registry.

:class:`LRUCache` is the storage behind the server's assembled-view result
cache: bounded by entry count and optionally by total *weight* (cells, for
arrays), with hit/miss/eviction/clear/patch counters and size gauges
registered under a configurable name prefix so several caches can share a
registry.

The cache keeps no notion of staleness.  Its owner repairs cached values
in place when the data changes — :meth:`patch` runs that repair and counts
what it patched — or, when it cannot, drops everything with :meth:`clear`.
An owner that keeps its own record of the values (a slab store) learns of
every value the cache lets go through :attr:`LRUCache.on_drop`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

from .metrics import MetricsRegistry, current_registry

__all__ = ["LRUCache"]


class LRUCache:
    """Least-recently-used mapping with entry and weight bounds.

    Parameters
    ----------
    max_entries:
        Maximum number of cached entries; the least recently used entry is
        evicted first.
    max_weight:
        Optional bound on the summed weights of cached values (e.g. total
        cells across cached arrays).  An item heavier than the whole budget
        is simply not cached.
    weigh:
        Weight of one value; defaults to ``1`` per entry.
    registry / name:
        Metrics land in ``registry`` (default: the current registry) as
        ``{name}_hits_total``, ``{name}_misses_total``,
        ``{name}_evictions_total``, ``{name}_clears_total``,
        ``{name}_patches_total`` and the gauges ``{name}_size`` /
        ``{name}_weight``.

    All operations take an internal lock, so concurrent query threads can
    share one cache; racing writers at worst recompute a value, never
    corrupt the recency order or the weight accounting.  A reader probes
    several keys at once (:meth:`get_many`): one lock hold, and one hits
    and one misses increment per call.  A server keys its result cache by
    level-vector slot (:attr:`~repro.core.element.ElementId.slot`).
    """

    #: Called, under the cache's lock, whenever a value leaves the cache —
    #: replaced, evicted, cleared, or refused as heavier than the budget.
    #: It must take no lock of its own.
    on_drop: Callable[[], None] | None = None

    def __init__(
        self,
        max_entries: int = 128,
        max_weight: float | None = None,
        weigh: Callable[[Any], float] | None = None,
        registry: MetricsRegistry | None = None,
        name: str = "cache",
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.max_weight = max_weight
        self._lock = threading.RLock()
        self._weigh = weigh or (lambda _value: 1.0)
        #: ``key -> (value, weight)``, least recently used first.
        self._entries: OrderedDict[Any, tuple[Any, float]] = OrderedDict()
        #: ``peek(key)``: the ``(value, weight)`` entry of ``key`` or
        #: ``None``, read as it is — no recency refreshed, nothing counted,
        #: no lock (one dict read).
        self.peek = self._entries.get
        self._weight = 0.0
        registry = registry if registry is not None else current_registry()
        self.name = name

        # Every metric is written through its one unlabelled series, bound
        # here: a lookup is a dict probe plus one bound increment.
        def counter(suffix: str, description: str):
            return registry.counter(f"{name}_{suffix}", description).labels()

        def gauge(suffix: str, description: str):
            return registry.gauge(f"{name}_{suffix}", description).labels()

        self._hits = counter(
            "hits_total", "cache lookups answered from the cache"
        )
        self._misses = counter("misses_total", "cache lookups that missed")
        self._evictions = counter(
            "evictions_total", "entries evicted by capacity pressure"
        )
        self._clears = counter("clears_total", "whole-cache invalidations")
        self._patches = counter(
            "patches_total",
            "cached values repaired in place by delta patching",
        )
        self._size_gauge = gauge("size", "entries currently cached")
        self._weight_gauge = gauge("weight", "summed weight of cached values")
        self._size_gauge.set(0)
        self._weight_gauge.set(0)

    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """The cached value (refreshing recency), or ``default`` on a miss."""
        return self.get_many((key,), default)[0]

    def get_many(self, keys, default=None) -> list:
        """Per key, its cached value (refreshing its recency) or
        ``default``, in one lock hold; the hits and the misses are each
        counted with one increment, when there are any."""
        values = []
        hits = 0
        with self._lock:
            entries = self._entries
            for key in keys:
                entry = entries.get(key)
                if entry is None:
                    values.append(default)
                else:
                    entries.move_to_end(key)
                    values.append(entry[0])
                    hits += 1
            if hits:
                self._hits.inc(hits)
            if hits < len(values):
                self._misses.inc(len(values) - hits)
        return values

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries to fit."""
        weight = float(self._weigh(value))
        with self._lock:
            entries = self._entries
            old = entries.pop(key, None)
            dropped = old is not None
            if dropped:
                self._weight -= old[1]
            if self.max_weight is not None and weight > self.max_weight:
                # Heavier than the whole budget: drop rather than thrash.
                self._sync_gauges()
                self._dropped()
                return
            entries[key] = (value, weight)
            self._weight += weight
            evicted = 0
            while len(entries) > self.max_entries or (
                self.max_weight is not None and self._weight > self.max_weight
            ):
                self._weight -= entries.popitem(last=False)[1][1]
                evicted += 1
            if evicted:
                self._evictions.inc(evicted)
                dropped = True
            self._size_gauge.set(len(entries))
            self._weight_gauge.set(self._weight)
            if dropped and self.on_drop is not None:
                self.on_drop()

    def _dropped(self) -> None:
        if self.on_drop is not None:
            self.on_drop()

    def clear(self) -> None:
        """Invalidate everything eagerly (counted separately from evictions)."""
        with self._lock:
            if self._entries:
                self._clears.inc()
                self._dropped()
            self._entries.clear()
            self._weight = 0.0
            self._sync_gauges()

    def patch(self, repair: Callable[[], int]) -> int:
        """Repair cached values in place: ``repair()`` mutates them and
        returns how many it patched, which are counted and returned.

        Runs with no cache lock held — the owner repairs its values under
        its own lock.  Recency is *not* refreshed: patching maintains a
        value, it does not signal demand.
        """
        patched = repair()
        if patched:
            self._patches.inc(patched)
        return patched

    # ------------------------------------------------------------------

    def _sync_gauges(self) -> None:
        self._size_gauge.set(len(self._entries))
        self._weight_gauge.set(self._weight)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def weight(self) -> float:
        """Current summed weight of the cached values."""
        with self._lock:
            return self._weight

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far (0 before any lookup)."""
        hits = self._hits.value()
        lookups = hits + self._misses.value()
        return hits / lookups if lookups else 0.0

    def keys(self) -> tuple:
        """Cached keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def items(self) -> list:
        """``(key, value)`` pairs, in no particular order.

        Walked over the table itself: a recency-ordered walk of the
        ``OrderedDict`` looks every value up again, re-hashing its key.
        """
        with self._lock:
            return [
                (key, entry[0]) for key, entry in dict.items(self._entries)
            ]
