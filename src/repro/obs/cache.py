"""A bounded LRU cache instrumented through the metrics registry.

:class:`LRUCache` is the storage behind the server's assembled-view result
cache: bounded by entry count and optionally by total *weight* (cells, for
arrays), with hit/miss/eviction/clear counters and size gauges registered
under a configurable name prefix so several caches can share a registry.

Entries carry a **generation tag** for incremental maintenance.  A data
update has three invalidation granularities, coarsest to finest:

- :meth:`clear` — drop everything eagerly (the pre-delta behaviour, still
  what a selection change wants);
- :meth:`bump_generation` — the coarse *epoch* fallback: every current
  entry becomes stale and is dropped lazily on its next lookup (counted as
  ``{name}_stale_drops_total``), so untouched keys cost nothing until
  they are actually consulted;
- :meth:`patch` / :meth:`mark_stale` — the fine-grained path: a linear
  delta is folded into a cached value *in place* (the entry stays a hit,
  counted as ``{name}_patches_total``), or a single touched key is marked
  stale for lazy repair while every other key stays valid.  Values whose
  owner repairs many at once outside the cache are counted the same way
  (:meth:`count_patches`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

from .metrics import MetricsRegistry, current_registry

__all__ = ["LRUCache"]


class _Entry:
    """One cached value with its weight and generation stamp."""

    __slots__ = ("value", "weight", "generation")

    def __init__(self, value, weight: float, generation: int):
        self.value = value
        self.weight = weight
        self.generation = generation


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
        ``{name}_patches_total``, ``{name}_stale_drops_total``,
        ``{name}_generation_bumps_total`` and the gauges
        ``{name}_size`` / ``{name}_weight``.

    All operations take an internal lock, so concurrent query threads can
    share one cache; racing writers at worst recompute a value, never
    corrupt the recency order or the weight accounting.
    """

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
        self._entries: OrderedDict[Any, _Entry] = OrderedDict()
        self._weight = 0.0
        self._generation = 0
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
        self._stale_drops = counter(
            "stale_drops_total", "stale entries dropped lazily on lookup"
        )
        self._generation_bumps = counter(
            "generation_bumps_total",
            "coarse generation bumps (lazy whole-cache invalidations)",
        )
        self._size_gauge = gauge("size", "entries currently cached")
        self._weight_gauge = gauge("weight", "summed weight of cached values")
        self._size_gauge.set(0)
        self._weight_gauge.set(0)

    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """The cached value (refreshing recency), or ``default`` on a miss.

        An entry stamped before the last :meth:`bump_generation` (or
        :meth:`mark_stale`) is dropped here and reported as a miss — the
        lazy arm of the coarse invalidation path.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return default
            if entry.generation != self._generation:
                del self._entries[key]
                self._weight -= entry.weight
                self._stale_drops.inc()
                self._misses.inc()
                self._sync_gauges()
                return default
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry.value

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries to fit."""
        weight = float(self._weigh(value))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= old.weight
            if self.max_weight is not None and weight > self.max_weight:
                # Heavier than the whole budget: drop rather than thrash.
                self._sync_gauges()
                return
            self._entries[key] = _Entry(value, weight, self._generation)
            self._weight += weight
            while len(self._entries) > self.max_entries or (
                self.max_weight is not None and self._weight > self.max_weight
            ):
                _, evicted = self._entries.popitem(last=False)
                self._weight -= evicted.weight
                self._evictions.inc()
            self._sync_gauges()

    def clear(self) -> None:
        """Invalidate everything eagerly (counted separately from evictions)."""
        with self._lock:
            if self._entries:
                self._clears.inc()
            self._entries.clear()
            self._weight = 0.0
            self._sync_gauges()

    # ------------------------------------------------------------------
    # Incremental maintenance

    @property
    def generation(self) -> int:
        """The current data generation new entries are stamped with."""
        with self._lock:
            return self._generation

    def bump_generation(self) -> None:
        """Coarse fallback: mark every current entry stale, lazily.

        Nothing is freed here; each stale entry is dropped (and counted)
        on its next lookup, or evicted by ordinary capacity pressure.  Use
        when a data change cannot be expressed as an in-place patch.
        """
        with self._lock:
            self._generation += 1
            self._generation_bumps.inc()

    def mark_stale(self, key) -> bool:
        """Scoped invalidation: stale exactly one key, others stay valid."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.generation = self._generation - 1
            return True

    def patch(self, key, fn: Callable[[Any], bool]) -> bool:
        """Repair one cached value in place.

        ``fn(value)`` mutates the cached value and returns ``True`` when it
        patched (``False`` = leave untouched and uncounted, e.g. the value
        aliases storage that was already patched).  Stale or absent keys
        return ``False`` without calling ``fn``.  Recency is *not*
        refreshed — patching maintains a value, it does not signal demand.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.generation != self._generation:
                return False
            if not fn(entry.value):
                return False
            self._patches.inc()
            return True

    def count_patches(self, n: int) -> None:
        """Count ``n`` cached values repaired in place without :meth:`patch`
        (their owner scattered into many at once)."""
        if n:
            self._patches.inc(n)

    # ------------------------------------------------------------------

    def _sync_gauges(self) -> None:
        self._size_gauge.set(len(self._entries))
        self._weight_gauge.set(self._weight)

    def __contains__(self, key) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.generation == self._generation

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
        """Non-stale cached keys, least recently used first."""
        with self._lock:
            return tuple(
                key
                for key, entry in self._entries.items()
                if entry.generation == self._generation
            )

    def items(self) -> list:
        """Non-stale ``(key, value)`` pairs, in no particular order.

        Walked over the table itself: a recency-ordered walk of the
        ``OrderedDict`` looks every value up again, re-hashing its key.
        """
        with self._lock:
            generation = self._generation
            return [
                (key, entry.value)
                for key, entry in dict.items(self._entries)
                if entry.generation == generation
            ]
