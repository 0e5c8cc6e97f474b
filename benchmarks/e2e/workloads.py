"""Seeded traces for the four end-to-end workloads.

The benchmark owns its load: this module depends only on numpy, and the
program under test receives nothing but the generated operations.  A trace
is a list of ``(kind, payload)`` pairs whose kinds are the public
``OLAPServer`` method names.

Every trace has a *fixed shape* — exact op counts per kind in a fixed
order, element streams consumed cyclically, roll-up batches and ranges
that do not depend on the seed — and the seed decides the data: the cube
values and the update deltas.  The driver compares runs made
with different seeds, so anything a seed could swing (how many misses, how
many expensive elements, which roll-ups share a plan) is pinned by
construction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

READ_KINDS = ("view", "query_batch", "rollup_batch", "range_sum")
KINDS = READ_KINDS + ("update_many",)

#: Members per ``query_batch`` / ``rollup_batch`` request.
BATCH = 5
#: Cells per ``update_many`` burst, cycled.
BURST_CELLS = (32, 40, 48, 56, 64)
#: The power-law roll-up stream is re-permuted every this many ops.
PERMUTE_EVERY = 50

DEFAULT_SEED = 15


@dataclass(frozen=True)
class Workload:
    """One workload: cube, server configuration and per-round trace shape."""

    name: str
    why: str
    sizes: tuple[int, ...]
    #: Operations per round, by kind (exact; a kind left out is not sent).
    counts: dict
    #: Timed rounds of a run of ``run_seconds`` (``BENCHMARK.json``).
    rounds: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Keyword arguments of ``OLAPServer`` (``durability`` is added by the
    #: harness for ``durable`` workloads: it needs a fresh directory).
    server: dict = field(default_factory=dict)
    #: ``reconfigure()`` on the warm-up population during set-up.
    reconfigure: bool = True
    #: The server writes a WAL, each round ends with reconfigure ->
    #: snapshot -> first read, and the run with ``OLAPServer.restore()``.
    durable: bool = False
    #: Roll-up levels are drawn from ``0..max_level`` per dimension
    #: (``None`` = the full hierarchy).
    max_level: int | None = None
    #: Hot roll-up set size and how many batches carry one cold roll-up
    #: (``cold_every = 8``: every eighth ``rollup_batch``).  ``hot = 0``
    #: switches to the power-law stream over the whole universe.
    hot: int = 0
    cold_every: int = 0
    #: Power-law exponent of the ``hot = 0`` roll-up stream; ``skew = 0``
    #: cycles through the universe in one fixed order instead.
    skew: float = 1.5
    #: Distinct ranges cycled through (0 = as many as range ops in a round).
    hot_ranges: int = 0
    #: Reads following each burst are aimed at what the burst touched.
    read_after_write: bool = False
    #: Ops of the round replayed as warm-up before / warm pass after the
    #: set-up ``reconfigure()``.
    warm_ops: int = 600
    #: Oracle sampling: every op of the verified round, then 1 in
    #: ``verify_every`` (``verify_first`` thins the verified round itself
    #: where an oracle answer costs milliseconds).
    verify_first: int = 1
    verify_every: int = 50
    #: Fixed tail percentile of ``read_tail_ms`` (see :func:`tail_rule`).
    tail_percentile: int = 99
    #: Buffer touched before any timer starts (expected peak RSS).
    prefault_mb: int = 128
    #: Which machine probe the timings are scaled by (``harness.MachineProbe``).
    memory_bound: bool = False


ADAPTIVE_SIZES = (64, 16, 8)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dash_hot",
            why=(
                "hot set fits the 128-entry result cache (~99% hits): time is "
                "the per-query pipeline (tracker, element algebra, telemetry), "
                "so executor and kernel changes must not show here"
            ),
            sizes=ADAPTIVE_SIZES,
            counts={
                "view": 1600,
                "query_batch": 800,
                "rollup_batch": 800,
                "range_sum": 800,
            },
            rounds=9,
            # 40 hot + 100 cold roll-ups; every 8th batch carries a cold
            # one, so a round is exactly one cycle of the cold set.
            hot=40,
            cold_every=8,
            tail_percentile=99,
        ),
        Workload(
            name="miss_mix",
            why=(
                "16-entry cache against the 140-member roll-up universe "
                "(power-law 1.5, re-permuted every 50 ops): time is "
                "plan_batch/fuse_plan, per-node dispatch and ElementId algebra"
            ),
            sizes=ADAPTIVE_SIZES,
            counts={
                "view": 400,
                "query_batch": 400,
                "rollup_batch": 900,
                "range_sum": 300,
            },
            rounds=9,
            server={"cache_entries": 16},
            warm_ops=300,
            tail_percentile=99,
        ),
        Workload(
            name="scan_large",
            why=(
                "2^22-cell cube over 2 shards exceeds every cache and never "
                "reconfigures: time is numpy kernels plus scatter/gather, so "
                "Python-dispatch savings must not show here"
            ),
            sizes=(512, 128, 64),
            counts={
                "view": 16,
                "query_batch": 20,
                "rollup_batch": 45,
                "range_sum": 20,
            },
            rounds=8,
            # cache_cells=1 admits no answer: every read assembles, so a
            # latency is one mode (miss), not a seed-dependent mix of two.
            server={"shards": 2, "cache_cells": 1},
            # One set-up is 40 first-touch operations on fresh 32 MiB arrays,
            # 1.2-2.0 s from one to the next in one process: the median of
            # three still moved 18 % between identical runs.
            setups=7,
            reconfigure=False,
            max_level=2,
            # The 27 roll-ups at levels <= 2, cycled in one fixed order.
            skew=0.0,
            hot_ranges=20,
            warm_ops=40,
            verify_first=4,
            verify_every=25,
            tail_percentile=90,
            prefault_mb=1024,
            memory_bound=True,
        ),
        Workload(
            name="ingest_adapt",
            why=(
                "update bursts under a WAL, each followed by reads of what it "
                "patched, then reconfigure -> snapshot -> first read and a "
                "final restore: a read gain paid for by ingest or recovery shows"
            ),
            # reconfigure() and the first read after it each cost ~1 s on
            # 64x16x8; a quarter of the cells keeps >= 7 cycles in a run.
            sizes=(32, 8, 8),
            counts={
                "view": 60,
                "query_batch": 60,
                "rollup_batch": 60,
                "range_sum": 60,
                "update_many": 120,
            },
            rounds=11,
            durable=True,
            # 300 roll-up slots = 6 cycles of 50 of the 96 roll-ups.
            hot=50,
            hot_ranges=32,
            read_after_write=True,
            warm_ops=180,
            verify_every=1,
            tail_percentile=95,
        ),
    )
}


def tail_rule(samples_per_round: int) -> int:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for percentile in (99, 95, 90):
        if samples_per_round * (100 - percentile) >= 1000:
            return percentile
    raise ValueError(
        f"{samples_per_round} samples per round support no tail percentile"
    )


def reads_per_round(workload: Workload) -> int:
    return sum(workload.counts[k] for k in READ_KINDS)


# ----------------------------------------------------------------------
# Element universes


def dim_names(sizes) -> tuple[str, ...]:
    return tuple(f"d{i}" for i in range(len(sizes)))


def view_universe(sizes) -> list[tuple[str, ...]]:
    """Every group-by view as its retained-dimension names."""
    names = dim_names(sizes)
    return [
        keep
        for k in range(len(names) + 1)
        for keep in itertools.combinations(names, k)
    ]


def rollup_universe(sizes, max_level: int | None = None) -> list[tuple[int, ...]]:
    """Every roll-up as per-dimension cascade depths."""
    depths = [n.bit_length() - 1 for n in sizes]
    if max_level is not None:
        depths = [min(d, max_level) for d in depths]
    return list(itertools.product(*(range(d + 1) for d in depths)))


#: Fixed popularity of the group-by views, by position in
#: :func:`view_universe` (3-D: (), d0, d1, d2, d0d1, d0d2, d1d2, d0d1d2).
#: It is a workload parameter, not an input: the selected basis — and with
#: it every assembly cost — follows from it, so a seed must not move it.
VIEW_WEIGHTS = (2, 8, 5, 3, 6, 2, 3, 1)


def smooth_schedule(weights) -> list[int]:
    """Smooth weighted round-robin: index ``i`` appears ``weights[i]`` times,
    spread evenly, so any window of the cycle has the same composition."""
    current = [0] * len(weights)
    total = sum(weights)
    order = []
    for _ in range(total):
        for i, w in enumerate(weights):
            current[i] += w
        best = max(range(len(weights)), key=current.__getitem__)
        current[best] -= total
        order.append(best)
    return order


# ----------------------------------------------------------------------
# Trace generation


class _Cycle:
    """A list consumed cyclically."""

    def __init__(self, items):
        self.items = list(items)
        self.at = 0

    def take(self):
        item = self.items[self.at % len(self.items)]
        self.at += 1
        return item


def _random_range(rng, sizes) -> tuple[tuple[int, int], ...]:
    bounds = []
    for n in sizes:
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        bounds.append((lo, hi))
    return tuple(bounds)


def _power_law_block(rng, universe, slots: int, skew: float) -> list:
    """``slots`` draws from a freshly permuted universe with exact
    rank-frequency counts proportional to ``rank ** -skew``."""
    order = [universe[i] for i in rng.permutation(len(universe))]
    weights = np.arange(1, len(order) + 1, dtype=np.float64) ** -skew
    share = weights / weights.sum() * slots
    counts = np.floor(share).astype(int)
    for i in np.argsort(-(share - counts), kind="stable")[: slots - counts.sum()]:
        counts[i] += 1
    block = [e for e, c in zip(order, counts) for _ in range(c)]
    return [block[i] for i in rng.permutation(len(block))]


def split_hot(universe, sizes, hot: int):
    """Split the roll-up universe into a hot and a cold set with the same
    cost profile: rank it by output volume and take ``hot`` evenly spaced
    members."""
    volume = lambda lv: int(np.prod([n >> k for n, k in zip(sizes, lv)]))
    ranked = sorted(universe, key=lambda lv: (-volume(lv), lv))
    chosen = {int((i + 0.5) * len(ranked) / hot) for i in range(hot)}
    return (
        [lv for i, lv in enumerate(ranked) if i in chosen],
        [lv for i, lv in enumerate(ranked) if i not in chosen],
    )


def _rollup_batches(workload: Workload, fixed) -> list[tuple]:
    """The members of every ``rollup_batch`` of a round, in order."""
    sizes = workload.sizes
    universe = rollup_universe(sizes, workload.max_level)
    batches = workload.counts["rollup_batch"]
    if workload.hot:
        hot, cold = split_hot(universe, sizes, workload.hot)
        hot_stream = _Cycle(hot)
        cold_stream = _Cycle([cold[i] for i in fixed.permutation(len(cold))])
        out = []
        for b in range(batches):
            members = [hot_stream.take() for _ in range(BATCH)]
            if workload.cold_every and b % workload.cold_every == 0:
                members[int(fixed.integers(BATCH))] = cold_stream.take()
            out.append(tuple(members))
        return out
    if not workload.skew:
        stream = _Cycle([universe[i] for i in fixed.permutation(len(universe))])
        return [tuple(stream.take() for _ in range(BATCH)) for _ in range(batches)]
    total = sum(workload.counts.values())
    slots = max(1, round(PERMUTE_EVERY * batches / total)) * BATCH
    stream: list = []
    while len(stream) < batches * BATCH:
        stream.extend(_power_law_block(fixed, universe, slots, workload.skew))
    return [tuple(stream[i * BATCH : (i + 1) * BATCH]) for i in range(batches)]


def build_round(workload: Workload, seed: int) -> list[tuple[str, object]]:
    """The op section of one round (every round replays it).

    Two generators.  ``fixed`` does not see the seed and draws the shape
    of the round: the order of the operations, which roll-ups share a
    batch, the cold order, the ranges, the updated cells.  ``rng`` is
    seeded and draws the data: the deltas (and, in :func:`cube_values`,
    the cube).  Runs with different seeds are
    compared with each other, and with an LRU cache between them even the
    order of two operations decides whether a third one hits — measured:
    two of ten seeded orders put ``miss_mix``'s batch median 25 % lower —
    so the seed must not decide how much work a round is.
    """
    tag = sum(map(ord, workload.name))
    fixed = np.random.default_rng([0xF1DE, tag])
    rng = np.random.default_rng([seed, tag])
    sizes = workload.sizes
    views = view_universe(sizes)
    view_stream = _Cycle([views[i] for i in smooth_schedule(VIEW_WEIGHTS)])

    if workload.read_after_write:
        # burst, then its share of the reads.
        reads = [k for k in READ_KINDS for _ in range(workload.counts[k])]
        reads = [reads[i] for i in fixed.permutation(len(reads))]
        bursts = workload.counts["update_many"]
        per = len(reads) // bursts
        kinds = []
        for b in range(bursts):
            kinds.append("update_many")
            kinds.extend(reads[b * per : (b + 1) * per])
        kinds.extend(reads[bursts * per :])
    else:
        kinds = [k for k in KINDS for _ in range(workload.counts.get(k, 0))]
        kinds = [kinds[i] for i in fixed.permutation(len(kinds))]

    rollup_stream = iter(_rollup_batches(workload, fixed))
    if workload.hot_ranges:
        range_stream = _Cycle(
            [_random_range(fixed, sizes) for _ in range(workload.hot_ranges)]
        )
    else:
        range_stream = _Cycle(
            [_random_range(fixed, sizes) for _ in range(workload.counts["range_sum"])]
        )
    burst_stream = _Cycle(BURST_CELLS)

    ops: list[tuple[str, object]] = []
    touched: np.ndarray | None = None
    for kind in kinds:
        if kind == "view":
            ops.append((kind, view_stream.take()))
        elif kind == "query_batch":
            ops.append((kind, tuple(view_stream.take() for _ in range(BATCH))))
        elif kind == "rollup_batch":
            ops.append((kind, next(rollup_stream)))
        elif kind == "range_sum":
            if workload.read_after_write and touched is not None:
                # A box around one cell the last burst patched.
                cell = touched[int(fixed.integers(len(touched)))]
                bounds = []
                for c, n in zip(cell, sizes):
                    lo = int(fixed.integers(0, int(c) + 1))
                    hi = int(fixed.integers(int(c) + 1, n + 1))
                    bounds.append((lo, hi))
                ops.append((kind, tuple(bounds)))
            else:
                ops.append((kind, range_stream.take()))
        else:
            n = burst_stream.take()
            coords = np.stack(
                [fixed.integers(0, s, size=n) for s in sizes], axis=1
            ).astype(np.int64)
            deltas = rng.integers(1, 10, size=n).astype(np.float64)
            touched = coords
            ops.append((kind, (coords, deltas)))
    return ops


def cube_values(workload: Workload, seed: int) -> np.ndarray:
    """Integer-valued float64 cube, so assembly is bit-exact."""
    rng = np.random.default_rng([seed, 0xC0BE])
    return rng.integers(0, 100, size=workload.sizes).astype(np.float64)


#: Cycles of the view schedule played, untimed, right before every
#: ``reconfigure()``.
SETTLE_CYCLES = 8


def settle_ops(workload: Workload) -> list[tuple[str, object]]:
    """Views in schedule order, the same for every seed.

    ``AccessTracker`` decays every weight on every access (0.98), so the
    population ``reconfigure()`` sees is whatever the last ~50 accesses
    happened to be; after this segment it is the view schedule's own
    frequencies, and every seed selects the same basis."""
    views = view_universe(workload.sizes)
    cycle = [("view", views[i]) for i in smooth_schedule(VIEW_WEIGHTS)]
    return cycle * SETTLE_CYCLES


def _corner(workload: Workload, mask: int):
    return tuple(
        (0, n) if mask >> axis & 1 else (1, n)
        for axis, n in enumerate(workload.sizes)
    )


def cold_read(workload: Workload) -> tuple[str, object]:
    """The first read after each ``reconfigure()`` of an adapt cycle."""
    return ("range_sum", _corner(workload, 0))


def rewarm_ops(workload: Workload) -> list[tuple[str, object]]:
    """Untimed reads after the cold read that bring every warm structure
    back, the same for every seed: the other corner ranges ((0, n) or
    (1, n) per dimension: together they need every dyadic intermediate),
    every view, and the hot roll-ups in rank order."""
    universe = rollup_universe(workload.sizes, workload.max_level)
    hot, _ = split_hot(universe, workload.sizes, workload.hot)
    ops = [("range_sum", _corner(workload, m)) for m in range(1, 1 << len(workload.sizes))]
    ops += [("view", v) for v in view_universe(workload.sizes)]
    ops += [
        ("rollup_batch", tuple(hot[i : i + BATCH])) for i in range(0, len(hot), BATCH)
    ]
    return ops


def trace_digest(ops) -> str:
    """sha256 of the canonical form of a trace."""

    def plain(payload):
        if isinstance(payload, np.ndarray):
            return payload.tolist()
        if isinstance(payload, (tuple, list)):
            return [plain(p) for p in payload]
        return payload

    canonical = json.dumps(
        [[kind, plain(payload)] for kind, payload in ops],
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()
