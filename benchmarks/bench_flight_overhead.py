"""Overhead of the always-on incident layer on the serving hot path.

The flight recorder (:mod:`repro.obs.flight`), per-site profiler and
workload fingerprint (:mod:`repro.obs.fingerprint`), and burn-rate alert
engine (:mod:`repro.obs.alerts`) are *always on* in the default server —
they are how an incident that already happened gets explained.  Their
budget is therefore stricter than the tracing bound: the whole layer may
add at most **1.10x** on top of a server with it switched off when
answers are assembled, and **1.50x** when every answer is a cache hit and
the serve envelope is all there is to add to.

This benchmark serves the same mixed workload (views, a shared-plan
batch, a range sum) on two servers that both run full tracing (whose own
cost is bounded separately by ``bench_tracing_overhead.py``):

- **instrumented** — the default server: flight recorder and site
  profiler listening on every finished span, fingerprint tracker fed per
  query, alert engine fed per outcome;
- **baseline** — ``OLAPServer(..., flight=False, alerts=False)``: the
  incident telemetry off, isolating exactly the layer this gate bounds.

and reports the min-of-N wall-time ratio on the two paths of
``bench_tracing_overhead.py``: *assembly* (an untimed
``cold_reconfigure()`` before every round, so answers are assembled) and *warm* (no reconfigure:
cache hits only).  The layer only appends during a call and folds what it
queued when read, so every timed round of both paths ends with a reader —
``server.health()`` on both servers — and the fold is paid inside the
timer.  The report also gives the fold's own cost: microseconds per served
call, and the largest single fold (a full inbox, which a writer folds
inline).  ``--check`` enforces both acceptance bounds; ``--compare
BENCH_flight.json`` fails on ratio regressions beyond the shared noise
factor.

Runs standalone (writes ``BENCH_flight.json``)::

    PYTHONPATH=src python benchmarks/bench_flight_overhead.py \
        --output BENCH_flight.json
    ... --small --check   # CI smoke: tiny cube + the ratio gate

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys

import time

from _gates import REGRESSION_FACTOR, build_parser, finish
from bench_tracing_overhead import (
    WARM_BLOCK,
    cold_reconfigure,
    interleaved,
    serve_round,
)

from repro.obs.tracing import FOLD_AT
from repro.replay import seeded_cube
from repro.server import OLAPServer

#: Interleaved rounds per configuration: as many as CI runs (`--repeats
#: 40`), so a local `--small --check` reads the same estimator.
REPEATS = 40

#: The acceptance bounds: the always-on incident layer (flight recorder +
#: site profiler + fingerprint + alerts) may cost at most this factor
#: over the same server with that layer off — on the assembly path, and on
#: the cache-hit path.
MAX_INSTRUMENTED_OVER_BASELINE = 1.10
MAX_WARM_INSTRUMENTED_OVER_BASELINE = 1.50

#: The ``--small`` CI smoke serves an 8x8 cube where one whole mixed
#: round is under a millisecond, so the layer's constant per-query
#: bookkeeping is proportionally inflated (measured ~1.10x right at the
#: line vs 1.03x at full size).  The acceptance bound above is defined
#: against the full-size round recorded in ``BENCH_flight.json``; the
#: smoke keeps a looser ceiling that still catches a broken layer.
MAX_SMALL_INSTRUMENTED_OVER_BASELINE = 1.30


def make_server(sizes, seed=2024, telemetry=True) -> OLAPServer:
    if telemetry:
        server = OLAPServer(seeded_cube(seed, sizes))
        assert server.flight is not None, "default server lost the recorder"
    else:
        server = OLAPServer(
            seeded_cube(seed, sizes),
            flight=False,
            alerts=False,
        )
        assert server.flight is None and server.alerts is None
    server.reconfigure()
    return server


def timed_rounds(server: OLAPServer, rounds: int) -> float:
    """Min-of-N wall time of one assembling serving round and the
    ``health()`` read that ends it (an untimed ``cold_reconfigure()``
    first, as in ``bench_tracing_overhead.timed_rounds``)."""
    best = float("inf")
    for _ in range(rounds):
        cold_reconfigure(server)
        t0 = time.perf_counter()
        serve_round(server)
        server.health()
        best = min(best, time.perf_counter() - t0)
    return best


def timed_warm_rounds(server: OLAPServer, rounds: int) -> float:
    """Min-of-N wall time per cache-hit round of a block of
    ``WARM_BLOCK`` rounds and the ``health()`` read that ends it."""
    serve_round(server)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(WARM_BLOCK):
            serve_round(server)
        server.health()
        best = min(best, (time.perf_counter() - t0) / WARM_BLOCK)
    return best


def fold_cost(server: OLAPServer, rounds: int) -> dict:
    """What folding costs: an inbox of just under ``FOLD_AT`` cache-hit
    calls is queued, then the four consumers fold it, ``rounds`` times:
    the call log (whose fold ticks the fingerprint), the flight recorder,
    the site profiler and the alert engine.  Returns microseconds per
    call folded and the largest single fold."""
    calls_per_round = len(server.shape.sizes) + 2
    consumers = (
        server._log,
        server.flight,
        server.profiler,
        server.alerts,
    )
    server.health()
    folded_s, calls, largest_s = 0.0, 0, 0.0
    for _ in range(rounds):
        served = 0
        while served + calls_per_round < FOLD_AT:
            serve_round(server)
            served += calls_per_round
        t0 = time.perf_counter()
        for consumer in consumers:
            consumer.fold()
        elapsed = time.perf_counter() - t0
        folded_s += elapsed
        calls += served
        largest_s = max(largest_s, elapsed)
    return {
        "fold_us_per_call": folded_s / calls * 1e6,
        "largest_fold_ms": largest_s * 1e3,
        "fold_at": FOLD_AT,
    }


def run(sizes, rounds=REPEATS) -> dict:
    instrumented = make_server(sizes, telemetry=True)
    baseline = make_server(sizes, telemetry=False)
    baseline_s, instrumented_s = interleaved(
        timed_rounds, baseline, instrumented, rounds
    )
    warm_baseline_s, warm_instrumented_s = interleaved(
        timed_warm_rounds, baseline, instrumented, rounds
    )
    fold = fold_cost(instrumented, rounds)
    flight = instrumented.flight.snapshot()
    alerts = instrumented.alerts.snapshot()
    return {
        "sizes": list(sizes),
        "rounds": 2 * rounds,
        "instrumented_round_s": instrumented_s,
        "baseline_round_s": baseline_s,
        "instrumented_over_baseline": (
            instrumented_s / baseline_s if baseline_s else float("nan")
        ),
        "warm_instrumented_round_s": warm_instrumented_s,
        "warm_baseline_round_s": warm_baseline_s,
        "warm_instrumented_over_baseline": (
            warm_instrumented_s / warm_baseline_s
            if warm_baseline_s
            else float("nan")
        ),
        **fold,
        "flight_traces_seen": flight["traces_seen"],
        "flight_kept": flight["kept_now"],
        "alert_records": alerts["records"],
        "queries_per_round": serve_round(make_server(sizes, telemetry=False)),
    }


def check(result: dict) -> None:
    # The layer must actually have been on — a ratio of 1.0 because
    # nothing listened would be a vacuous pass.
    assert result["flight_traces_seen"] > 0, result
    assert result["alert_records"] > 0, result
    assert (
        result["instrumented_over_baseline"] <= result["max_ratio"]
    ), result
    assert (
        result["warm_instrumented_over_baseline"] <= result["max_warm_ratio"]
    ), result


def compare(result: dict, baseline: dict) -> list[str]:
    """Lower-is-better ratio compare against the checked-in report."""
    return [
        f"{key} {result[key]:.3f} > {baseline[key]:.3f} * {REGRESSION_FACTOR}"
        for key in (
            "instrumented_over_baseline",
            "warm_instrumented_over_baseline",
        )
        if result[key] > baseline[key] * REGRESSION_FACTOR
    ]


def main(argv=None) -> int:
    parser = build_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    sizes = (8, 8) if args.small else (16, 16, 16)
    result = run(sizes, rounds=args.repeats or REPEATS)
    result["max_ratio"] = (
        MAX_SMALL_INSTRUMENTED_OVER_BASELINE
        if args.small
        else MAX_INSTRUMENTED_OVER_BASELINE
    )
    result["max_warm_ratio"] = MAX_WARM_INSTRUMENTED_OVER_BASELINE
    return finish(result, args, check=check, compare=compare)


# ----------------------------------------------------------------------
# pytest-benchmark entry points


def test_serving_instrumented(benchmark):
    server = make_server((8, 8), telemetry=True)
    benchmark.pedantic(
        lambda: timed_rounds(server, 1), rounds=3, warmup_rounds=1
    )


def test_serving_baseline(benchmark):
    server = make_server((8, 8), telemetry=False)
    benchmark.pedantic(
        lambda: timed_rounds(server, 1), rounds=3, warmup_rounds=1
    )


if __name__ == "__main__":
    sys.exit(main())
