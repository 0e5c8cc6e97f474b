"""Overhead of the always-on incident layer on the serving hot path.

The flight recorder (:mod:`repro.obs.flight`), per-site profiler and
workload fingerprint (:mod:`repro.obs.fingerprint`), and burn-rate alert
engine (:mod:`repro.obs.alerts`) are *always on* in the default server —
they are how an incident that already happened gets explained.  Their
budget is therefore stricter than the tracing bound: the whole layer may
add at most **1.10x** on top of a server with it switched off.

This benchmark serves the same mixed workload (views, a shared-plan
batch, a range sum) on two servers that both run full tracing (whose own
cost is bounded separately by ``bench_tracing_overhead.py``):

- **instrumented** — the default server: flight recorder and site
  profiler listening on every finished span, fingerprint tracker fed per
  query, alert engine fed per outcome;
- **baseline** — ``OLAPServer(..., flight=False, alerts=False)``: the
  incident telemetry off, isolating exactly the layer this gate bounds.

and reports the min-of-N wall-time ratio.  ``--check`` enforces the
acceptance bound (instrumented <= 1.10x baseline); ``--compare
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

from repro.replay import seeded_cube
from repro.server import OLAPServer

REPEATS = 7

#: The acceptance bound: the always-on incident layer (flight recorder +
#: site profiler + fingerprint + alerts) may cost at most this factor
#: over the same server with that layer off.
MAX_INSTRUMENTED_OVER_BASELINE = 1.10

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


def serve_round(server: OLAPServer) -> int:
    """One mixed serving round; returns the number of queries issued."""
    names = [f"d{i}" for i in range(len(server.shape.sizes))]
    queries = 0
    for name in names:
        server.view([name])
        queries += 1
    server.query_batch([[name] for name in names] + [names])
    queries += len(names) + 1
    server.range_sum(tuple((1, n - 1) for n in server.shape.sizes))
    queries += 1
    return queries


def timed_rounds(server: OLAPServer, rounds: int) -> float:
    """Min-of-N wall time of one serving round (an untimed
    ``reconfigure()`` between rounds drops the result cache and the range
    intermediates so assembly — the instrumented work — runs)."""
    best = float("inf")
    for _ in range(rounds):
        server.reconfigure()
        t0 = time.perf_counter()
        serve_round(server)
        best = min(best, time.perf_counter() - t0)
    return best


def run(sizes, rounds=REPEATS) -> dict:
    instrumented = make_server(sizes, telemetry=True)
    baseline = make_server(sizes, telemetry=False)

    # Interleave measurement order to decorrelate from machine drift.
    baseline_s = timed_rounds(baseline, rounds)
    instrumented_s = timed_rounds(instrumented, rounds)
    baseline_s = min(baseline_s, timed_rounds(baseline, rounds))
    instrumented_s = min(instrumented_s, timed_rounds(instrumented, rounds))

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


def compare(result: dict, baseline: dict) -> list[str]:
    """Lower-is-better ratio compare against the checked-in report."""
    current = result["instrumented_over_baseline"]
    reference = baseline["instrumented_over_baseline"]
    if current > reference * REGRESSION_FACTOR:
        return [
            f"instrumented_over_baseline {current:.3f} > "
            f"{reference:.3f} * {REGRESSION_FACTOR}"
        ]
    return []


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
