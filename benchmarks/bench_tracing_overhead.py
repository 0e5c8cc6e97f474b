"""Overhead of full hierarchical tracing on the serving hot path.

The telemetry tentpole instruments every serving layer — query spans,
planner spans, per-DAG-node spans with operation counts, cache-lookup
annotations, SLO histograms.  All of it is guarded by
``tracing_active()`` / ambient contextvar reads, so the design target is
that *full* tracing stays within a small factor of the untraced path and
the untraced path pays only contextvar reads.

This benchmark serves the same mixed workload (views, a shared-plan
batch, a range sum) on two servers differing only in their
:class:`~repro.obs.Observability` configuration:

- **traced** — the default: every span recorded, profiles reconstructible;
- **untraced** — ``Observability(tracing=False)``: the tracer exists but
  is never activated, so the ambient ``span()`` helper no-ops.

and reports the min-of-N wall-time ratio.  ``--check`` enforces the
acceptance bound (traced <= 1.25x untraced).

Runs standalone (writes ``BENCH_tracing.json``)::

    PYTHONPATH=src python benchmarks/bench_tracing_overhead.py \
        --output BENCH_tracing.json
    ... --small --check   # CI smoke: tiny cube + the ratio gate

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys
import time

from _gates import build_parser, finish

from repro.obs import Observability
from repro.replay import seeded_cube
from repro.server import OLAPServer

REPEATS = 7

#: The acceptance bound: full tracing may cost at most this factor over
#: the untraced baseline on the same workload.
MAX_TRACED_OVER_UNTRACED = 1.25


def make_server(sizes, seed=2024, traced=True) -> OLAPServer:
    obs = Observability() if traced else Observability(tracing=False)
    server = OLAPServer(seeded_cube(seed, sizes), observability=obs)
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
    intermediates so assembly — the traced work — really runs; without it
    this would measure the cache-hit path instead)."""
    best = float("inf")
    for _ in range(rounds):
        server.reconfigure()
        t0 = time.perf_counter()
        serve_round(server)
        best = min(best, time.perf_counter() - t0)
    return best


def run(sizes, rounds=REPEATS) -> dict:
    traced = make_server(sizes, traced=True)
    untraced = make_server(sizes, traced=False)

    # Interleave measurement order to decorrelate from machine drift.
    untraced_s = timed_rounds(untraced, rounds)
    traced_s = timed_rounds(traced, rounds)
    untraced_s = min(untraced_s, timed_rounds(untraced, rounds))
    traced_s = min(traced_s, timed_rounds(traced, rounds))

    assert untraced.tracer.spans() == (), "untraced server recorded spans"
    return {
        "sizes": list(sizes),
        "rounds": 2 * rounds,
        "traced_round_s": traced_s,
        "untraced_round_s": untraced_s,
        "traced_over_untraced": (
            traced_s / untraced_s if untraced_s else float("nan")
        ),
        "spans_recorded": len(traced.tracer.spans()),
        "queries_per_round": serve_round(make_server(sizes, traced=False)),
    }


def check(result: dict) -> None:
    assert result["spans_recorded"] > 0, result
    assert result["traced_over_untraced"] <= MAX_TRACED_OVER_UNTRACED, result


def main(argv=None) -> int:
    parser = build_parser(__doc__.splitlines()[0], compare=False)
    args = parser.parse_args(argv)
    sizes = (8, 8) if args.small else (16, 16, 16)
    result = run(sizes, rounds=args.repeats or REPEATS)
    result["max_ratio"] = MAX_TRACED_OVER_UNTRACED
    return finish(result, args, check=check)


# ----------------------------------------------------------------------
# pytest-benchmark entry points


def test_serving_traced(benchmark):
    server = make_server((8, 8), traced=True)
    benchmark.pedantic(
        lambda: timed_rounds(server, 1), rounds=3, warmup_rounds=1
    )


def test_serving_untraced(benchmark):
    server = make_server((8, 8), traced=False)
    benchmark.pedantic(
        lambda: timed_rounds(server, 1), rounds=3, warmup_rounds=1
    )


if __name__ == "__main__":
    sys.exit(main())
