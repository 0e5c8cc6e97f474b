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

- **traced** — the default: every span recorded, profiles reconstructible
  (and, riding the span stream, the flight recorder and site profiler);
- **untraced** — ``Observability(tracing=False)``: the tracer exists but
  is never activated, so the ambient ``span()`` helper no-ops.

and reports the min-of-N wall-time ratio on two paths, because the same
spans weigh very differently against them:

- **assembly** — an untimed re-selection before every round
  (:func:`cold_reconfigure`) drops the result cache, so each answer is
  assembled: milliseconds of numpy per round, against which the spans are
  small (bound 1.25x);
- **warm** — no reconfigure: every answer is a result-cache hit and the
  round is the serve envelope plus its telemetry, nothing else.  This is
  the path a dashboard's re-asked group-bys take, and where a span is a
  large share of the call (bound 1.60x).

``--check`` enforces both bounds.

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

#: Interleaved rounds per configuration: as many as CI runs (`--repeats
#: 40`), so a local `--small --check` reads the same estimator.
REPEATS = 40

#: The acceptance bounds: full tracing may cost at most this factor over
#: the untraced baseline on the same workload — when answers are assembled,
#: and when every answer is a cache hit (the envelope is all there is).
#: The warm bound covers 31 of 32 ``--small`` runs on a 2-vCPU container
#: whose host load varied (medians 1.32–1.42x, highest 1.59x, one at
#: 1.88x); a quiet host read 1.23–1.29x.  It is verified with ``--small``
#: only: at full size ``cold_reconfigure`` passes through a redundant set
#: whose Algorithm 2 selection on the 16^3 cube runs for minutes (its
#: scenario batches are capped near 100 MB, so time, not memory, limits
#: the full size), and no full-size ratio has been measured against it.
MAX_TRACED_OVER_UNTRACED = 1.25
MAX_WARM_TRACED_OVER_UNTRACED = 1.60

#: Cache-hit rounds per timed sample: one is a few hundred microseconds.
WARM_BLOCK = 50


def make_server(sizes, seed=2024, traced=True) -> OLAPServer:
    obs = Observability() if traced else Observability(tracing=False)
    server = OLAPServer(seeded_cube(seed, sizes), observability=obs)
    server.reconfigure()
    return server


def cold_reconfigure(server: OLAPServer) -> None:
    """Re-select with every warm answer dropped.

    A re-selection that keeps the stored set keeps its result cache and
    range intermediates, so this one passes through a redundant set first
    (Algorithm 2 under twice the cube's volume) and then re-selects the
    basis, which is rebuilt from it with an empty cache: every answer of
    the next round is assembled again.
    """
    budget = server.storage_budget
    server.storage_budget = 2 * server.cube.values.size
    server.reconfigure()
    server.storage_budget = budget
    server.reconfigure()


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
    :func:`cold_reconfigure` between rounds drops the result cache and the
    range intermediates so assembly — the traced work — really runs;
    without it this would measure the cache-hit path instead)."""
    best = float("inf")
    for _ in range(rounds):
        cold_reconfigure(server)
        t0 = time.perf_counter()
        serve_round(server)
        best = min(best, time.perf_counter() - t0)
    return best


def timed_warm_rounds(server: OLAPServer, rounds: int) -> float:
    """Min-of-N wall time of one *cache-hit* serving round: no
    reconfigure, so every answer comes from the result cache (and warm
    range intermediates) and the round is envelope plus telemetry."""
    serve_round(server)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(WARM_BLOCK):
            serve_round(server)
        best = min(best, (time.perf_counter() - t0) / WARM_BLOCK)
    return best


def interleaved(timer, first: OLAPServer, second: OLAPServer, rounds: int):
    """Min of ``2 * rounds`` samples of ``timer`` per server, taken in
    strict alternation: the machine changes speed in plateaus of seconds,
    and sample-by-sample alternation shows both servers the fast ones."""
    a = b = float("inf")
    for _ in range(2 * rounds):
        a = min(a, timer(first, 1))
        b = min(b, timer(second, 1))
    return a, b


def run(sizes, rounds=REPEATS) -> dict:
    traced = make_server(sizes, traced=True)
    untraced = make_server(sizes, traced=False)
    untraced_s, traced_s = interleaved(timed_rounds, untraced, traced, rounds)
    warm_untraced_s, warm_traced_s = interleaved(
        timed_warm_rounds, untraced, traced, rounds
    )
    assert untraced.tracer.spans() == (), "untraced server recorded spans"
    return {
        "sizes": list(sizes),
        "rounds": 2 * rounds,
        "traced_round_s": traced_s,
        "untraced_round_s": untraced_s,
        "traced_over_untraced": (
            traced_s / untraced_s if untraced_s else float("nan")
        ),
        "warm_traced_round_s": warm_traced_s,
        "warm_untraced_round_s": warm_untraced_s,
        "warm_traced_over_untraced": (
            warm_traced_s / warm_untraced_s
            if warm_untraced_s
            else float("nan")
        ),
        "spans_recorded": len(traced.tracer.spans()),
        "queries_per_round": serve_round(make_server(sizes, traced=False)),
    }


def check(result: dict) -> None:
    assert result["spans_recorded"] > 0, result
    assert result["traced_over_untraced"] <= result["max_ratio"], result
    assert (
        result["warm_traced_over_untraced"] <= result["max_warm_ratio"]
    ), result


def main(argv=None) -> int:
    parser = build_parser(__doc__.splitlines()[0], compare=False)
    args = parser.parse_args(argv)
    sizes = (8, 8) if args.small else (16, 16, 16)
    result = run(sizes, rounds=args.repeats or REPEATS)
    result["max_ratio"] = MAX_TRACED_OVER_UNTRACED
    result["max_warm_ratio"] = MAX_WARM_TRACED_OVER_UNTRACED
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
