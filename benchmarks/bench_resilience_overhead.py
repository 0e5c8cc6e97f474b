"""Overhead of the resilience layer on the fault-free hot path.

The resilience tentpole threads four kinds of ambient checks through the
serving path: fault points (one contextvar read when no injector is
active), deadline checks (one contextvar read when no deadline is set),
first-use integrity verification (one checksum per element per seal, then
an empty set-difference), and the admission semaphore (absent when
``max_in_flight`` is None).  This benchmark pins down what all of that
costs when *nothing is injected* — the steady state every production query
pays — by serving the same workload and comparing wall time against the
measured work (scalar ops are identical by construction: the checks do not
change routing).

Also measured: the same workload with a generous deadline + admission
bound active (the bounded-serving configuration), so the marginal cost of
actually using the knobs is visible too.

Runs standalone (writes ``BENCH_resilience.json``)::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py \
        --output BENCH_resilience.json
    ... --small --check   # CI smoke: tiny cube + assertions

or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import sys
import time

from _gates import build_parser, finish
from bench_tracing_overhead import cold_reconfigure

from repro.replay import seeded_cube
from repro.server import OLAPServer

REPEATS = 5


def make_server(sizes, seed=2024, **kwargs) -> OLAPServer:
    return OLAPServer(seeded_cube(seed, sizes), **kwargs)


def serve_round(server: OLAPServer, deadline_ms=None) -> int:
    """One mixed serving round; returns the number of queries issued."""
    names = [f"d{i}" for i in range(len(server.shape.sizes))]
    queries = 0
    for name in names:
        server.view([name], deadline_ms=deadline_ms)
        queries += 1
    server.query_batch(
        [[name] for name in names] + [names], deadline_ms=deadline_ms
    )
    queries += len(names) + 1
    server.range_sum(
        tuple((1, n - 1) for n in server.shape.sizes),
        deadline_ms=deadline_ms,
    )
    queries += 1
    return queries


def timed_rounds(server: OLAPServer, rounds: int, deadline_ms=None) -> float:
    """Min-of-N wall time of one serving round (steady state: an untimed
    ``cold_reconfigure()`` between rounds drops the result cache and the
    range intermediates, so assembly really runs)."""
    best = float("inf")
    for _ in range(rounds):
        cold_reconfigure(server)
        t0 = time.perf_counter()
        serve_round(server, deadline_ms=deadline_ms)
        best = min(best, time.perf_counter() - t0)
    return best


def run(sizes, rounds=REPEATS) -> dict:
    plain = make_server(sizes)
    plain.reconfigure()
    bounded = make_server(sizes, max_in_flight=8)
    bounded.reconfigure()

    plain_s = timed_rounds(plain, rounds)
    bounded_s = timed_rounds(bounded, rounds, deadline_ms=60_000)
    return {
        "sizes": list(sizes),
        "rounds": rounds,
        "plain_round_s": plain_s,
        "bounded_round_s": bounded_s,
        "bounded_over_plain": bounded_s / plain_s if plain_s else float("nan"),
        "queries_per_round": serve_round(make_server(sizes)),
    }


def check(result: dict) -> None:
    # The bounded configuration must not blow up the fault-free path;
    # the factor is loose because CI machines are noisy.
    assert result["bounded_over_plain"] < 5.0, result


def main(argv=None) -> int:
    parser = build_parser(__doc__.splitlines()[0], compare=False)
    args = parser.parse_args(argv)
    sizes = (8, 8) if args.small else (16, 16, 16)
    result = run(sizes, rounds=args.repeats or REPEATS)
    return finish(result, args, check=check)


# ----------------------------------------------------------------------
# pytest-benchmark entry points


def test_fault_free_serving_plain(benchmark):
    server = make_server((8, 8))
    server.reconfigure()
    benchmark.pedantic(
        lambda: timed_rounds(server, 1), rounds=3, warmup_rounds=1
    )


def test_fault_free_serving_bounded(benchmark):
    server = make_server((8, 8), max_in_flight=8)
    server.reconfigure()
    benchmark.pedantic(
        lambda: timed_rounds(server, 1, deadline_ms=60_000),
        rounds=3,
        warmup_rounds=1,
    )


if __name__ == "__main__":
    sys.exit(main())
