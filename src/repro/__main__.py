"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro table1
    python -m repro table2
    python -m repro figure8 [--trials N]
    python -m repro figure9 [--trials N] [--budgets N]
    python -m repro all [--quick]
    python -m repro stats [--json] [--queries N] [--seed N] [--serve]
    python -m repro chaos [--seed N] [--json] [--output report.json]
    python -m repro trace [--output trace.json] [--check]
    python -m repro update [--trace FILE] [--shards N,M]
    python -m repro recover [--seed N] [--shards N,M] [--json] [--output R]
    python -m repro soak [--check] [--batches N] [--seed N]
    python -m repro diag [--check] [--output DIR]

``stats`` drives an instrumented demo server (repeated views, roll-ups,
range queries, one mid-run reconfiguration) and prints its metrics
registry, span trace, event log, and health snapshot — the observability
surface every real deployment of :class:`repro.server.OLAPServer` gets
for free.  ``--serve`` additionally starts the ``/metrics`` + ``/health``
HTTP endpoint, scrapes both over HTTP, and prints the responses — the CI
smoke of the Prometheus surface.

``trace`` serves one star-schema ``query_batch`` with tracing on, prints
the planned-vs-measured query profile, and optionally writes the trace as
Chrome trace-event JSON (load it at ``chrome://tracing`` or
https://ui.perfetto.dev).  ``--check`` exits non-zero unless the batch
produced a single connected trace whose measured operation counts equal
the plan — the telemetry acceptance gate.

``update``, ``chaos``, ``recover``, ``soak --check`` and ``diag --check``
are the acceptance gates, each also a CI smoke job.  All replay a seeded
trace (:mod:`repro.workloads.traces`) through :func:`repro.replay.replay`
against the one ndarray :class:`repro.replay.Replica` and exit non-zero
unless every answer is byte-identical to recompute-from-scratch:

- ``update`` — per shard count (so it is also the shard-vs-monolith
  gate), with *zero* coarse cache invalidations on the linear path and
  exactly one shard epoch moved per point update; ``--trace FILE``
  replays a JSON trace file instead of the seeded one;
- ``chaos`` — under a seeded fault plan (transient errors, latency, one
  corrupted stored element), plus a deadline probe;
- ``recover`` — in sacrificial child processes ``SIGKILL``\\ ed at seeded
  points (mid-WAL-append, mid-snapshot), each survivor directory restored
  (including onto different shard counts) with zero lost acknowledged
  updates and a bounded unacknowledged tail;
- ``soak --check`` — over the drifting trace with a re-selection at every
  phase boundary (without ``--check``: the timed soak report);
- ``diag`` — the SLO-triage gate: seeded faults must fire the burn-rate
  alert on the predicted query and auto-dump a valid diagnostic bundle.
"""

from __future__ import annotations

import argparse
import sys


def _integer(text: str, least: int) -> int:
    """``text`` as an integer of at least ``least``, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {least}, got {text!r}"
        )
    return value


def _non_negative(text: str) -> int:
    return _integer(text, 0)


def _positive(text: str) -> int:
    return _integer(text, 1)


def _shard_counts(text: str) -> tuple[int, ...]:
    """Comma-separated shard counts, each a power of two."""
    counts = tuple(_positive(part) for part in text.split(",") if part)
    if not counts or any(n & (n - 1) for n in counts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated powers of two, got {text!r}"
        )
    return counts


def _run_table1() -> str:
    from .experiments import table1

    return table1.main()


def _run_table2() -> str:
    from .experiments import table2

    return table2.main()


def _run_figure8(trials: int) -> str:
    from .experiments import figure8

    return figure8.main(figure8.Figure8Config(num_trials=trials))


def _run_figure9(trials: int, budgets: int) -> str:
    from .experiments import figure9

    return figure9.main(
        figure9.Figure9Config(num_trials=trials, budget_points=budgets)
    )


def _demo_server(
    seed: int, shards: int = 1, sizes: tuple[int, int, int] = (8, 4, 8)
):
    """A sales server over a ``products x stores x days`` cube."""
    from .server import OLAPServer
    from .workloads import SalesConfig, generate_sales_records

    products, stores, days = sizes
    records = generate_sales_records(
        SalesConfig(
            num_products=products,
            num_stores=stores,
            num_days=days,
            num_transactions=400,
            seed=seed,
        )
    )
    return OLAPServer.from_records(
        records,
        ["product", "store", "day"],
        "sales",
        domains={
            "product": [f"P{i:03d}" for i in range(products)],
            "store": [f"S{i:02d}" for i in range(stores)],
            "day": list(range(days)),
        },
        shards=shards,
    )


def _scrape_telemetry(server) -> str:
    """Start the HTTP endpoint, GET /metrics and /health, report both."""
    import json
    from urllib.request import urlopen

    endpoint = server.serve_telemetry(port=0)
    try:
        with urlopen(f"{endpoint.url}/metrics", timeout=5) as resp:
            metrics_body = resp.read().decode()
            metrics_status = resp.status
        with urlopen(f"{endpoint.url}/health", timeout=5) as resp:
            health_body = json.loads(resp.read().decode())
            health_status = resp.status
    finally:
        endpoint.stop()
    return "\n".join(
        [
            f"telemetry endpoint: {endpoint.url}",
            f"GET /metrics -> {metrics_status}, "
            f"{len(metrics_body.splitlines())} lines",
            metrics_body.rstrip(),
            "",
            f"GET /health -> {health_status}",
            json.dumps(health_body, indent=2),
        ]
    )


def _run_stats(
    json_output: bool, queries: int, seed: int, serve: bool, shards: int = 1
) -> str:
    """Serve a demo workload on an instrumented server; report its stats."""
    from .obs.reporting import render_json, render_text

    import numpy as np

    server = _demo_server(seed, shards=shards)
    sizes = server.shape.sizes
    # Repeated aggregated views (the repeats hit the result cache), a
    # roll-up, range sums, streaming updates (point + bulk — patched into
    # the warm cache, not cleared), then a reconfiguration and a second
    # round that misses once per view (new epoch) and hits afterwards.
    for _ in range(max(1, queries // 2)):
        server.view(["product"])
        server.view(["store"])
        server.view(["product", "day"])
    server.rollup({"day": 1})
    server.range_sum(tuple((0, n) for n in sizes))
    server.range_sum(tuple((n // 4, 3 * n // 4) for n in sizes))
    first_cell = {
        dim.name: dim.values[0] for dim in server.cube.dimensions
    }
    server.update(5.0, **first_cell)
    server.update_many(
        np.zeros((3, len(sizes)), dtype=np.int64), [1.0, 2.0, -1.0]
    )
    server.reconfigure()
    for _ in range(max(1, queries - queries // 2)):
        server.view(["product"])
        server.view(["store"])
    if json_output:
        return render_json(
            server.metrics,
            server.tracer,
            health=server.health(),
            events=server.obs.events,
        )
    header = (
        f"OLAP server demo: {server.stats.queries} queries, "
        f"{server.stats.operations} scalar ops, "
        f"{server.stats.reconfigurations} reconfiguration(s), "
        f"epoch {server.epoch}, "
        f"cache hit rate {server._view_cache.hit_rate:.1%}"
    )
    report = header + "\n\n" + render_text(
        server.metrics,
        server.tracer,
        health=server.health(),
        events=server.obs.events,
    )
    if serve:
        report += "\n\n" + _scrape_telemetry(server)
    return report


def _run_trace(
    output: str | None,
    check: bool,
    seed: int,
    workers: int,
) -> tuple[str, int]:
    """Trace one star-schema query batch; report the cost profile.

    Returns ``(report, exit code)``.  With ``--check`` the exit code is
    non-zero unless the batch produced exactly one connected trace (every
    span shares the root's trace id and has a resolvable parent) whose
    measured scalar operations equal the planned cost.
    """
    from pathlib import Path

    from .obs.export import render_chrome_trace
    from .obs.profile import query_profile, render_profile

    # 2^17 cells: the batch's largest node clears
    # ``repro.core.exec.DISPATCH_THRESHOLD``, so the trace shows worker
    # lanes under the configuration that ships.
    server = _demo_server(seed, sizes=(64, 32, 64))
    requests = [
        ["product"],
        ["store"],
        ["day"],
        ["product", "store"],
        ["product", "day"],
        ["store", "day"],
    ]
    server.query_batch(requests, max_workers=workers)
    profile = query_profile(server.tracer)
    spans = server.tracer.trace(profile["trace_id"])
    lines = [render_profile(profile)]
    lanes = sorted({(s.process_id, s.thread_name) for s in spans})
    lines.append(
        f"lanes: {len(lanes)} (process, thread): "
        + ", ".join(f"({pid}, {name})" for pid, name in lanes)
    )
    if output:
        Path(output).write_text(
            render_chrome_trace(server.tracer, profile["trace_id"], indent=2)
            + "\n"
        )
        lines.append(f"chrome trace written to {output} ({len(spans)} spans)")
    code = 0
    if check:
        all_spans = server.tracer.spans()
        trace_ids = {s.trace_id for s in all_spans}
        span_ids = {s.span_id for s in spans}
        connected = all(
            s.parent_id is None or s.parent_id in span_ids for s in spans
        )
        exact = profile["totals"]["planned"] == profile["totals"]["measured"]
        checks = {
            "single trace": len(trace_ids) == 1,
            "parent links resolve": connected,
            "has costed nodes": profile["totals"]["nodes"] > 0,
            "planned == measured": exact,
        }
        lines.append(
            "\n".join(
                f"check {name}: {'ok' if ok else 'FAILED'}"
                for name, ok in checks.items()
            )
        )
        code = 0 if all(checks.values()) else 1
    return "\n\n".join(lines), code


#: The table-driven gates: module, config class, runner, default seed,
#: and whether ``--shards`` / ``--workers`` configure the run.
_GATES = {
    "chaos": ("resilience.chaos", "ChaosConfig", "run_chaos", 7, False),
    "update": (
        "soak.update", "UpdateStreamConfig", "run_update_differential", 23, True
    ),
    "recover": (
        "durability.gate", "RecoveryGateConfig", "run_recovery_gate", 31, True
    ),
}


def _run_gate(name: str, args) -> int:
    """Run one replay gate; non-zero exit unless its report is ``ok``."""
    import importlib
    import json
    from pathlib import Path

    module_name, config_name, runner, default_seed, sharded = _GATES[name]
    module = importlib.import_module(f"repro.{module_name}")
    fields = {"seed": default_seed if args.seed is None else args.seed}
    if sharded:
        fields["shard_counts"] = args.shards
        fields["workers"] = args.workers
    extra = {}
    if name == "update" and args.trace:
        from .replay import load_trace

        extra["trace"] = load_trace(args.trace)
    report = getattr(module, runner)(
        getattr(module, config_name)(**fields), **extra
    )
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        json.dumps(report, indent=2)
        if args.json
        else module.render_report(report)
    )
    return 0 if report["ok"] else 1


def _run_diag(
    seed: int, check: bool, json_output: bool, output: str | None
) -> int:
    """Run the SLO-triage gate; with --check exit non-zero unless it holds.

    With ``--output DIR`` the auto-dumped diagnostic bundles (healthy and
    faulted runs) are kept under that directory for inspection/upload.
    """
    import dataclasses
    import json

    from .resilience.triage import (
        TriageConfig,
        render_triage_report,
        run_triage,
    )

    config = TriageConfig()
    if seed != config.seed:
        config = dataclasses.replace(config, seed=seed)
    report = run_triage(config, directory=output)
    print(
        json.dumps(report, indent=2)
        if json_output
        else render_triage_report(report)
    )
    if check:
        return 0 if report["ok"] else 1
    return 0


def _run_soak(
    seed: int,
    check: bool,
    batches: int | None,
    json_output: bool,
    output: str | None,
) -> int:
    """Replay the drifting soak; with --check, gate on bit-identity."""
    import dataclasses
    import json
    from pathlib import Path

    from .soak import (
        GATE_CONFIG,
        SoakConfig,
        render_check_report,
        render_soak_report,
        run_soak,
        run_soak_check,
    )

    # The gate always runs its own small cube; seed/batches override.
    overrides = {"seed": seed}
    if batches is not None:
        overrides["batches"] = batches
    if check:
        report = run_soak_check(dataclasses.replace(GATE_CONFIG, **overrides))
        rendered = render_check_report(report)
        code = 0 if report["ok"] else 1
    else:
        report = run_soak(dataclasses.replace(SoakConfig(), **overrides))
        rendered = render_soak_report(report)
        code = 0
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2) if json_output else rendered)
    return code


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and regenerate the requested experiments."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the tables and figures of 'Dynamic Assembly of "
            "Views in Data Cubes' (PODS 1998)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "figure8",
            "figure9",
            "all",
            "stats",
            "chaos",
            "trace",
            "update",
            "recover",
            "soak",
            "diag",
        ],
        help="which experiment to regenerate ('stats' runs the "
        "instrumented server demo; 'chaos' runs the seeded "
        "fault-injection acceptance replay; 'trace' serves a traced "
        "query batch and reports its planned-vs-measured profile; "
        "'update' replays an interleaved update/query trace per shard "
        "count and checks delta patching against recompute-from-scratch; "
        "'recover' SIGKILLs durable servers at seeded points and checks "
        "restore loses no acknowledged update; 'soak' replays the "
        "drifting workload — with "
        "--check it gates bit-identity and SLO coverage; 'diag' runs "
        "the deterministic SLO-triage "
        "gate — seeded faults must fire the burn-rate alert on the "
        "predicted query and auto-dump a valid diagnostic bundle)",
    )
    parser.add_argument(
        "--trials",
        type=_positive,
        default=None,
        help="number of random-workload trials (figure8/figure9)",
    )
    parser.add_argument(
        "--budgets",
        type=_positive,
        default=13,
        help="number of storage budget points (figure9)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with 'all': use reduced trial counts",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with 'stats'/'chaos': emit the payload/report as JSON",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="with 'chaos'/'trace': also write the JSON report / Chrome "
        "trace to this path; with 'diag': keep the dumped diagnostic "
        "bundles under this directory",
    )
    parser.add_argument(
        "--queries",
        type=_positive,
        default=8,
        help="with 'stats': demo queries per phase",
    )
    parser.add_argument(
        "--seed",
        type=_non_negative,
        default=None,
        help="with 'stats'/'chaos'/'trace': demo data / fault plan seed",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="with 'stats': start the /metrics + /health endpoint, "
        "scrape it over HTTP, and print the responses",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with 'trace': exit non-zero unless the batch yields one "
        "connected trace with measured ops equal to the plan; with "
        "'diag': exit non-zero unless the triage gate holds",
    )
    parser.add_argument(
        "--workers",
        type=_positive,
        default=4,
        help="with 'trace': executor workers for the traced batch",
    )
    parser.add_argument(
        "--batches",
        type=_positive,
        default=None,
        help="with 'soak': override the soak batch count",
    )
    parser.add_argument(
        "--shards",
        type=_shard_counts,
        default="1,2,4",
        help="with 'update'/'recover': comma-separated shard counts to gate "
        "(each a power of two); with 'stats': shard count of the demo "
        "server (first value)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="with 'update': replay this JSON trace file instead of the "
        "seeded generator (the op format is in repro.replay's docstring)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "soak":
        seed = 101 if args.seed is None else args.seed
        return _run_soak(
            seed,
            args.check,
            args.batches,
            args.json,
            args.output,
        )

    if args.experiment in _GATES:
        return _run_gate(args.experiment, args)

    if args.experiment == "stats":
        seed = 19 if args.seed is None else args.seed
        shards = args.shards[0]
        print(_run_stats(args.json, args.queries, seed, args.serve, shards))
        return 0
    if args.experiment == "diag":
        seed = 7 if args.seed is None else args.seed
        return _run_diag(seed, args.check, args.json, args.output)
    if args.experiment == "trace":
        seed = 19 if args.seed is None else args.seed
        report, code = _run_trace(args.output, args.check, seed, args.workers)
        print(report)
        return code

    outputs: list[str] = []
    if args.experiment in ("table1", "all"):
        outputs.append(_run_table1())
    if args.experiment in ("table2", "all"):
        outputs.append(_run_table2())
    if args.experiment in ("figure8", "all"):
        trials = args.trials or (10 if args.quick else 100)
        outputs.append(_run_figure8(trials))
    if args.experiment in ("figure9", "all"):
        trials = args.trials or (2 if args.quick else 10)
        budgets = 7 if args.quick else args.budgets
        outputs.append(_run_figure9(trials, budgets))

    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
