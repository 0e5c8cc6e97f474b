"""The metric catalogue: one table for BENCHMARK.json, the report and the README.

``END_TO_END`` rows are ``(name, unit, better, bound, what)``; every time
in them is reported at the reference machine speed
(``harness.MachineProbe``), with the value as measured beside it;
``PER_LAYER`` rows are ``(name, unit, better, layer, moves, on)`` where
``moves`` names the end-to-end metric the layer metric should move and
``on`` the workload it should move it on.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "cube build + server + warm-up trace + reconfigure() + warm pass, median of 3"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "trace ops / their wall (reconfigure, snapshot, restore excluded)"),
    ("view_p50_ms", "ms", "lower", 0.25, "median view() latency"),
    ("batch_p50_ms", "ms", "lower", 0.25, "median query_batch() x5 latency"),
    ("rollup_p50_ms", "ms", "lower", 0.25, "median rollup_batch() x5 latency"),
    ("range_p50_ms", "ms", "lower", 0.25, "median range_sum() latency"),
    ("read_tail_ms", "ms", "lower", 0.25,
     "all read kinds pooled, at the workload's fixed tail percentile"),
    ("peak_rss_mb", "MB", "lower", 0.15, "ru_maxrss of the benchmark process"),
    ("scalar_ops_per_query", "count", "lower", 0.02,
     "ServerStats.operations / queries, the paper's cost unit"),
)

_ALL = "all"

PER_LAYER = (
    # server
    ("server.self_us_per_op", "us", "lower", "server", "ops_per_s, view_p50_ms", "dash_hot"),
    ("server.calls", "count", "lower", "server", "ops_per_s", "dash_hot"),
    # core.adaptive
    ("adaptive.record_us_per_call", "us", "lower", "core.adaptive", "ops_per_s, view_p50_ms", "dash_hot"),
    ("adaptive.tracked_views", "count", "lower", "core.adaptive", "setup_s", "dash_hot"),
    # core.element / cube.hierarchy
    ("element.resolve_us_per_request", "us", "lower", "core.element", "batch_p50_ms, rollup_p50_ms", "dash_hot, miss_mix"),
    # obs
    ("obs.overhead_ratio", "ratio", "lower", "obs", "ops_per_s", "dash_hot"),
    # obs.cache
    ("cache.get_us_per_call", "us", "lower", "obs.cache", "view_p50_ms", "dash_hot"),
    ("cache.hit_ratio", "ratio", "higher", "obs.cache", "ops_per_s", "dash_hot"),
    ("cache.evictions_per_kop", "count", "lower", "obs.cache", "rollup_p50_ms", "miss_mix"),
    ("cache.patch_us_per_entry", "us", "lower", "obs.cache", "ops_per_s", "ingest_adapt"),
    ("cache.patched_per_burst", "count", "lower", "obs.cache", "ops_per_s", "ingest_adapt"),
    # core.materialize
    ("materialize.assemble_self_us_per_call", "us", "lower", "core.materialize", "rollup_p50_ms", "miss_mix"),
    ("materialize.plan_reuse_ratio", "ratio", "higher", "core.materialize", "rollup_p50_ms", "miss_mix"),
    ("materialize.apply_updates_ms_per_burst", "ms", "lower", "core.materialize", "ops_per_s", "ingest_adapt"),
    # core.exec
    ("exec.plan_ms_per_batch", "ms", "lower", "core.exec", "rollup_p50_ms", "miss_mix"),
    ("exec.execute_ms_per_batch", "ms", "lower", "core.exec", "rollup_p50_ms, ops_per_s", "miss_mix"),
    ("exec.nodes_per_batch", "count", "lower", "core.exec", "rollup_p50_ms", "miss_mix"),
    ("exec.planned_cost_per_batch", "count", "lower", "core.exec", "scalar_ops_per_query", "miss_mix"),
    ("exec.dispatch_us_per_node", "us", "lower", "core.exec", "rollup_p50_ms", "miss_mix"),
    # core.kernels / core.operators
    ("kernels.busy_ms_per_batch", "ms", "lower", "core.kernels", "rollup_p50_ms, ops_per_s", "scan_large"),
    ("kernels.mcells_per_s", "Mcells/s", "higher", "core.kernels", "rollup_p50_ms, ops_per_s", "scan_large"),
    ("kernels.calls_per_batch", "count", "lower", "core.kernels", "rollup_p50_ms", "scan_large"),
    ("kernels.pool_hit_ratio", "ratio", "higher", "core.kernels", "peak_rss_mb", "scan_large"),
    ("kernels.wall_share", "ratio", "lower", "core.kernels", "ops_per_s", "scan_large"),
    # shard.sets
    ("shard.gather_self_ms_per_batch", "ms", "lower", "shard.sets", "rollup_p50_ms", "scan_large"),
    ("shard.straggler_ratio", "ratio", "lower", "shard.sets", "read_tail_ms", "scan_large"),
    # core.range_query
    ("range.sum_us_per_call", "us", "lower", "core.range_query", "range_p50_ms", _ALL),
    ("range.cells_read_per_call", "count", "lower", "core.range_query", "range_p50_ms", _ALL),
    ("range.apply_updates_ms_per_burst", "ms", "lower", "core.range_query", "ops_per_s", "ingest_adapt"),
    ("range.cold_first_ms", "ms", "lower", "core.range_query", "adapt.cold_read_ms", "ingest_adapt"),
    # core.delta
    ("delta.patch_us_per_call", "us", "lower", "core.delta", "ops_per_s", "ingest_adapt"),
    ("delta.calls_per_burst", "count", "lower", "core.delta", "ops_per_s", "ingest_adapt"),
    # core.select_basis / core.engine
    ("select.basis_s", "s", "lower", "core.select_basis", "setup_s, adapt.reconfigure_s", "ingest_adapt"),
    ("select.graph_nodes", "count", "lower", "core.select_basis", "setup_s", _ALL),
    ("select.stored_elements", "count", "lower", "core.select_basis", "scalar_ops_per_query", _ALL),
    ("select.expected_cost", "count", "lower", "core.select_basis", "scalar_ops_per_query", _ALL),
    # durability
    ("wal.append_us_per_call", "us", "lower", "durability.wal", "ops_per_s", "ingest_adapt"),
    ("wal.bytes_per_cell", "B", "lower", "durability.wal", "ops_per_s", "ingest_adapt"),
    ("wal.replay_records_per_s", "1/s", "higher", "durability.wal", "adapt.restore_s", "ingest_adapt"),
    ("snapshot.write_ms", "ms", "lower", "durability.snapshot", "adapt.snapshot_ms", "ingest_adapt"),
    ("snapshot.load_ms", "ms", "lower", "durability.snapshot", "adapt.restore_s", "ingest_adapt"),
    ("snapshot.bytes", "B", "lower", "durability.snapshot", "adapt.restore_s", "ingest_adapt"),
    # The adapt cycle and the writes: user-visible, but exercised by one
    # workload only, so they cannot be end-to-end metrics of all four (its
    # ``ops_per_s`` is 85 % update time and gates them).
    ("adapt.reconfigure_s", "s", "lower", "server", "-", "ingest_adapt"),
    ("adapt.snapshot_ms", "ms", "lower", "server", "-", "ingest_adapt"),
    ("adapt.cold_read_ms", "ms", "lower", "server", "-", "ingest_adapt"),
    ("adapt.restore_s", "s", "lower", "server", "-", "ingest_adapt"),
    ("adapt.update_p50_ms", "ms", "lower", "server", "ops_per_s", "ingest_adapt"),
    ("adapt.update_tail_ms", "ms", "lower", "server", "-", "ingest_adapt"),
    ("adapt.update_cells_per_s", "1/s", "higher", "server", "-", "ingest_adapt"),
    ("adapt.update_wall_share", "ratio", "lower", "server", "-", "ingest_adapt"),
    # harness
    ("machine.calib_ms", "ms", "lower", "harness", "-", _ALL),
    ("machine.calib_spread", "ratio", "lower", "harness", "-", _ALL),
    ("trace.overhead_ratio", "ratio", "lower", "harness", "-", _ALL),
    ("trace.spans", "count", "lower", "harness", "-", _ALL),
    ("trace.dropped", "count", "lower", "harness", "-", _ALL),
    ("verify.checked_ops", "count", "higher", "harness", "-", _ALL),
    ("verify.mismatches", "count", "lower", "harness", "-", _ALL),
)

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
