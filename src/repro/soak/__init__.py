"""repro.soak — trace-replay harnesses over a live server.

Both drive :func:`repro.replay.replay` and check against the one
:class:`~repro.replay.Replica`:

- :mod:`~repro.soak.update` — the streaming-ingest differential gate
  (``python -m repro update``): a flat
  :func:`~repro.workloads.traces.flat_trace` per shard count, with the
  patch-not-clear and one-shard-epoch checks.  Run at shard counts
  1/2/4 it is also the shard-vs-monolith gate.
- :mod:`~repro.soak.harness` — the drifting soak (``python -m repro
  soak``): a :func:`~repro.workloads.traces.drifting_trace` replayed
  while SLO quantiles come from the existing ``server_latency_ms``
  histograms and :meth:`~repro.server.OLAPServer.observe_profile`
  re-selects the stored elements from live cost-model telemetry;
  ``--check`` is its bit-identity gate and ``benchmarks/bench_soak.py``
  the gated benchmark.

The server runs with the constants it ships with —
:data:`repro.core.exec.DISPATCH_THRESHOLD`, :data:`repro.server.MAX_WORKERS`
and the rest are module constants, not soak inputs.
"""

from ..workloads.traces import SoakConfig
from .harness import (
    GATE_CONFIG,
    render_check_report,
    render_soak_report,
    run_soak,
    run_soak_check,
)
from .update import UpdateStreamConfig, run_update_differential

__all__ = [
    "GATE_CONFIG",
    "SoakConfig",
    "UpdateStreamConfig",
    "render_check_report",
    "render_soak_report",
    "run_soak",
    "run_soak_check",
    "run_update_differential",
]
