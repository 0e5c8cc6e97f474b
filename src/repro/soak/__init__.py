"""repro.soak — drifting-workload soak harness.

A seeded drifting workload (:mod:`~repro.soak.workload`) is replayed
against a live server while SLO quantiles come from the existing
``server_latency_ms`` histograms and :class:`AdaptationLoop` re-selects
the stored elements from live cost-model telemetry
(:mod:`~repro.soak.harness`).  The server runs with the constants it
ships with — :data:`repro.core.exec.DISPATCH_THRESHOLD`,
:data:`repro.core.kernels.POOL_MIN_CELLS`, :data:`repro.server.MAX_WORKERS`
and the rest are module constants, not soak inputs.  ``python -m repro
soak`` is the CLI entry point; ``benchmarks/bench_soak.py`` is the gated
benchmark.
"""

from .harness import (
    AdaptationLoop,
    build_soak_server,
    render_check_report,
    render_soak_report,
    run_soak,
    run_soak_check,
)
from .workload import (
    SoakConfig,
    generate_soak_trace,
    load_soak_trace,
    save_soak_trace,
)

__all__ = [
    "AdaptationLoop",
    "SoakConfig",
    "build_soak_server",
    "generate_soak_trace",
    "load_soak_trace",
    "render_check_report",
    "render_soak_report",
    "run_soak",
    "run_soak_check",
    "save_soak_trace",
]
