"""Resilience: the serve envelope, fault injection, deadlines, chaos.

The serving stack (``repro.server``, ``repro.core.exec``,
``repro.core.materialize``, ``repro.io``) is hardened against partial
failure; this package holds the machinery that bounds and exercises it:

- :mod:`repro.resilience.serve` — the envelope every served call runs in
  (admission, deadline, span, call-log record) and the server's resilient
  assembly: a shared batch recovers per element, and an element of an
  incomplete set from the base cube.
- :mod:`repro.resilience.faults` — a deterministic, seeded fault-injection
  harness.  Named sites in the hot path call :func:`fault_point`, which
  no-ops unless a :class:`FaultInjector` is activated (contextvar-scoped,
  like :mod:`repro.obs`), and then injects exceptions, latency, or array
  corruption on a reproducible schedule.
- :mod:`repro.resilience.deadline` — per-query/batch deadlines, propagated
  by contextvar so the DAG executor can observe them between node
  dispatches without signature plumbing.
- :mod:`repro.resilience.retry` — :func:`retry_transient`, the one
  transient-fault retry loop (fresh scratch counter per try, backoff
  bounded by the ambient deadline); the envelope's assembly and range
  sum and the sharded set's legs keep only their own fallback.
- :mod:`repro.resilience.chaos` — the ``python -m repro chaos`` driver:
  :func:`repro.replay.replay` of a seeded trace under a seeded fault plan
  on a live server; survival is every answer bit-identical to the
  fault-free ndarray :class:`~repro.replay.Replica`.
- :mod:`repro.resilience.triage` — the ``python -m repro diag`` driver:
  the deterministic alert → bundle → evidence gate over the same seeded
  cube and roll-up universe.

The error types these raise live in :mod:`repro.errors`.
"""

from __future__ import annotations

from .chaos import ChaosConfig, render_report, run_chaos
from .deadline import Deadline, check_deadline, current_deadline, deadline_scope
from .faults import (
    FaultInjector,
    FaultRule,
    FiredFault,
    corrupt_array,
    current_injector,
    fault_point,
)
from .retry import retry_transient

__all__ = [
    "ChaosConfig",
    "Deadline",
    "FaultInjector",
    "FaultRule",
    "FiredFault",
    "check_deadline",
    "corrupt_array",
    "current_deadline",
    "current_injector",
    "deadline_scope",
    "fault_point",
    "render_report",
    "retry_transient",
    "run_chaos",
]
