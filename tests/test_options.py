"""Every option has a second caller.

An option — a parameter with a default — earns its place only when code
outside ``tests/`` and ``examples/`` sets it to a value of its own;
otherwise the value is a constant beside its reader.  ``SIGNATURES`` pins
the parameters of the serving stack's configurable entry points: the
required ones by name, and per option the non-test file that sets it, or
an :class:`Exempt` reason.  A new option fails here until it names its
caller.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Exempt(NamedTuple):
    """An option kept without a second caller, and why."""

    reason: str


ALGORITHM_2 = Exempt("the paper's Algorithm 2 storage budget (section 5)")
SHARD_AXIS = Exempt("the only lever for float bit-identity under sharding")
RING = Exempt("a telemetry ring size; tests/test_telemetry_budget.py wraps it")

#: ``"module:qualname"`` -> (required parameters, {option: caller}).
SIGNATURES = {
    "repro.server:OLAPServer.__init__": (
        ("cube",),
        {
            "storage_budget": ALGORITHM_2,
            "cache_entries": "benchmarks/e2e/workloads.py",
            "cache_cells": "benchmarks/e2e/workloads.py",
            "observability": "benchmarks/e2e/harness.py",
            "max_in_flight": "benchmarks/bench_resilience_overhead.py",
            "max_retries": "src/repro/resilience/triage.py",
            "shards": "src/repro/durability/gate.py",
            "shard_axis": SHARD_AXIS,
            "durability": "src/repro/durability/gate.py",
            "alerts": "src/repro/resilience/triage.py",
            "flight": "benchmarks/e2e/harness.py",
            "diagnostics_dir": "src/repro/resilience/triage.py",
        },
    ),
    "repro.server:OLAPServer.restore": (
        ("durability",),
        {
            "shards": "src/repro/durability/gate.py",
            "shard_axis": SHARD_AXIS,
            "kwargs": Exempt("forwards OLAPServer.__init__'s options"),
        },
    ),
    "repro.core.materialize:MaterializedSet.__init__": (("shape",), {}),
    "repro.core.materialize:MaterializedSet.assemble_batch": (
        ("targets",),
        {
            "counter": "src/repro/core/range_query.py",
            "max_workers": "src/repro/core/range_query.py",
            "warm": "src/repro/core/range_query.py",
        },
    ),
    "repro.shard.sets:ShardedSet.__init__": (
        ("partition", "base_values"),
        {"max_retries": "src/repro/server.py"},
    ),
    "repro.shard.sets:ShardedSet.assemble_batch": (
        ("targets",),
        {
            "counter": "src/repro/resilience/serve.py",
            "max_workers": "src/repro/resilience/serve.py",
            "warm": "src/repro/resilience/serve.py",
        },
    ),
    "repro.core.range_query:RangeQueryEngine.__init__": (
        ("materialized",),
        {"assemble": "src/repro/server.py"},
    ),
    "repro.core.exec:execute_plan": (
        ("plan", "arrays"),
        {
            "counter": "src/repro/core/materialize.py",
            "max_workers": "src/repro/core/materialize.py",
            "stats": "src/repro/core/materialize.py",
            "span_attrs": "src/repro/shard/sets.py",
            "out": "src/repro/shard/sets.py",
        },
    ),
    "repro.resilience.retry:retry_transient": (
        ("attempt", "counter", "max_retries"),
        {"on_retry": "src/repro/resilience/serve.py"},
    ),
    "repro.core.select_redundant:greedy_redundant_selection": (
        ("initial", "population", "storage_budget"),
        {
            "candidates": "src/repro/baselines/view_greedy.py",
            "remove_obsolete": "src/repro/baselines/view_greedy.py",
        },
    ),
    "repro.core.engine:SelectionEngine.greedy_redundant_selection": (
        (
            "initial",
            "population",
            "storage_budget",
            "candidates",
            "remove_obsolete",
        ),
        {},
    ),
    "repro.core.select_basis:select_minimum_cost_basis": (
        ("shape", "population"),
        {},
    ),
    "repro.core.adaptive:CostModelMonitor.__init__": ((), {}),
    "repro.server:OLAPServer.observe_profile": (("profile",), {}),
    "repro.server:OLAPServer.dump_diagnostics": (
        (),
        {
            "path": "src/repro/obs/incident.py",
            "trigger": "src/repro/obs/incident.py",
        },
    ),
    "repro.obs:Observability.__init__": (
        (),
        {
            "max_spans": RING,
            "max_events": RING,
            "tracing": "benchmarks/e2e/harness.py",
        },
    ),
    "repro.obs.flight:FlightRecorder.__init__": (("tracer", "registry"), {}),
    "repro.obs.fingerprint:SiteProfiler.__init__": (("tracer",), {}),
    "repro.obs.fingerprint:FingerprintTracker.__init__": ((), {}),
    "repro.obs.alerts:AlertEngine.__init__": (
        (),
        {
            "rules": "src/repro/resilience/triage.py",
            "clock": "src/repro/resilience/triage.py",
        },
    ),
}


def _parameters(target: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(required, options)`` of ``target``, without ``self`` / ``cls``."""
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    required, options = [], []
    for name, parameter in inspect.signature(obj).parameters.items():
        if name in ("self", "cls"):
            continue
        has_default = parameter.default is not inspect.Parameter.empty
        if has_default or parameter.kind is inspect.Parameter.VAR_KEYWORD:
            options.append(name)
        else:
            required.append(name)
    return tuple(required), tuple(options)


@pytest.mark.parametrize("target", sorted(SIGNATURES))
def test_the_signature_matches_the_table(target):
    required, options = _parameters(target)
    pinned_required, pinned_options = SIGNATURES[target]
    assert required == pinned_required
    assert options == tuple(pinned_options)


@pytest.mark.parametrize("target", sorted(SIGNATURES))
def test_every_option_names_a_caller_outside_the_tests(target):
    for option, caller in SIGNATURES[target][1].items():
        if isinstance(caller, Exempt):
            assert caller.reason, option
            continue
        assert not caller.startswith(("tests/", "examples/")), option
        source = (ROOT / caller).read_text()
        assert option in source, f"{caller} never mentions {option!r}"
