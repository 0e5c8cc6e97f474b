"""The end-to-end benchmark's layer points still exist in ``src/``.

``benchmarks/e2e/tracing.py`` wraps a fixed list of functions and methods
by name; one that was renamed is only a warning there, and every per-layer
metric computed from its span silently reads 0.  Here a rename fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _points():
    spec = importlib.util.spec_from_file_location("e2e_layer_points", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.POINTS


POINTS = _points()


def test_the_list_is_the_one_the_benchmark_installs():
    assert len(POINTS) > 40
    assert len({point.span for point in POINTS}) == len(POINTS)


@pytest.mark.parametrize("point", POINTS, ids=lambda point: point.span)
def test_layer_point_resolves_to_a_callable(point):
    owner = importlib.import_module(point.module)
    assert point.module.startswith("repro")
    for name in point.target.split("."):
        # ``__dict__``, as ``install`` reads it: an inherited or
        # re-exported name would not be patched where callers look it up.
        assert name in vars(owner), f"{point.module}:{point.target} not found"
        owner = vars(owner)[name]
    raw = getattr(owner, "__func__", owner)  # classmethod / staticmethod
    assert callable(raw), f"{point.module}:{point.target} is not callable"


def test_exec_points_expose_what_the_traced_run_reads():
    """``_plan_attrs`` takes ``len(plan.nodes)`` and ``plan.planned_cost``
    off ``execute_plan``'s first argument."""
    import numpy as np

    from repro.core.element import CubeShape
    from repro.core.exec import execute_plan, plan_batch

    shape = CubeShape((4, 4))
    plan = plan_batch([shape.aggregated_view([0])], (shape.root(),))
    (point,) = [p for p in POINTS if p.span == "exec.execute_plan"]
    result = execute_plan(plan, {shape.root(): np.ones(shape.sizes)})
    assert point.attrs((plan,), result) == {"nodes": 2, "planned_cost": 12}
