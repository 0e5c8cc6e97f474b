"""Tests for EXPLAIN: the compiled program a single target runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bases import random_wavelet_packet_basis
from repro.core.element import CubeShape
from repro.core.exec import explain, render_plan
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.core.select_redundant import generation_cost


def ops(plan) -> list[str]:
    return [ins.op for ins in plan.program]


class TestPlanStructure:
    def test_stored_target(self, shape_4x4):
        root = shape_4x4.root()
        plan = explain(root, [root])
        assert ops(plan) == ["stored"]
        assert plan.targets == (root,)
        assert plan.planned_cost == 0

    def test_aggregate_plan(self, shape_4x4):
        root = shape_4x4.root()
        total = shape_4x4.total_aggregation()
        plan = explain(total, [root])
        assert ops(plan) == ["stored", "fused"]
        assert plan.program[0].element == root
        assert plan.planned_cost == 15

    def test_synthesis_plan(self, shape_4x4):
        root = shape_4x4.root()
        p, r = root.children(0)
        plan = explain(root, [p, r])
        assert ops(plan) == ["stored", "stored", "synthesize"]
        assert plan.program[-1].arg == 0
        assert plan.planned_cost == 16

    def test_unreachable_target(self, shape_4x4):
        p = shape_4x4.root().partial_child(0)
        with pytest.raises(ValueError, match="cannot generate"):
            explain(shape_4x4.root(), [p])


class TestPlanCostsMatchProcedure3:
    def test_random_bases(self):
        shape = CubeShape((4, 4))
        for seed in range(10):
            basis = random_wavelet_packet_basis(
                shape, np.random.default_rng(seed)
            )
            for view in shape.aggregated_views():
                plan = explain(view, basis)
                assert plan.planned_cost == generation_cost(view, basis)

    def test_plan_cost_matches_executed_ops(self, shape_4x4, cube_4x4, rng):
        basis = random_wavelet_packet_basis(shape_4x4, rng)
        ms = MaterializedSet.from_cube(cube_4x4, basis)
        view = shape_4x4.aggregated_view([0, 1])
        plan = explain(view, basis)
        counter = OpCounter()
        ms.assemble(view, counter=counter)
        assert counter.total == plan.planned_cost


class TestRendering:
    def test_render_contains_all_nodes(self, shape_4x4):
        root = shape_4x4.root()
        p, r = root.children(1)
        plan = explain(shape_4x4.aggregated_view([0]), [p, r])
        assert render_plan(plan).splitlines() == [
            "read .|P  [stored, 0 ops]",
            "aggregate PP|P from .|P  [6 ops]",
            "read .|R  [stored, 0 ops]",
            "aggregate PP|R from .|R  [6 ops]",
            "synthesize PP|. along dim 1  [4 ops]",
        ]
        assert plan.planned_cost == 16

    def test_a_single_step_renders_as_an_aggregate(self, shape_4x4):
        root = shape_4x4.root()
        plan = explain(root.partial_child(0), [root])
        assert ops(plan) == ["stored", "step"]
        assert render_plan(plan).splitlines() == [
            "read .|.  [stored, 0 ops]",
            "aggregate P|. from .|.  [8 ops]",
        ]
