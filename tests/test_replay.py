"""The gates' shared mechanism: replica, op vocabulary, replay, triage.

The replica replaced ``compute_element`` / ``range_sum_direct`` as the
gates' expected answer; the first class shows the swap changed no
expectation (same bytes on the same array), the second that ``replay``
really does notice a divergence, and the last is the tier-1 run of the
SLO-triage gate (otherwise only CI's ``repro diag --check`` runs it).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.materialize import compute_element
from repro.core.range_query import range_sum_direct
from repro.cube.hierarchy import rollup_element
from repro.replay import Replica, replay, seeded_cube
from repro.resilience.triage import TriageConfig, run_triage
from repro.server import OLAPServer
from repro.workloads import flat_trace


@st.composite
def _cube_and_query(draw):
    sizes = tuple(draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3)))
    cube = seeded_cube(draw(st.integers(0, 1_000)), sizes)
    names = cube.dimensions.names
    retained = [n for n in names if draw(st.booleans())]
    levels = {
        n: draw(st.integers(0, size.bit_length() - 1))
        for n, size in zip(names, sizes)
    }
    bounds = [
        sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
        for n in sizes
    ]
    return cube, retained, levels, bounds


class TestReplicaIsTheOldReference:
    @settings(max_examples=60, deadline=None)
    @given(_cube_and_query())
    def test_same_bytes_as_compute_element_and_range_sum_direct(self, drawn):
        cube, retained, levels, bounds = drawn
        replica = Replica(cube.values)
        names = cube.dimensions.names
        aggregated = [i for i, n in enumerate(names) if n not in retained]
        assert (
            replica.view(retained).tobytes()
            == compute_element(
                cube.values, cube.shape_id.aggregated_view(aggregated)
            ).tobytes()
        )
        assert (
            replica.rollup(levels).tobytes()
            == compute_element(cube.values, rollup_element(cube, levels)).tobytes()
        )
        ranges = tuple((lo, hi) for lo, hi in bounds)
        assert replica.range_sum(bounds) == range_sum_direct(cube.values, ranges)

    def test_replica_owns_its_cells(self):
        cube = seeded_cube(1, (4, 4))
        replica = Replica(cube.values)
        replica.apply(
            [
                {"op": "update", "coords": [0, 0], "delta": 5},
                {"op": "update_many", "coords": [[0, 0], [3, 3]], "deltas": [1, -2]},
            ]
        )
        assert replica.cell([0, 0]) == cube.values[0, 0] + 6
        assert replica.cell([3, 3]) == cube.values[3, 3] - 2


class TestReplay:
    SIZES = (4, 8)

    def test_every_op_kind_is_answered_and_compared(self):
        trace = flat_trace(5, self.SIZES, 80)
        assert {op["op"] for op in trace} == {
            "view", "query_batch", "rollup", "rollup_batch", "range", "cell",
            "update", "update_many", "reconfigure",
        }
        server = OLAPServer(seeded_cube(5, self.SIZES), shards=2)
        replica = Replica(server.cube.values)
        steps = list(replay(server, trace, replica, workers=2))
        assert [index for index, *_ in steps] == list(range(len(trace)))
        queries = sum(len(answers) for _, _, answers, _ in steps)
        # Every answer, plus the eight comparisons of the final sweep.
        assert replica.compared == queries + 8
        assert replica.mismatches == []

    def test_a_diverged_replica_is_reported_at_its_trace_index(self):
        server = OLAPServer(seeded_cube(5, self.SIZES))
        replica = Replica(server.cube.values)
        replica.values[0, 0] += 1.0  # the "server" is now wrong by one cell
        trace = [
            {"op": "drift", "phase": 0},
            {"op": "view", "dims": ["d1"]},
            {"op": "cell", "coords": [1, 1]},
            {"op": "range", "ranges": [[0, 1], [0, 1]]},
        ]
        list(replay(server, trace, replica))
        assert {1, 3} <= set(replica.mismatches)
        assert 2 not in replica.mismatches
        # The sweep sees it too (cube bytes, views, roll-up, full range).
        assert replica.mismatches.count(len(trace)) >= 6

    def test_without_a_replica_nothing_is_compared_or_swept(self):
        server = OLAPServer(seeded_cube(5, self.SIZES))
        before = server.stats.queries
        steps = list(replay(server, [{"op": "view", "dims": []}]))
        assert len(steps) == 1 and len(steps[0][2]) == 1
        assert server.stats.queries == before + 1

    def test_unknown_op_is_rejected_with_its_index(self):
        server = OLAPServer(seeded_cube(5, self.SIZES))
        with pytest.raises(ValueError, match="'ingest' at index 1"):
            list(replay(server, [{"op": "drift"}, {"op": "ingest"}]))


class TestTriageGate:
    def test_gate_holds_on_the_shared_cube_and_universe(self, tmp_path):
        report = run_triage(TriageConfig(), directory=tmp_path)
        assert report["ok"], report["checks"]
        assert set(report["checks"]) == {
            "healthy_zero_alerts",
            "faulted_alert_fired",
            "fired_on_predicted_query",
            "bundle_valid",
            "bundle_has_faulted_exemplar",
        }
        assert report["faulted"]["fired_index"] == report["predicted_fire_index"]
        assert report["faulted"]["errors"] == 40 - 12
