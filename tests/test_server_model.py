"""All serving features composed, against one oracle.

Each gate checks one feature against the ndarray replica — shards,
delta patching, faults, kill-and-restore.  This state machine lets
hypothesis interleave them on one live server: queries of every kind,
bulk updates, re-selection, snapshot + restore onto a *different* shard
count, a transient fault under a query, and a corrupted store under a
reconfigure.  The invariant is the paper's perfect-reconstruction law as
the server promises it: whatever happened before, every answer is the
bytes recompute-from-scratch gives, and no update ever fell back to a
coarse cache invalidation.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.durability import DurabilityConfig
from repro.errors import TransientFault
from repro.replay import Replica, seeded_cube, step
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer

SIZES = (4, 8, 2)
NAMES = ["d0", "d1", "d2"]
DEPTHS = [n.bit_length() - 1 for n in SIZES]

dims = st.lists(st.sampled_from(NAMES), unique=True)
levels = st.fixed_dictionaries(
    {name: st.integers(0, depth) for name, depth in zip(NAMES, DEPTHS)}
)
ranges = st.tuples(
    *[st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted) for n in SIZES]
).map(list)
coords = st.tuples(*[st.integers(0, n - 1) for n in SIZES]).map(list)


class ServerModel(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 20), shards=st.sampled_from([1, 2, 4]))
    def build(self, seed, shards):
        self.directory = tempfile.mkdtemp(prefix="repro-model-")
        self.server = OLAPServer(
            seeded_cube(seed, SIZES),
            shards=shards,
            durability=DurabilityConfig(self.directory, fsync="off"),
        )
        self.replica = Replica(self.server.cube.values)
        self.steps = 0

    def teardown(self):
        if hasattr(self, "server"):
            self.server.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    def _do(self, op):
        self.steps += 1
        return step(self.server, op, self.replica, workers=2, index=self.steps)

    @rule(dims=dims)
    def view(self, dims):
        self._do({"op": "view", "dims": dims})

    @rule(requests=st.lists(dims, min_size=1, max_size=4))
    def query_batch(self, requests):
        self._do({"op": "query_batch", "requests": requests})

    @rule(levels_list=st.lists(levels, min_size=1, max_size=3))
    def rollup_batch(self, levels_list):
        self._do({"op": "rollup_batch", "levels_list": levels_list})

    @rule(ranges=ranges)
    def range_sum(self, ranges):
        self._do({"op": "range", "ranges": ranges})

    @rule(coords=coords)
    def cell(self, coords):
        self._do({"op": "cell", "coords": coords})

    @rule(
        batch=st.lists(
            st.tuples(coords, st.integers(-9, 9)), min_size=1, max_size=4
        )
    )
    def update_many(self, batch):
        self._do(
            {
                "op": "update_many",
                "coords": [c for c, _ in batch],
                "deltas": [d for _, d in batch],
            }
        )

    @rule()
    def reconfigure(self):
        self._do({"op": "reconfigure"})

    @rule(snapshot_first=st.booleans(), hop=st.sampled_from([1, 2]))
    def restore_onto_another_shard_count(self, snapshot_first, hop):
        """Close and reopen from disk; without the snapshot the updates
        since the last one come back from the WAL alone."""
        counts = [1, 2, 4]
        target = counts[(counts.index(self.server.shards) + hop) % 3]
        if snapshot_first:
            self.server.snapshot()
        self.server.close()
        self.server = OLAPServer.restore(self.directory, shards=target)
        assert self.server.shards == target

    @rule(dims=dims)
    def view_through_a_transient_fault(self, dims):
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble",
                    kind="error",
                    probability=1.0,
                    error=TransientFault,
                    max_fires=1,
                )
            ],
            seed=self.steps,
        )
        with injector.activate():
            self._do({"op": "view", "dims": dims})

    @rule()
    def reconfigure_with_a_corrupted_store(self):
        """The first element the migration stores is damaged after its
        checksum was sealed; first use must quarantine it and re-route."""
        injector = FaultInjector(
            [
                FaultRule(
                    site="materialize.store",
                    kind="corrupt",
                    probability=1.0,
                    max_fires=1,
                )
            ],
            seed=self.steps,
        )
        with injector.activate():
            self._do({"op": "reconfigure"})

    @invariant()
    def answers_are_the_replicas_and_updates_never_cleared(self):
        if not hasattr(self, "server"):
            return
        assert self.replica.mismatches == []
        assert self.server.cube.values.tobytes() == self.replica.values.tobytes()
        assert self.server.health()["updates_cache_cleared"] == 0


# Bounded for tier-1: each example builds a durable server on disk.
ServerModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestServerModel = ServerModel.TestCase


class TestRollupComposition:
    """Kuijpers & Vaisman's roll-up law on the oracle and the server:
    climbing ``j`` levels and then ``k`` is climbing ``j + k``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100),
        split=st.tuples(
            *[
                st.integers(0, depth).flatmap(
                    lambda total: st.tuples(st.integers(0, total), st.just(total))
                )
                for depth in DEPTHS
            ]
        ),
    )
    def test_rollup_of_a_rollup_is_the_summed_level(self, seed, split):
        cube = seeded_cube(seed, SIZES)
        first = {name: j for name, (j, _) in zip(NAMES, split)}
        second = {name: total - j for name, (j, total) in zip(NAMES, split)}
        summed = {name: total for name, (_, total) in zip(NAMES, split)}
        replica = Replica(cube.values)
        composed = Replica(replica.rollup(first)).rollup(second)
        direct = replica.rollup(summed)
        assert composed.tobytes() == direct.tobytes()
        assert OLAPServer(cube).rollup(summed).tobytes() == direct.tobytes()
