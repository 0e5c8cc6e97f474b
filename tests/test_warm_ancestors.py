"""A miss aggregates from the smallest warm ancestor the range engine holds.

Procedure 3 builds a target by aggregating its smallest available ancestor
at ``Vol(ancestor) - Vol(target)`` operations (PAPER §5.3, Eq 28).  SUM is
distributive, so a warm range intermediate — a pure partial sum — is such
an ancestor as much as a stored element is: when it is cheaper than the
stored route, a view, roll-up or batch member is that one cascade, on a
monolithic and on a sharded set alike.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import materialize
from repro.core.element import CubeShape
from repro.core.kernels import canonical_steps
from repro.core.materialize import MaterializedSet, compute_element
from repro.core.range_query import RangeQueryEngine
from repro.errors import IncompleteSetError, QueryTimeout
from repro.replay import Replica, seeded_cube
from repro.resilience import FaultInjector, FaultRule
from repro.server import OLAPServer
from repro.shard.partition import CubePartition
from repro.shard.sets import ShardedSet
from .oracles import smallest_warm_ancestor_explicit

SIZES = (16, 8, 4)
#: One aligned block of 2 x 1 x 1 cells: level combination (1, 0, 0).
COARSE_RANGE = ((0, 2), (0, 1), (0, 1))
#: One aligned block of 4 x 2 x 1 cells: level combination (2, 1, 0).
FINE_RANGE = ((4, 8), (2, 4), (3, 4))
COARSE, FINE = (1, 0, 0), (2, 1, 0)
#: The view retaining ``d2`` (levels (4, 3, 0)): inside both warm ones.
VIEW = ["d2"]
#: Levels (3, 2, 0): inside both warm ones.
ROLLUP = {"d0": 3, "d1": 2}
#: The view retaining ``d1`` and ``d2`` (levels (4, 0, 0)): inside COARSE
#: only.
WIDE_VIEW = ["d1", "d2"]


def _warm_server(shards: int, seed: int = 4, **kwargs) -> OLAPServer:
    server = OLAPServer(seeded_cube(seed, SIZES), shards=shards, **kwargs)
    server.range_sum(COARSE_RANGE)
    server.range_sum(FINE_RANGE)
    engine = server._state.range_engine
    assert {e.nodes for e in engine._cache} >= {
        tuple((k, 0) for k in levels) for levels in (COARSE, FINE)
    }
    return server


def _planned(monkeypatch) -> list:
    """Record every stored-route assembly: the monolithic program run (a
    single target is a batch of one) and the sharded scatter."""
    calls = []
    for owner, name in (
        (materialize, "execute_plan"),
        (ShardedSet, "_scatter_gather"),
    ):
        original = getattr(owner, name)

        def wrapped(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
    return calls


def _derived(server: OLAPServer) -> float:
    return server.metrics.counter("assemble_derived_total").total()


SHARDS = pytest.mark.parametrize("shards", [1, 2], ids=["1 shard", "2 shards"])


class TestTheLookup:
    def test_the_smallest_warm_ancestor_and_its_steps(self, cube_3d, shape_3d):
        engine = RangeQueryEngine(
            MaterializedSet.from_cube(cube_3d, [shape_3d.root()])
        )
        total = shape_3d.total_aggregation()
        assert engine.warm_route(total) is None
        engine.range_sum(((0, 2), (0, 1), (0, 1)))  # levels (1, 0, 0)
        coarse = shape_3d.intermediate((1, 0, 0))
        assert engine.warm_route(total)[0] is coarse
        # The table is read live: the smaller one wins once it is warm.
        engine.range_sum(((0, 4), (0, 2), (0, 1)))  # levels (2, 1, 0)
        fine = shape_3d.intermediate((2, 1, 0))
        ancestor, values, steps = engine.warm_route(total)
        assert ancestor is fine and values is engine._cache[fine]
        assert steps == canonical_steps(fine, total)
        assert engine.warm_route(total)[2] is steps  # compiled once
        # Never the target itself, and nothing once the table is dropped.
        assert engine.warm_route(fine)[0] is coarse
        engine.invalidate()
        assert engine.warm_route(total) is None


class TestDerivedFromTheSmallest:
    @SHARDS
    @pytest.mark.parametrize("kind", ["view", "rollup", "batch"])
    def test_one_cascade_from_the_smallest_warm_ancestor(
        self, shards, kind, monkeypatch
    ):
        server = _warm_server(shards)
        shape = server.shape
        replica = Replica(server.cube.values)
        fine, coarse = shape.intermediate(FINE), shape.intermediate(COARSE)
        view, wide = shape.intermediate((4, 3, 0)), shape.intermediate((4, 0, 0))
        rollup = shape.intermediate((3, 2, 0))
        ask, want, cost = {
            "view": (
                lambda: [server.view(VIEW)],
                [replica.view(VIEW)],
                fine.volume - view.volume,
            ),
            "rollup": (
                lambda: [server.rollup(ROLLUP)],
                [replica.rollup(ROLLUP)],
                fine.volume - rollup.volume,
            ),
            # Each member from its own smallest warm ancestor.
            "batch": (
                lambda: server.query_batch([VIEW, WIDE_VIEW]),
                [replica.view(VIEW), replica.view(WIDE_VIEW)],
                fine.volume - view.volume + coarse.volume - wide.volume,
            ),
        }[kind]
        planned = _planned(monkeypatch)
        operations, derived = server.stats.operations, _derived(server)

        got = ask()

        assert planned == []
        assert server.stats.operations - operations == cost
        assert _derived(server) - derived == len(want)
        for answer, expected in zip(got, want):
            assert np.array_equal(answer, expected)
        # A fresh buffer, not a warm array; admitted, never added to the
        # engine.
        engine = server._state.range_engine
        assert all(
            all(answer is not warm for warm in engine._cache.values())
            for answer in got
        )
        assert view not in engine._cache and rollup not in engine._cache
        server.close()

    @SHARDS
    def test_a_range_read_after_a_reconfigure_derives_its_intermediates(
        self, shards, monkeypatch
    ):
        """The engine passes its own lookup: an intermediate missing after
        a ``reconfigure()`` is aggregated from one it holds again."""
        server = OLAPServer(seeded_cube(4, SIZES), shards=shards)
        server.reconfigure()
        server.range_sum(COARSE_RANGE)
        derived = _derived(server)
        value = server.range_sum(((0, 16), (0, 8), (0, 1)))  # (4, 3, 0)
        assert _derived(server) - derived == 1
        assert value == Replica(server.cube.values).range_sum(
            ((0, 16), (0, 8), (0, 1))
        )
        server.close()


class TestTheStoredRouteWhenItIsCheaper:
    @SHARDS
    @pytest.mark.parametrize("target", ["stored", "stored ancestor"])
    def test_storage_wins_a_cheaper_price(self, shards, target, monkeypatch):
        server = _warm_server(shards)
        shape = server.shape
        stored = shape.intermediate((3, 2, 0))
        server.materialized.store(
            stored, compute_element(server.cube.values, stored)
        )
        replica = Replica(server.cube.values)
        planned = _planned(monkeypatch)
        operations, derived = server.stats.operations, _derived(server)
        if target == "stored":
            got, want = server.rollup(ROLLUP), replica.rollup(ROLLUP)
            cost = 0
        else:
            # 16 - 4 = 12 operations from storage, 64 - 4 = 60 from the
            # smallest warm ancestor.
            got, want = server.view(VIEW), replica.view(VIEW)
            cost = stored.volume - shape.intermediate((4, 3, 0)).volume
        assert _derived(server) == derived
        assert np.array_equal(got, want)
        if shards == 1:
            assert planned == ["execute_plan"]
            assert server.stats.operations - operations == cost
            if target == "stored":
                # By reference, as a read-only view of the stored array.
                assert np.shares_memory(got, server.materialized.array(stored))
                assert not got.flags.writeable
        else:
            assert planned == ["_scatter_gather"]
        server.close()


class TestResilience:
    @SHARDS
    def test_a_derivation_retries_an_injected_fault(self, shards, monkeypatch):
        server = _warm_server(shards)
        planned = _planned(monkeypatch)
        derived = _derived(server)
        once = FaultInjector(
            [FaultRule(site="materialize.assemble", kind="error", max_fires=1)],
            seed=1,
        )
        with once.activate():
            got = server.view(VIEW)
        assert np.array_equal(got, Replica(server.cube.values).view(VIEW))
        assert server.health()["retries"] == 1
        assert _derived(server) - derived == 1 and planned == []
        server.close()

    @SHARDS
    @pytest.mark.parametrize("batch", [False, True], ids=["view", "batch"])
    def test_a_derivation_times_out_under_a_latency_fault(self, shards, batch):
        server = _warm_server(shards, max_retries=0)
        stall = FaultInjector(
            [
                FaultRule(
                    site="materialize.assemble", kind="latency", latency_ms=50.0
                )
            ],
            seed=1,
        )
        derived = _derived(server)
        with stall.activate(), pytest.raises(QueryTimeout):
            if batch:
                server.query_batch([VIEW], deadline_ms=10.0)
            else:
                server.view(VIEW, deadline_ms=10.0)
        assert _derived(server) == derived
        assert server.health()["timeouts"] == 1
        server.close()


class TestAnIncompleteSet:
    def test_a_server_serves_what_a_warm_ancestor_reaches(self):
        server = _warm_server(1)
        server.materialized.quarantine(server.shape.root())
        replica = Replica(server.cube.values)
        assert np.array_equal(server.view(VIEW), replica.view(VIEW))
        assert server.health()["degraded_serves"] == 0
        # Levels (0, 3, 2): nothing warm holds it, so the base cube does.
        assert np.array_equal(server.view(["d0"]), replica.view(["d0"]))
        assert server.health()["degraded_serves"] == 1
        server.close()

    @SHARDS
    def test_a_set_with_nothing_stored(self, shards):
        shape = CubeShape(SIZES)
        cube = seeded_cube(4, SIZES).values
        store = (
            MaterializedSet(shape)
            if shards == 1
            else ShardedSet(CubePartition.for_shape(shape, shards), cube)
        )
        ancestor = shape.intermediate(FINE)
        values = compute_element(cube, ancestor)

        def warm(target):
            if target == ancestor or not ancestor.contains(target):
                return None
            return ancestor, values, canonical_steps(ancestor, target)

        target = shape.intermediate((4, 3, 0))
        if shards == 1:
            with pytest.raises(IncompleteSetError):
                store.assemble(target)
        else:
            # Each shard recomputes its slab from its base slab.
            assert np.array_equal(
                store.assemble(target), compute_element(cube, target)
            )
        got = store.assemble(target, warm=warm)
        assert got is not values
        assert np.array_equal(got, compute_element(cube, target))
        got = store.assemble_batch([target], warm=warm)[target]
        assert np.array_equal(got, compute_element(cube, target))


class TestAFloatCube:
    """A cascade continued from a warm ancestor sums each block in another
    association order than the canonical one.  Any order of summing ``m``
    terms is within ``(m - 1) · u · Σ|x|`` of the exact sum (``u`` the unit
    roundoff, 2^-53), so that is the stated bound per output cell."""

    @SHARDS
    def test_within_the_recursive_summation_bound(self, shards):
        rng = np.random.default_rng(9)
        cube = seeded_cube(4, SIZES)
        cube.values[...] = rng.normal(scale=1e3, size=SIZES)
        server = OLAPServer(cube, shards=shards)
        server.range_sum(COARSE_RANGE)
        server.range_sum(FINE_RANGE)
        derived = _derived(server)
        got = server.view(VIEW).ravel()
        assert _derived(server) - derived == 1
        values = server.cube.values
        m = values.size // values.shape[2]
        u = np.finfo(np.float64).eps / 2
        for k, answer in enumerate(got):
            block = values[:, :, k].ravel()
            exact = math.fsum(block)
            assert abs(answer - exact) <= (m - 1) * u * np.abs(block).sum()
        server.close()


class TestTheOrderIsTheSlotOrder:
    """Equal-volume warm ancestors are tried by ascending slot, so a derived
    float answer does not depend on the order the warm state filled in."""

    #: Aligned one-block ranges: level vectors (1, 0, 0) and (0, 1, 0),
    #: both of half the cube's volume and both containing (1, 1, 0).
    FIRST, SECOND = ((0, 2), (0, 1), (0, 1)), ((0, 1), (0, 2), (0, 1))

    def _answer(self, order) -> np.ndarray:
        cube = seeded_cube(4, SIZES)
        cube.values[...] = np.random.default_rng(3).standard_normal(SIZES) * 1e3
        server = OLAPServer(cube)
        for ranges in order:
            server.range_sum(ranges)
        derived = _derived(server)
        answer = server.rollup({"d0": 1, "d1": 1})
        assert _derived(server) - derived == 1
        server.close()
        return answer

    def test_either_fill_order_gives_the_same_bytes(self):
        one = self._answer((self.FIRST, self.SECOND))
        other = self._answer((self.SECOND, self.FIRST))
        assert one.tobytes() == other.tobytes()

    def test_the_lower_slot_wins_a_tie(self, cube_3d, shape_3d):
        engine = RangeQueryEngine(
            MaterializedSet.from_cube(cube_3d, [shape_3d.root()])
        )
        engine.range_sum(((0, 2), (0, 1), (0, 1)))  # (1, 0, 0)
        engine.range_sum(((0, 1), (0, 2), (0, 1)))  # (0, 1, 0)
        target = shape_3d.intermediate((1, 1, 0))
        ancestor, _, _ = engine.warm_route(target)
        assert ancestor is shape_3d.intermediate((0, 1, 0))
        assert ancestor.slot < shape_3d.intermediate((1, 0, 0)).slot


@st.composite
def warm_states(draw):
    """A 2-4-d shape, random held and cached subsets of its pure partial
    sums, and a target: pure (interned or built afresh) or residual."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=2, max_size=4))
    shape = CubeShape(sizes)
    every = [
        shape.intermediate(levels)
        for levels in itertools.product(*[range(k + 1) for k in shape.depths])
    ]
    # Each pure partial sum warm with even odds, so equal-volume ancestors
    # compete often.
    pick = st.lists(st.booleans(), min_size=len(every), max_size=len(every))
    held, cached = (
        [i for i, warm in enumerate(draw(pick)) if warm] for _ in range(2)
    )
    nodes = []
    for depth in shape.depths:
        k = draw(st.integers(0, depth))
        nodes.append((k, draw(st.integers(0, 2**k - 1))))
    target = shape.element(nodes)
    if target.is_intermediate and draw(st.booleans()):
        target = shape.intermediate([k for k, _ in nodes])
    return (
        shape,
        {every[i]: np.zeros(0) for i in held},
        {every[i]: np.zeros(0) for i in cached},
        target,
    )


class TestTheWalkMatchesTheScan:
    @settings(max_examples=150)
    @given(warm_states())
    def test_the_same_ancestor_and_steps_as_the_oracle(self, state):
        shape, held, cached, target = state
        engine = RangeQueryEngine(MaterializedSet(shape))
        for element, values in held.items():
            engine.held[element.slot] = values
        engine.cached = {e.slot: (v, v.size) for e, v in cached.items()}.get
        want = smallest_warm_ancestor_explicit(target, held, cached)
        route = engine.warm_route(target)
        if want is None:
            assert route is None
            return
        ancestor, values, steps = route
        assert ancestor is want[0] and values is want[1]
        assert steps == canonical_steps(ancestor, target)
        assert engine.warm_route(target)[2] is steps


class TestACachedAncestor:
    """The result cache's answers are warm ancestors too: a miss whose
    smallest one is a cached answer is one cascade down from it, and that
    read refreshes no recency, counts no hit or miss and visits no fault
    site."""

    @SHARDS
    def test_the_cached_answer_is_the_smallest(self, shards, monkeypatch):
        server = OLAPServer(seeded_cube(4, SIZES), shards=shards)
        server.range_sum(COARSE_RANGE)  # the engine holds (1, 0, 0)
        server.rollup({"d0": 2, "d1": 1})  # the cache holds (2, 1, 0)
        shape, state = server.shape, server._state
        cached = shape.intermediate((2, 1, 0))
        target = shape.intermediate((3, 2, 0))
        assert state.range_engine.held[cached.slot] is None
        assert cached.slot in state.cache
        replica = Replica(server.cube.values)
        planned = _planned(monkeypatch)
        operations, derived = server.stats.operations, _derived(server)
        hits = server.metrics.counter("view_cache_hits_total")
        misses = server.metrics.counter("view_cache_misses_total")
        counts, keys = (hits.total(), misses.total()), state.cache.keys()
        visits = FaultInjector([], seed=1)

        with visits.activate():
            got = server.rollup(ROLLUP)

        assert planned == []
        assert server.stats.operations - operations == cached.volume - target.volume
        assert _derived(server) - derived == 1
        assert got.tobytes() == replica.rollup(ROLLUP).tobytes()
        # Only the target's own miss, probe and admission.
        assert (hits.total(), misses.total()) == (counts[0], counts[1] + 1)
        assert state.cache.keys() == (*keys, target.slot)
        assert visits._invocations["server.cache_lookup"] == 1
        server.close()
