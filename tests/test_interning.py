"""One interned ``ElementId`` per pure partial-sum element of a shape.

``CubeShape.intermediate`` hands every request for the same level vector
the same object; identity is a shortcut, never a requirement — an equal id
built any other way must behave identically everywhere.  Also here: the
request parsers refuse a level or bound that is not an integer instead of
truncating it to a different request.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.element import CubeShape, ElementId, as_index
from repro.core.range_query import RangeQueryEngine
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.cube.hierarchy import rollup_element, view_elements
from repro.errors import InvalidQueryError
from repro.server import OLAPServer

SIZES = (8, 4, 2)


def make_cube() -> DataCube:
    values = np.random.default_rng(5).integers(0, 50, size=SIZES).astype(np.float64)
    dims = [Dimension(name, list(range(n))) for name, n in zip("abc", SIZES)]
    return DataCube(values, dims)


def fresh(element: ElementId) -> ElementId:
    """An equal id that shares neither the object nor the shape object."""
    twin = ElementId(CubeShape(element.shape.sizes), element.nodes)
    assert twin is not element and twin.shape is not element.shape
    return twin


class TestInternTable:
    def test_one_object_per_level_vector(self):
        shape = CubeShape(SIZES)
        element = shape.intermediate((1, 2, 0))
        assert element is shape.intermediate((1, 2, 0))
        assert element is shape.intermediate([np.int64(1), 2, 0])
        assert element.nodes == ((1, 0), (2, 0), (0, 0))
        assert element == ElementId(shape, ((1, 0), (2, 0), (0, 0)))
        assert shape.root() is shape.intermediate((0, 0, 0))
        assert shape.total_aggregation() is shape.intermediate(shape.depths)

    def test_table_is_bounded_by_eq_19(self):
        shape = CubeShape(SIZES)
        every = list(itertools.product(*[range(k + 1) for k in shape.depths]))
        for _ in range(2):
            for levels in every:
                shape.intermediate(levels)
        assert len(shape._intermediates) == shape.num_intermediate_elements() == 24
        for bad in ((4, 0, 0), (0, -1, 0), (0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError):
                shape.intermediate(bad)
        with pytest.raises(TypeError):
            shape.intermediate((0.5, 0, 0))
        assert len(shape._intermediates) == 24

    def test_resolvers_and_engine_return_the_interned_objects(self):
        cube = make_cube()
        shape = cube.shape_id
        assert cube.shape_id is shape
        assert shape.aggregated_view([0, 2]) is shape.intermediate((3, 0, 1))
        assert rollup_element(cube, {"a": 2, "c": 1}) is shape.intermediate((2, 0, 1))
        server = OLAPServer(cube)
        assert server.shape is shape
        assert view_elements(cube, [["b"]])[0] is shape.intermediate((3, 0, 1))
        server.range_sum(((1, 7), (0, 4), (0, 1)))
        cached = list(server._state.range_engine._cache)
        assert cached and all(e is shape.intermediate([k for k, _ in e.nodes]) for e in cached)
        pyramid = RangeQueryEngine.with_gaussian_pyramid(cube.values, shape)
        assert all(
            e is shape.intermediate([k for k, _ in e.nodes])
            for e in pyramid.materialized.elements
        )

    def test_table_stays_out_of_eq_hash_repr_copy_and_pickle(self):
        used, unused = CubeShape(SIZES), CubeShape(SIZES)
        element = used.intermediate((1, 1, 1))
        assert used == unused and hash(used) == hash(unused)
        assert repr(used) == repr(unused) == "CubeShape(sizes=(8, 4, 2))"
        for clone in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert clone == used and clone._intermediates == {}
        payload = pickle.dumps(element)
        assert b"_intermediates" not in payload
        restored = pickle.loads(payload)
        assert restored == element and hash(restored) == hash(element)
        assert restored.shape._intermediates == {}
        assert restored.describe() == element.describe()

    def test_first_use_race_yields_one_object(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for levels in itertools.product(range(4), range(3), range(2)):
                shape = CubeShape(SIZES)
                barrier = threading.Barrier(8)
                seen = []

                def first_use():
                    barrier.wait(timeout=10)
                    seen.append(shape.intermediate(levels))

                threads = [threading.Thread(target=first_use) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == 8 and all(e is seen[0] for e in seen)
                assert seen[0] is shape.intermediate(levels)
        finally:
            sys.setswitchinterval(interval)


class TestIdentityIsOnlyAShortcut:
    """A fresh equal id hits every entry an interned one does."""

    def test_result_cache_tracker_and_stored_set(self):
        server = OLAPServer(make_cube())
        interned = server.shape.intermediate((3, 0, 1))

        def serve(element):  # a batch of one that resolves to ``element``
            return server._serve((element,), list, "view", None)[0]

        first = serve(interned)
        hits = server.metrics.counter("view_cache_hits_total")
        assert hits.total() == 0
        again = serve(fresh(interned))
        assert again is first and hits.total() == 1
        weights = server.tracker.weights()
        assert list(weights) == [interned] and len(weights) == 1
        server.tracker.record(fresh(interned))
        assert len(server.tracker.weights()) == 1

        root = fresh(server.shape.root())
        assert root in server.materialized
        assert server.materialized.array(root) is server.materialized.array(server.shape.root())

    def test_range_engine_cache_and_updates(self):
        server = OLAPServer(make_cube())
        ranges = ((1, 7), (0, 4), (0, 1))
        expected = server.cube.values[1:7, :, 0:1].sum()
        assert server.range_sum(ranges) == expected
        engine = server._state.range_engine
        # Swap every cached key for an un-interned equal one (what a
        # snapshot restore or a WAL replay would hold).
        engine._cache = {fresh(e): v for e, v in engine._cache.items()}
        assembled = server.metrics.counter("range_intermediate_assembled_total").total()
        assert server.range_sum(ranges) == expected
        assert server.metrics.counter("range_intermediate_assembled_total").total() == assembled
        server.update_many(np.array([[2, 1, 0]]), np.array([7.0]))
        assert server.range_sum(ranges) == expected + 7.0


class TestRequestsAreNotTruncated:
    def test_as_index(self):
        assert as_index(np.int32(3), "x") == 3 and type(as_index(np.int32(3), "x")) is int
        for bad in (1.9, 1.0, True, "1", None):
            with pytest.raises(InvalidQueryError, match="the level must be an integer"):
                as_index(bad, "the level")

    @pytest.mark.parametrize("bad", [1.9, True, 1.0, None])
    def test_rollup_level_must_be_an_integer(self, bad):
        cube = make_cube()
        with pytest.raises(ValueError, match="level of dimension 'a'"):
            rollup_element(cube, {"a": bad})
        server = OLAPServer(cube)
        with pytest.raises(InvalidQueryError, match="dimension 'a'"):
            server.rollup({"a": bad})
        with pytest.raises(InvalidQueryError, match="dimension 'a'"):
            server.rollup_batch([{"b": 1}, {"a": bad}])
        assert server.stats.queries == 0  # refused before anything is served

    def test_numpy_levels_keep_working(self):
        cube = make_cube()
        assert rollup_element(cube, {"a": np.int64(1)}) is cube.shape_id.intermediate((1, 0, 0))

    def test_server_range_bounds_must_be_integers(self):
        server = OLAPServer(make_cube())
        with pytest.raises(InvalidQueryError, match="range start of dimension 0"):
            server.range_sum([(0.9, 3), (0, 4), (0, 2)])
        with pytest.raises(InvalidQueryError, match="range stop of dimension 1"):
            server.range_sum([(0, 3), (0, 3.7), (0, 2)])
        full = server.range_sum([(np.int64(0), 8), (0, np.int16(4)), (0, 2)])
        assert full == server.cube.values.sum()

    def test_the_other_refusals_raise_what_they_did(self):
        cube = make_cube()
        server = OLAPServer(cube)
        with pytest.raises(ValueError, match=r"level 4 outside \[0, 3\] for dimension 'a'"):
            rollup_element(cube, {"a": 4})
        with pytest.raises(ValueError, match="level -1 outside"):
            server.rollup({"b": -1})
        unknown = r"unknown dimensions \['x', 'y'\]"
        with pytest.raises(InvalidQueryError, match=unknown):
            rollup_element(cube, {"y": 1, "a": 1, "x": 0})
        with pytest.raises(InvalidQueryError, match=unknown):
            server.view(["y", "a", "x"])
        with pytest.raises(InvalidQueryError, match="no hierarchy"):
            rollup_element(cube, {"a": "week"})
        with pytest.raises(ValueError, match=r"unknown dimensions \[-1, 3\]"):
            cube.shape_id.aggregated_view([3, 0, -1])
        with pytest.raises(ValueError, match="2 ranges for a 3-dimensional cube"):
            server.range_sum([(0, 8), (0, 4)])
        with pytest.raises(ValueError, match=r"range \[5, 2\) outside \[0, 8\)"):
            server.range_sum([(5, 2), (0, 4), (0, 2)])

    @pytest.mark.parametrize(
        "request_", ["ab", b"ab", "a"], ids=["str", "bytes", "name"]
    )
    def test_a_bare_string_is_not_a_list_of_names(self, request_):
        """``view("ab")`` once kept ``a`` and ``b`` (a string iterates by
        character); a bare name is refused the same way everywhere."""
        server = OLAPServer(make_cube())
        kind = type(request_).__name__
        with pytest.raises(InvalidQueryError, match=f"not {kind}"):
            server.view(request_)
        with pytest.raises(InvalidQueryError, match=f"not {kind}"):
            server.query_batch([["a"], request_])
        assert server.stats.queries == 0
        np.testing.assert_array_equal(
            server.view(["a", "b"]), server.cube.values.sum(axis=2, keepdims=True)
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda server: server.rollup("a"),
            lambda server: server.rollup([("a", 1)]),
            lambda server: server.rollup_batch(["a"]),
            lambda server: server.rollup_batch([{"a": 1}, ("a", 1)]),
        ],
        ids=["str", "pairs", "batch-of-str", "batch-with-tuple"],
    )
    def test_roll_up_levels_must_be_a_mapping(self, call):
        """``rollup("a")`` once raised ``AttributeError`` from inside the
        level walk; a request that is not a mapping is refused as an
        invalid query naming its type, as ``view`` refuses a bare name."""
        server = OLAPServer(make_cube())
        with pytest.raises(InvalidQueryError, match="must be a mapping.* not (str|list|tuple)"):
            call(server)
        assert server.stats.queries == 0
