"""Requests resolve by table, exactly as the checked per-name walk does.

:func:`repro.cube.hierarchy.view_elements` and
:func:`~repro.cube.hierarchy.rollup_elements` resolve a request list in
one pass: they read the cube's name-to-axis table and the shape's depths
and go straight to the intern table.  The
oracles in ``tests/oracles.py`` resolve the same requests the long way:
``axis_of`` per name, the aggregated view's set walk, ``as_index`` per
level.  Every request must give the same interned element (``is``), or
the same exception type and message.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.cube.hierarchy import (
    BinaryHierarchy,
    HierarchicalDimension,
    rollup_element,
    rollup_elements,
    view_elements,
)
from repro.errors import InvalidQueryError
from repro.server import OLAPServer

from .oracles import resolve_rollup_explicit, resolve_view_explicit

LEVEL_NAMES = ("day", "pair", "quad")


def make_cube() -> DataCube:
    """``day`` (8 cells, a named hierarchy two levels deep) and two plain
    dimensions, ``b`` and ``c``."""
    dims = [
        HierarchicalDimension("day", list(range(8)), BinaryHierarchy(LEVEL_NAMES)),
        Dimension("b", list(range(4))),
        Dimension("c", list(range(2))),
    ]
    values = np.arange(64, dtype=np.float64).reshape(8, 4, 2)
    return DataCube(values, dims)


CUBE = make_cube()
NAMES = tuple(CUBE.dimensions.names)

#: Names a request may carry: real ones, strangers, other types.
hashable_names = st.one_of(
    st.sampled_from(NAMES),
    st.text(max_size=3),
    st.integers(-2, 3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=16),
    st.tuples(st.sampled_from(NAMES)),
)
any_names = st.one_of(
    hashable_names,
    st.lists(st.sampled_from(NAMES), max_size=2),  # unhashable
    st.sets(st.integers(0, 2), max_size=2),  # unhashable
)

#: Levels a roll-up may ask for.
levels = st.one_of(
    st.integers(-2, 5),
    st.integers(-2, 5).map(np.int64),
    st.integers(0, 3).map(np.int32),
    st.booleans(),
    st.floats(-1, 4, width=16),
    st.none(),
    st.sampled_from(LEVEL_NAMES + ("week",)),
    st.text(max_size=2),
)


def view_one(cube, retained_dims):
    return view_elements(cube, [retained_dims])[0]


def outcome(resolve, request):
    """``("ok", element)`` or ``(exception type, message)``."""
    try:
        return "ok", resolve(CUBE, request)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1] is want[1]
    else:
        assert got[1] == want[1]


#: Retained dimensions as each collection type a caller may pass; each is
#: built twice, once per resolver, so a generator is not consumed twice.
collections = st.one_of(
    st.lists(any_names, max_size=4).map(lambda xs: lambda: list(xs)),
    st.lists(any_names, max_size=4).map(lambda xs: lambda: tuple(xs)),
    st.sets(hashable_names, max_size=4).map(lambda xs: lambda: set(xs)),
    st.lists(any_names, max_size=4).map(lambda xs: lambda: iter(list(xs))),
    st.one_of(
        st.text(max_size=3), st.integers(), st.none(), st.binary(max_size=2)
    ).map(lambda x: lambda: x),
)


@settings(max_examples=400)
@given(collections)
def test_a_view_request_resolves_as_the_oracle_does(build):
    assert_same(
        outcome(view_one, build()), outcome(resolve_view_explicit, build())
    )


mappings = st.dictionaries(hashable_names, levels, max_size=4)


@settings(max_examples=400)
@given(
    st.one_of(
        mappings,
        st.lists(st.tuples(st.sampled_from(NAMES), levels), max_size=2),
        st.sampled_from(NAMES),
        st.integers(),
        st.none(),
    )
)
def test_a_roll_up_request_resolves_as_the_oracle_does(request):
    assert_same(
        outcome(rollup_element, request),
        outcome(resolve_rollup_explicit, request),
    )


@settings(max_examples=200)
@given(st.lists(mappings, max_size=4), st.lists(collections, max_size=4))
def test_a_request_list_resolves_as_each_request_does(rollups, views):
    # One pass over the list: the elements in request order, or the first
    # refusal, as resolving the requests one at a time gives.
    for batch, one in (
        (rollup_elements, resolve_rollup_explicit),
        (view_elements, resolve_view_explicit),
    ):
        requests = rollups if batch is rollup_elements else views
        build = (lambda r: r) if batch is rollup_elements else (lambda r: r())
        want = []
        for request in requests:
            got = outcome(one, build(request))
            if got[0] != "ok":
                want = got
                break
            want.append(got[1])
        got = outcome(batch, [build(request) for request in requests])
        if isinstance(want, tuple):
            assert_same(got, want)
        else:
            assert got[0] == "ok" and len(got[1]) == len(want)
            assert all(map(operator.is_, got[1], want))


@given(st.dictionaries(st.sampled_from(NAMES), st.integers(0, 1), min_size=1))
def test_a_valid_roll_up_is_the_interned_element(request):
    element = rollup_element(CUBE, request)
    levels = [request.get(name, 0) for name in NAMES]
    assert element is CUBE.shape_id.intermediate(levels)


@pytest.mark.parametrize(
    "ask, message",
    [
        (lambda s: s.view(["x", 5]), "unknown dimensions ['x', 5]"),
        (lambda s: s.view([["day"]]), "unknown dimensions [['day']]"),
        (lambda s: s.rollup({"x": 1, 5: 1}), "unknown dimensions ['x', 5]"),
    ],
    ids=["mixed types", "unhashable", "mixed roll-up"],
)
def test_a_served_refusal_names_every_unknown_name(ask, message):
    server = OLAPServer(CUBE)
    with pytest.raises(InvalidQueryError) as refused:
        ask(server)
    assert str(refused.value) == message
    server.close()
