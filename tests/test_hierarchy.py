"""Tests for dimension hierarchies and roll-ups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bases import gaussian_pyramid
from repro.core.materialize import MaterializedSet
from repro.core.operators import OpCounter
from repro.cube import (
    BinaryHierarchy,
    DataCube,
    Dimension,
    HierarchicalDimension,
    rollup,
    rollup_element,
)
from repro.errors import InvalidQueryError


@pytest.fixture
def day_hierarchy() -> BinaryHierarchy:
    return BinaryHierarchy(("day", "pair", "half-week", "week"))


@pytest.fixture
def cube(rng, day_hierarchy) -> DataCube:
    dims = [
        HierarchicalDimension("day", list(range(8)), day_hierarchy),
        Dimension("store", ["A", "B"]),
    ]
    values = rng.integers(0, 10, size=(8, 2)).astype(float)
    return DataCube(values, dims, measure="sales")


class TestBinaryHierarchy:
    def test_levels(self, day_hierarchy):
        assert day_hierarchy.depth == 3
        assert day_hierarchy.level_of("day") == 0
        assert day_hierarchy.level_of("week") == 3
        assert day_hierarchy.block_size("half-week") == 4

    def test_unknown_level(self, day_hierarchy):
        with pytest.raises(KeyError, match="unknown level"):
            day_hierarchy.level_of("month")

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            BinaryHierarchy(("a", "a"))

    def test_empty(self):
        with pytest.raises(ValueError, match="at least the leaf level"):
            BinaryHierarchy(())


class TestHierarchicalDimension:
    def test_depth_bounded_by_extent(self, day_hierarchy):
        with pytest.raises(ValueError, match="exceeds log2"):
            HierarchicalDimension("d", [0, 1], day_hierarchy)

    def test_from_grouping_layout(self):
        dim = HierarchicalDimension.from_grouping(
            "store",
            {"north": ["n1", "n2", "n3"], "south": ["s1", "s2"]},
            leaf_level="store",
            group_level="region",
        )
        # Fan-out padded to 4; blocks are contiguous per region.
        assert dim.size == 8
        assert dim.encode("n1") == 0
        assert dim.encode("s1") == 4
        assert dim.hierarchy.level_of("region") == 2
        assert dim.group_names == ("north", "south")

    def test_from_grouping_rollup_sums_regions(self, rng):
        dim = HierarchicalDimension.from_grouping(
            "store", {"north": ["n1", "n2", "n3"], "south": ["s1", "s2"]}
        )
        values = np.zeros(8)
        data = {"n1": 3.0, "n2": 4.0, "n3": 5.0, "s1": 7.0, "s2": 1.0}
        for store, amount in data.items():
            values[dim.encode(store)] = amount
        cube = DataCube(values, [dim])
        rolled = rollup(cube, {"store": "group"})
        assert rolled[0] == pytest.approx(12.0)  # north
        assert rolled[1] == pytest.approx(8.0)  # south

    def test_from_grouping_empty(self):
        with pytest.raises(ValueError, match="at least one group"):
            HierarchicalDimension.from_grouping("x", {})


class TestRollup:
    def test_rollup_element_levels(self, cube):
        element = rollup_element(cube, {"day": "week"})
        assert element.nodes == ((3, 0), (0, 0))
        assert element.is_intermediate

    def test_integer_levels(self, cube):
        element = rollup_element(cube, {"day": 2, "store": 1})
        assert element.nodes == ((2, 0), (1, 0))

    def test_rollup_values_match_block_sums(self, cube):
        rolled = rollup(cube, {"day": "half-week"})
        expected = cube.values.reshape(2, 4, 2).sum(axis=1)
        np.testing.assert_array_equal(rolled, expected)

    def test_rollup_from_materialized_pyramid_is_free(self, cube):
        pyramid = MaterializedSet.from_cube(
            cube.values, gaussian_pyramid(cube.shape_id)
        )
        counter = OpCounter()
        rolled = rollup(
            cube, {"day": "week", "store": 1}, materialized=pyramid,
            counter=counter,
        )
        assert counter.total == 0  # stored intermediate: zero-op serve
        np.testing.assert_array_equal(
            rolled, cube.values.sum(axis=(0, 1), keepdims=True)
        )

    def test_unknown_dimension(self, cube):
        with pytest.raises(InvalidQueryError, match="unknown dimensions"):
            rollup_element(cube, {"bogus": 1})

    def test_level_out_of_range(self, cube):
        with pytest.raises(ValueError, match="outside"):
            rollup_element(cube, {"day": 4})

    def test_named_level_on_plain_dimension(self, cube):
        with pytest.raises(InvalidQueryError, match="no hierarchy"):
            rollup_element(cube, {"store": "region"})
