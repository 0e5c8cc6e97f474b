"""Dimension hierarchies and roll-ups via intermediate view elements.

OLAP dimensions usually carry concept hierarchies (day -> week -> month;
store -> city -> region).  The paper's partial-sum cascade *is* a binary
hierarchy: level-``k`` cells of an intermediate view element aggregate
blocks of ``2**k`` adjacent coordinates.  This module makes that explicit:

- :class:`BinaryHierarchy` names the levels of the cascade over one
  dimension (level 0 = leaves), so "roll up day to week" becomes "read the
  level-``log2(7→8)`` partial aggregate along the day axis".
- :func:`rollup` computes a roll-up view of a cube for a per-dimension
  level assignment — which is exactly the intermediate view element with
  those levels, so materialized Gaussian pyramids serve roll-ups with zero
  aggregation work.
- :func:`rollup_elements` and :func:`view_elements` resolve a served
  batch of requests to those elements by table: the cube's name-to-axis
  table and the shape's depths, then the shape's intern table, each read
  once per batch (:func:`rollup_element` resolves one roll-up).

Hierarchies whose fan-out is not a power of two are handled the standard
MOLAP way: order leaves so that each parent owns a contiguous, padded,
power-of-two block (see :meth:`BinaryHierarchy.from_grouping`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

from ..core.element import ElementId, as_index
from ..errors import InvalidQueryError
from ..core.materialize import MaterializedSet
from ..core.operators import OpCounter, partial_sum_k
from .datacube import DataCube
from .dimensions import Dimension, next_power_of_two

__all__ = [
    "BinaryHierarchy",
    "HierarchicalDimension",
    "rollup",
    "rollup_element",
    "rollup_elements",
    "view_elements",
]


@dataclass(frozen=True)
class BinaryHierarchy:
    """Named levels of the dyadic cascade over one dimension.

    ``level_names[k]`` names the granularity after ``k`` partial sums;
    ``level_names[0]`` is the leaf level.  A dimension of extent ``n``
    supports ``log2(n) + 1`` levels.
    """

    level_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.level_names:
            raise ValueError("a hierarchy needs at least the leaf level")
        if len(set(self.level_names)) != len(self.level_names):
            raise ValueError(f"duplicate level names in {self.level_names}")

    @property
    def depth(self) -> int:
        """Number of roll-up steps above the leaves."""
        return len(self.level_names) - 1

    def level_of(self, name: str) -> int:
        """The cascade depth of the named level."""
        try:
            return self.level_names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown level {name!r}; have {list(self.level_names)}"
            ) from None

    def block_size(self, name: str) -> int:
        """Leaves aggregated per cell at the named level."""
        return 1 << self.level_of(name)


class HierarchicalDimension(Dimension):
    """A :class:`Dimension` with an attached :class:`BinaryHierarchy`.

    The hierarchy's depth must not exceed ``log2`` of the padded extent —
    each level halves the number of cells.
    """

    def __init__(
        self,
        name: str,
        values: Sequence,
        hierarchy: BinaryHierarchy,
        pad_to_power_of_two: bool = True,
    ):
        super().__init__(name, values, pad_to_power_of_two)
        max_depth = self.size.bit_length() - 1
        if hierarchy.depth > max_depth:
            raise ValueError(
                f"hierarchy depth {hierarchy.depth} exceeds log2(extent)="
                f"{max_depth} for dimension {name!r}"
            )
        self.hierarchy = hierarchy

    @classmethod
    def from_grouping(
        cls,
        name: str,
        groups: Mapping[str, Sequence],
        leaf_level: str = "leaf",
        group_level: str = "group",
    ) -> "HierarchicalDimension":
        """Build a two-level hierarchy from ``{parent: [children]}``.

        Children of each parent are laid out in a contiguous block padded
        to the largest parent's power-of-two fan-out, so one roll-up step
        per doubling reaches the parent level exactly.
        """
        if not groups:
            raise ValueError("at least one group is required")
        fan_out = next_power_of_two(max(len(v) for v in groups.values()))
        ordered: list = []
        parents: list[str] = []
        for parent, children in groups.items():
            children = list(children)
            parents.append(parent)
            ordered.extend(children)
            # Pad the block with unique placeholders so alignment holds.
            for i in range(fan_out - len(children)):
                ordered.append(f"__pad_{parent}_{i}")
        steps = fan_out.bit_length() - 1
        hierarchy = BinaryHierarchy(
            tuple(
                [leaf_level]
                + [f"{leaf_level}/{2 ** (s + 1)}" for s in range(steps - 1)]
                + [group_level]
            )
            if steps > 0
            else (leaf_level,)
        )
        dim = cls(name, ordered, hierarchy)
        dim.group_names = tuple(parents)  # type: ignore[attr-defined]
        dim.group_fan_out = fan_out  # type: ignore[attr-defined]
        return dim


def _unknown_dimensions(names) -> InvalidQueryError:
    """The refusal of a request naming ``names``, which name no dimension:
    each listed once, ordered by ``repr`` (the names may be of any type,
    unhashable ones included)."""
    return InvalidQueryError(
        f"unknown dimensions [{', '.join(sorted(set(map(repr, names))))}]"
    )


def view_elements(cube: DataCube, requests) -> list[ElementId]:
    """The aggregated view of each request, in order (Definition 1).

    A request is a collection of retained dimension names: each name is
    read off the cube's name table (:attr:`~repro.cube.dimensions.
    DimensionSet.axes`), every other dimension is at its full depth.  The
    tables are read once per call, not once per request.  A bare name
    (``"d0"``), a request that is not a collection, and an unknown or
    unhashable name are each an :class:`~repro.errors.InvalidQueryError`.
    Each result is the shape's one interned object for its level vector,
    found by slot.
    """
    shape = cube.shape_id
    axes, interned = cube.dimensions.axes, shape.intermediate
    by_slot, strides = shape.by_slot, shape.strides
    depths = list(shape.depths)
    elements = []
    for retained_dims in requests:
        try:
            if isinstance(retained_dims, (str, bytes)):
                raise TypeError
            names = iter(retained_dims)
        except TypeError:
            raise InvalidQueryError(
                "retained dimensions must be a collection of names, not "
                f"{type(retained_dims).__name__} {retained_dims!r}"
            ) from None
        levels, unknown = depths.copy(), []
        for name in names:
            try:
                levels[axes[name]] = 0
            except (KeyError, TypeError):  # unknown, or unhashable
                unknown.append(name)
        if unknown:
            raise _unknown_dimensions(unknown)
        slot = sum(map(mul, levels, strides))
        elements.append(by_slot.get(slot) or interned(levels))
    return elements


def rollup_elements(cube: DataCube, requests) -> list[ElementId]:
    """The intermediate view element of each roll-up request, in order.

    A request maps dimension names to either a named hierarchy level (for
    :class:`HierarchicalDimension`) or an integer cascade depth; omitted
    dimensions stay at leaf granularity.  Each name is read off the cube's
    name table and each depth checked against the shape's — an exact
    ``int`` with no conversion — the tables read once per call.  A depth
    that is not an integer (``1.9``, ``True``), or is above the
    dimension's hierarchy, is an :class:`~repro.errors.InvalidQueryError`,
    never truncated; so is a request that is not a mapping (``"d0"``,
    ``[("d0", 1)]``), an unknown or unhashable dimension name, an unknown
    level name, and a named level on a dimension with no hierarchy.  Each
    result is the shape's one interned object for its level vector
    (:meth:`CubeShape.intermediate`), found by slot.
    """
    dims = cube.dimensions
    shape = cube.shape_id
    axes, depths, interned = dims.axes, shape.depths, shape.intermediate
    by_slot, strides = shape.by_slot, shape.strides
    zeros = [0] * len(depths)
    elements = []
    for levels in requests:
        if type(levels) is not dict and not isinstance(levels, Mapping):
            raise InvalidQueryError(
                "roll-up levels must be a mapping of dimension names to "
                f"levels, not {type(levels).__name__} {levels!r}"
            )
        resolved, unknown = zeros.copy(), []
        for name, k in levels.items():
            try:
                axis = axes[name]
            except (KeyError, TypeError):  # unknown, or unhashable
                unknown.append(name)
                continue
            if type(k) is not int:
                if isinstance(k, str):
                    dim = dims[axis]
                    if not isinstance(dim, HierarchicalDimension):
                        raise InvalidQueryError(
                            f"dimension {name!r} has no hierarchy; "
                            "use an integer level"
                        )
                    try:
                        k = dim.hierarchy.level_of(k)
                    except KeyError as unknown_level:
                        raise InvalidQueryError(
                            unknown_level.args[0]
                        ) from None
                else:
                    k = as_index(k, f"level of dimension {name!r}")
            if not 0 <= k <= depths[axis]:
                raise InvalidQueryError(
                    f"level {k} outside [0, {depths[axis]}] for dimension "
                    f"{name!r}"
                )
            resolved[axis] = k
        if unknown:
            raise _unknown_dimensions(unknown)
        slot = sum(map(mul, resolved, strides))
        elements.append(by_slot.get(slot) or interned(resolved))
    return elements


def rollup_element(
    cube: DataCube, levels: Mapping[str, str | int]
) -> ElementId:
    """The intermediate view element implementing one roll-up: one
    request's :func:`rollup_elements`."""
    return rollup_elements(cube, (levels,))[0]


def rollup(
    cube: DataCube,
    levels: Mapping[str, str | int],
    materialized: MaterializedSet | None = None,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Compute a roll-up view of ``cube``.

    With a ``materialized`` element set (e.g. a Gaussian pyramid), the
    roll-up is *assembled* — a stored intermediate element serves it with
    zero aggregation work; otherwise it is computed by partial-sum
    cascades directly on the cube.
    """
    element = rollup_element(cube, levels)
    if materialized is not None:
        return materialized.assemble(element, counter=counter)
    out = cube.values
    for axis, (k, _) in enumerate(element.nodes):
        out = partial_sum_k(out, axis, k, counter=counter)
    return out
