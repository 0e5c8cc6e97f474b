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

Hierarchies whose fan-out is not a power of two are handled the standard
MOLAP way: order leaves so that each parent owns a contiguous, padded,
power-of-two block (see :meth:`BinaryHierarchy.from_grouping`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.element import ElementId, as_index
from ..errors import InvalidQueryError
from ..core.materialize import MaterializedSet
from ..core.operators import OpCounter, partial_sum_k
from .datacube import DataCube
from .dimensions import Dimension, next_power_of_two

__all__ = ["BinaryHierarchy", "HierarchicalDimension", "rollup", "rollup_element"]


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


def rollup_element(
    cube: DataCube, levels: Mapping[str, str | int]
) -> ElementId:
    """The intermediate view element implementing a roll-up.

    ``levels`` maps dimension names to either a named hierarchy level (for
    :class:`HierarchicalDimension`) or an integer cascade depth.  Omitted
    dimensions stay at leaf granularity.  A depth that is not an integer
    (``1.9``, ``True``), or is above the dimension's hierarchy, is an
    :class:`~repro.errors.InvalidQueryError`, never truncated; so is a
    ``levels`` that is not a mapping (``"d0"``, ``[("d0", 1)]``), an
    unknown dimension or level name, and a named level on a dimension
    with no hierarchy.  The
    result is the shape's one interned object for that level vector
    (:meth:`CubeShape.intermediate`).
    """
    if not isinstance(levels, Mapping):
        raise InvalidQueryError(
            "roll-up levels must be a mapping of dimension names to levels, "
            f"not {type(levels).__name__} {levels!r}"
        )
    dims = cube.dimensions
    shape = cube.shape_id
    depths = shape.depths
    resolved = [0] * len(depths)
    unknown = []
    for name, spec in levels.items():
        try:
            axis = dims.axis_of(name)
        except KeyError:
            unknown.append(name)
            continue
        if isinstance(spec, str):
            dim = dims[axis]
            if not isinstance(dim, HierarchicalDimension):
                raise InvalidQueryError(
                    f"dimension {name!r} has no hierarchy; "
                    "use an integer level"
                )
            try:
                k = dim.hierarchy.level_of(spec)
            except KeyError as unknown_level:
                raise InvalidQueryError(unknown_level.args[0]) from None
        else:
            k = as_index(spec, f"level of dimension {name!r}")
        if not 0 <= k <= depths[axis]:
            raise InvalidQueryError(
                f"level {k} outside [0, {depths[axis]}] for dimension {name!r}"
            )
        resolved[axis] = k
    if unknown:
        raise InvalidQueryError(f"unknown dimensions {sorted(unknown)}")
    return shape.intermediate(tuple(resolved))


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
