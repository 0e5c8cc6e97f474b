"""Dimension metadata for MOLAP cubes.

The paper's Section 2 maps each functional attribute of a relation to one
dimension of the data cube and requires every domain size to be a power of
two.  :class:`Dimension` owns that mapping: it encodes attribute values to
dense integer coordinates, optionally pads the domain up to the next power
of two, and decodes coordinates back to values.  :class:`DimensionSet`
bundles the dimensions of one cube.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Dimension", "DimensionSet", "next_power_of_two"]


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is >= ``n`` (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class Dimension:
    """One functional attribute mapped to a cube axis.

    Parameters
    ----------
    name:
        Attribute name.
    values:
        The attribute's domain, in coordinate order.  Values must be unique
        and hashable.
    pad_to_power_of_two:
        When True (default) the axis extent is padded up to the next power
        of two with synthetic ``None`` slots; padded cells hold zero measure
        and never affect SUM aggregations.
    """

    def __init__(self, name: str, values: Sequence, pad_to_power_of_two: bool = True):
        self.name = str(name)
        values = list(values)
        if not values:
            raise ValueError(f"dimension {name!r} has an empty domain")
        if len(set(values)) != len(values):
            raise ValueError(f"dimension {name!r} has duplicate domain values")
        self._values = values
        self.cardinality = len(values)
        self.size = (
            next_power_of_two(len(values)) if pad_to_power_of_two else len(values)
        )
        if self.size & (self.size - 1):
            raise ValueError(
                f"dimension {name!r} extent {self.size} is not a power of two; "
                "enable pad_to_power_of_two"
            )
        self._codes = {value: i for i, value in enumerate(values)}

    @property
    def values(self) -> list:
        """Domain values in coordinate order (padding slots excluded)."""
        return list(self._values)

    @property
    def padded_slots(self) -> int:
        """Number of synthetic padding coordinates."""
        return self.size - self.cardinality

    def encode(self, value) -> int:
        """Coordinate of ``value``; a :class:`KeyError` naming this
        dimension for a value outside its domain."""
        if value not in self._codes:
            raise KeyError(f"unknown value {value!r} for dimension {self.name!r}")
        return self._codes[value]

    def encode_many(self, values: Iterable) -> np.ndarray:
        """Vector of coordinates for many values."""
        return np.array([self._codes[v] for v in values], dtype=np.int64)

    def decode(self, code: int) -> object:
        """Value at coordinate ``code`` (``None`` for padding slots)."""
        if not 0 <= code < self.size:
            raise IndexError(f"coordinate {code} outside [0, {self.size})")
        if code >= self.cardinality:
            return None
        return self._values[code]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dimension({self.name!r}, cardinality={self.cardinality}, "
            f"size={self.size})"
        )


class DimensionSet:
    """The ordered dimensions of one cube."""

    def __init__(self, dimensions: Sequence[Dimension]):
        dimensions = list(dimensions)
        if not dimensions:
            raise ValueError("a cube needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")
        self._dimensions = dimensions
        #: Axis index per dimension name: the table request resolution
        #: reads (:meth:`axis_of` is its checked form).  Not to be mutated.
        self.axes: dict = {d.name: i for i, d in enumerate(dimensions)}
        #: Dimension names in axis order.
        self.names: tuple[str, ...] = tuple(names)
        #: Padded axis extents in axis order.
        self.sizes: tuple[int, ...] = tuple(d.size for d in dimensions)

    def axis_of(self, name: str) -> int:
        """Axis index of the dimension called ``name``."""
        try:
            return self.axes[name]
        except KeyError:
            raise KeyError(
                f"unknown dimension {name!r}; have {list(self.axes)}"
            ) from None

    def axes_of(self, names: Iterable[str]) -> tuple[int, ...]:
        """Axis indices for several dimension names."""
        return tuple(self.axis_of(n) for n in names)

    def encode(self, record: Mapping) -> tuple[int, ...]:
        """The cell ``record`` addresses: one domain value per dimension,
        keyed by dimension name.

        A missing dimension, a value outside its dimension's domain and
        keys naming no dimension each raise a :class:`KeyError` that names
        them.
        """
        index = []
        for dim in self._dimensions:
            if dim.name not in record:
                raise KeyError(f"missing coordinate for dimension {dim.name!r}")
            index.append(dim.encode(record[dim.name]))
        if len(record) > len(index):
            extra = set(record) - set(self.names)
            raise KeyError(f"unknown dimensions {sorted(extra)}")
        return tuple(index)

    def __getitem__(self, key) -> Dimension:
        if isinstance(key, str):
            return self._dimensions[self.axis_of(key)]
        return self._dimensions[key]

    def __iter__(self):
        return iter(self._dimensions)

    def __len__(self) -> int:
        return len(self._dimensions)
