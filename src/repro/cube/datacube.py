"""Dense MOLAP data cubes (Section 2 of the paper).

A :class:`DataCube` is a dense d-dimensional array of SUM-aggregated measure
values plus the :class:`~repro.cube.dimensions.DimensionSet` that names and
encodes its axes.  It is the substrate the view element machinery operates
on: ``cube.shape_id`` hands the matching
:class:`~repro.core.element.CubeShape` to the selection algorithms, and
``cube.view(...)`` / ``cube.cell(...)`` provide the classic OLAP reads that
the paper's assembled views must agree with (the test-suite checks exactly
that agreement).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..core.element import CubeShape
from ..core.operators import OpCounter, total_aggregate
from .dimensions import Dimension, DimensionSet

__all__ = ["DataCube"]


class DataCube:
    """A dense data cube with named, encoded dimensions."""

    def __init__(self, values: np.ndarray, dimensions: Sequence[Dimension], measure: str = "measure"):
        dims = DimensionSet(dimensions)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != dims.sizes:
            raise ValueError(
                f"values shape {values.shape} does not match dimension sizes {dims.sizes}"
            )
        self.values = values
        #: A read-only view of :attr:`values`, made once: what serving hands
        #: out when an answer is the base cube itself (a sharded server's
        #: root, the degraded path's), so a caller's write cannot reach it.
        self.readonly = values.view()
        self.readonly.flags.writeable = False
        self.dimensions = dims
        self.measure = str(measure)
        #: The :class:`CubeShape` seen by the view element machinery — one
        #: object per cube, so the server, the request resolvers and the
        #: range engine share its table of interned intermediates.
        self.shape_id = CubeShape(dims.sizes)

    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.values.ndim

    @property
    def volume(self) -> int:
        """Total number of cells."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of non-zero cells — the paper's sparsity concern."""
        return float(np.count_nonzero(self.values)) / self.values.size

    # ------------------------------------------------------------------
    # Classic OLAP reads

    def view(
        self,
        aggregated_dims: Iterable[str],
        counter: OpCounter | None = None,
    ) -> np.ndarray:
        """The aggregated view that totally SUMs the named dimensions.

        Computed by the paper's cascade of partial sums (Eq 16), so the
        operation count matches the analytic model.
        """
        axes = self.dimensions.axes_of(aggregated_dims)
        return total_aggregate(self.values, axes, counter=counter)

    def cell(self, **coordinates) -> float:
        """Read one cell addressed by dimension *values* (not codes)."""
        return float(self.values[self.dimensions.encode(coordinates)])

    def slice(self, **coordinates) -> np.ndarray:
        """Dice: fix the given dimensions by value, keep the rest."""
        index: list = [slice(None)] * self.ndim
        for name, value in coordinates.items():
            axis = self.dimensions.axis_of(name)
            index[axis] = self.dimensions[axis].encode(value)
        return self.values[tuple(index)]

    def total(self) -> float:
        """Grand total of the measure."""
        return float(self.values.sum())

    # ------------------------------------------------------------------

    def to_records(self, include_zeros: bool = False) -> list[dict]:
        """Decode the cube back to relational records.

        Padding coordinates (decoded as ``None``) are skipped; zero cells
        are skipped unless ``include_zeros``.
        """
        records = []
        it = np.ndenumerate(self.values)
        for index, value in it:
            if not include_zeros and value == 0:
                continue
            record = {}
            skip = False
            for dim, code in zip(self.dimensions, index):
                decoded = dim.decode(int(code))
                if decoded is None:
                    skip = True
                    break
                record[dim.name] = decoded
            if skip:
                continue
            record[self.measure] = float(value)
            records.append(record)
        return records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(
            f"{d.name}[{d.cardinality}/{d.size}]" for d in self.dimensions
        )
        return f"DataCube({dims}; measure={self.measure!r})"
