"""Delta propagation math for incremental view-element maintenance.

Every view element is a *linear* functional of the cube: each output cell
is a signed sum of a dyadic block of cube cells (``P1`` adds a pair,
``R1`` subtracts the odd half — Eqs 1-2).  A change of ``delta`` at one
cube cell therefore touches **exactly one** cell of every element — the
cell whose dyadic block contains the coordinate — with a sign of
``(-1)**(number of residual steps that split the coordinate into the odd
half)``.  Nothing else moves, so a materialized element, a cached
assembled view, or an on-demand range intermediate can all be *patched*
in O(1) per update cell instead of recomputed.

Both halves of that law separate by dimension: along dimension ``m`` an
element at node ``(level, index)`` is touched at ``coordinate >> level``,
and its sign flips once per set bit of ``index`` whose cascade step meets
a set bit of the coordinate.  Neither depends on the element's other
dimensions, so one burst needs them once per ``(dimension, node)``, not
once per patched array.  :class:`DeltaBatch` is that table: built once
per burst and coordinate frame, it validates the burst and memoises each
node's positions and flip parity as the patch loop first asks for them.
An element's cells are then a tuple of table entries.  A *pure
partial-sum* element (every ``index == 0``: all range intermediates, all
aggregated views and roll-ups) has no residual step, hence no sign at
all — its signed deltas are the burst's deltas themselves.

This module is the single home of that math.  :func:`patch_array` is the
one way a delta reaches an array; it is called, once per patched array,
by

- :meth:`repro.core.materialize.MaterializedSet.apply_updates` (stored
  element arrays),
- :meth:`repro.core.range_query.RangeQueryEngine.apply_updates`
  (on-demand assembled range intermediates), and
- :meth:`repro.server.OLAPServer.update_many` (cached assembled query
  answers),

and :meth:`repro.shard.sets.ShardedSet.apply_updates` re-frames a global
batch into one shard-local :class:`DeltaBatch` per owning shard.  The
scalar walk the table is tested against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidUpdateError
from .element import CubeShape, DimNode, ElementId
from .operators import OpCounter

__all__ = [
    "DeltaBatch",
    "patch_array",
]


class DeltaBatch:
    """One validated update burst in one coordinate frame.

    ``coordinates`` is an ``(n, d)`` batch of cells of a cube of ``shape``
    and ``deltas`` the ``(n,)`` values added to them.  Construction is the
    only validation a burst gets: rank, integral in-bounds coordinates and
    finite deltas, or :class:`~repro.errors.InvalidUpdateError`.  Any
    zero-size input is the empty batch.  Arrays already of the right dtype
    are kept by reference: do not write to them while the batch is in use.
    """

    __slots__ = (
        "shape", "coordinates", "deltas", "_columns", "_nodes", "_negated"
    )

    def __init__(self, shape: CubeShape, coordinates, deltas) -> None:
        coordinates = np.asarray(coordinates)
        deltas = np.asarray(deltas, dtype=np.float64)
        if coordinates.size == 0:
            coordinates = np.empty((0, shape.ndim), dtype=np.int64)
        if coordinates.ndim != 2 or coordinates.shape[1] != shape.ndim:
            raise InvalidUpdateError(
                f"coordinates must be (n, {shape.ndim}); "
                f"got {coordinates.shape}"
            )
        if deltas.shape != (coordinates.shape[0],):
            raise InvalidUpdateError(
                f"deltas must be ({coordinates.shape[0]},); got {deltas.shape}"
            )
        if coordinates.dtype.kind == "f":
            # ``astype(int64)`` would truncate 0.7 to cell 0 (and turn
            # nan/inf into arbitrary cells); NaN fails the equality too.
            if not (coordinates == np.floor(coordinates)).all():
                raise InvalidUpdateError("coordinates must be integers")
        elif coordinates.dtype.kind not in "iu":
            raise InvalidUpdateError(
                f"coordinates must be integers; got dtype {coordinates.dtype}"
            )
        if (coordinates < 0).any() or (coordinates >= shape.sizes).any():
            raise InvalidUpdateError("coordinates outside the cube extents")
        if not np.isfinite(deltas).all():
            raise InvalidUpdateError("deltas must be finite")
        self.shape = shape
        self.coordinates = coordinates.astype(np.int64, copy=False)
        self.deltas = deltas
        #: One contiguous row per dimension (``coordinates`` is row-major).
        self._columns = np.ascontiguousarray(self.coordinates.T)
        #: Per dimension: ``{(level, index): (positions, flips | None)}``.
        self._nodes: tuple[dict, ...] = tuple({} for _ in shape.sizes)
        self._negated: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.deltas)

    def _resolve_node(self, m: int, node: DimNode) -> tuple:
        """Positions and flip parity of one dimension node for this burst.

        The cascade runs LSB-first over the coordinate while ``index``
        records it MSB-first: step ``s`` is ``R1`` when bit
        ``level - 1 - s`` of ``index`` is set, and ``R1`` negates the odd
        slot — bit ``s`` of the coordinate.
        """
        level, index = node
        column = self._columns[m]
        positions = column >> level if level else column
        flips = None
        if index:
            parity = np.zeros_like(column)
            for step in range(level):
                if (index >> (level - 1 - step)) & 1:
                    parity ^= column >> step
            flips = (parity & 1).astype(bool)
        entry = self._nodes[m][node] = (positions, flips)
        return entry

    def resolve(self, element: ElementId) -> tuple[tuple, np.ndarray]:
        """``(cells, signed deltas)`` of the burst in ``element``'s array.

        ``cells`` is one position array per dimension (an ``np.add.at``
        index); the signed deltas are ``deltas`` itself unless some
        dimension of ``element`` has a residual step.
        """
        if element.shape is not self.shape and element.shape != self.shape:
            raise ValueError(
                f"element of a {element.shape.sizes} cube patched from a "
                f"{self.shape.sizes} batch"
            )
        cells = []
        flips = None
        for m, node in enumerate(element.nodes):
            entry = self._nodes[m].get(node) or self._resolve_node(m, node)
            cells.append(entry[0])
            if entry[1] is not None:
                flips = entry[1] if flips is None else flips ^ entry[1]
        if flips is None:
            return tuple(cells), self.deltas
        if self._negated is None:
            self._negated = -self.deltas
        return tuple(cells), np.where(flips, self._negated, self.deltas)


def patch_array(
    element: ElementId,
    values: np.ndarray,
    batch: DeltaBatch,
    counter: OpCounter | None = None,
    label: str = "incremental update",
) -> int:
    """Patch ``element``'s materialized array in place for a delta batch.

    ``batch`` is in ``element``'s coordinate frame.  Exact for
    integer-valued cubes (every route through the filter bank is a signed
    integer sum); for float data the patch equals the recomputation up to
    the usual reassociation error.  Duplicate cells accumulate in row
    order.  Returns the number of deltas applied.
    """
    applied = len(batch)
    if applied:
        cells, signed = batch.resolve(element)
        np.add.at(values, cells, signed)
        if counter is not None:
            counter.add(additions=applied, label=label)
    return applied
