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

This module is the single home of that math, and a delta reaches an
array by what the array is:

- a *signed* array — a stored element, which may have residual steps — is
  patched by :func:`patch_array`, one scatter per array
  (:meth:`repro.core.materialize.MaterializedSet.apply_updates`);
- a *pure* warm array — a server's cached answers and its range engine's
  intermediates — is patched through a :class:`SlabStore`, one scatter
  per *slab* for many arrays at once.  A pure element's patch is the
  burst's deltas at ``coordinate >> level`` per dimension, so arrays
  packed side by side in one flat buffer are patched by one flat index:
  the slot's offset plus the strided sum of those positions.  Arrays
  warmed before the first burst join as slabs of their own, in place.

:meth:`repro.shard.sets.ShardedSet.apply_updates` re-frames a global
batch into one shard-local :class:`DeltaBatch` per owning shard.  The
scalar walk the table is tested against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Collection

import numpy as np

from ..errors import InvalidUpdateError
from .element import CubeShape, DimNode, ElementId
from .operators import OpCounter

__all__ = [
    "DeltaBatch",
    "SLAB_CELLS",
    "SlabStore",
    "patch_array",
]

#: Cells of one shared slab: smaller warm arrays are packed into the
#: current slab, an array of at least this many cells is a slab of its own.
SLAB_CELLS = 4096


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
    label: str = "batch update",
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


class _Slab:
    """One flat buffer and the live slots packed into it."""

    __slots__ = ("buffer", "used", "slots")

    def __init__(self, buffer: np.ndarray) -> None:
        self.buffer = buffer
        self.used = 0
        #: ``(view, [offset, levels..., strides in cells...])`` per live
        #: slot, in adoption order.
        self.slots: list[tuple[np.ndarray, np.ndarray]] = []


class SlabStore:
    """Warm pure partial-sum arrays packed into slabs, one scatter per slab.

    Every array in a store is a pure partial-sum element (every ``index ==
    0``) of one cube ``shape``, so a burst lands on it unsigned at
    ``coordinate >> level`` per dimension.  :meth:`adopt` copies an array
    into the current slab of its ``label`` (an array of at least
    :data:`SLAB_CELLS` cells is a slab of its own, not copied) and returns
    the slab view that replaces it; :meth:`join` makes arrays a caller may
    already hold slabs of their own, in place; :meth:`patch` repairs every
    live slot of a label with one ``np.add.at`` per slab.  Slots are
    disjoint and a slot's duplicate cells accumulate in burst row order,
    so the bytes equal :func:`patch_array` per array, and the additions
    are charged under ``label`` exactly as it would.

    Each label's owner says which views are still live
    (:meth:`track`: the ids of the arrays it holds).  Liveness is swept at
    each :meth:`patch` and before a new slab is allocated: a dead slot is
    never patched nor reused — a caller may still hold its view — and a
    slab with no live slot is dropped, so a label's slabs hold at most its
    live cells plus one :data:`SLAB_CELLS` per live slot.

    The store is also where readers and bursts meet: :attr:`sequence` is
    bumped under :attr:`lock` when a burst begins and when it ends (odd
    while one is being applied).  A reader that read storage to build an
    array notes the sequence first and, under :attr:`lock`, keeps the
    array only while :meth:`settled` says no burst began since — otherwise
    the burst already repaired everything warm and would never repair it.
    A reader that combines several arrays checks :meth:`settled` once it
    has read them all, and reads again if a burst came between.
    """

    def __init__(self, shape: CubeShape) -> None:
        self.shape = shape
        #: Guards adoption, sweeping and patching; readers check
        #: :meth:`settled` and adopt under it.
        self.lock = threading.RLock()
        #: Burst sequence: odd while a burst is being applied.
        self.sequence = 0
        #: Whether a burst has been patched: owners adopt only from then on.
        self.active = False
        self._slabs: dict[str, list[_Slab]] = {}
        self._open: dict[str, _Slab] = {}
        self._live: dict[str, Callable[[], Collection[int]]] = {}
        #: Per label, the ids of the arrays in its slabs — views handed
        #: out and arrays joined — not yet swept (read under :attr:`lock`).
        self.held: dict[str, set[int]] = {}
        #: Per label, :meth:`_index` until its slots change.
        self._indexes: dict[str, tuple] = {}

    def track(self, label: str, live: Callable[[], Collection[int]]) -> None:
        """Register ``label``'s owner: ``live()`` returns the ids of the
        arrays it still holds."""
        self._live[label] = live
        self._slabs.setdefault(label, [])
        self.held.setdefault(label, set())

    def begin_burst(self) -> None:
        with self.lock:
            self.sequence += 1

    def end_burst(self) -> None:
        with self.lock:
            self.sequence += 1

    def settled(self, mark: int) -> bool:
        """No burst has begun since :attr:`sequence` read ``mark`` (call
        under :attr:`lock` to keep something on the strength of it)."""
        return mark == self.sequence and not mark & 1

    def adopt(
        self, element: ElementId, values: np.ndarray, label: str
    ) -> np.ndarray:
        """Pack ``element``'s array into ``label``'s slabs; returns the view
        that replaces it.  Call with :attr:`lock` held."""
        cells = values.size
        if cells >= SLAB_CELLS:
            view = np.ascontiguousarray(values)
            self.join(label, [(element, view)])
            return view
        self._check(element)
        slab = self._open.get(label)
        if (
            slab is None
            or slab.used + cells > slab.buffer.size
            or slab.buffer.dtype != values.dtype
        ):
            slab = self._open[label] = self._allocate(
                label, np.empty(SLAB_CELLS, dtype=values.dtype)
            )
        view = slab.buffer[slab.used : slab.used + cells]
        view = view.reshape(values.shape)
        view[...] = values
        self._slot(slab, element, view, label)
        return view

    def join(self, label: str, arrays) -> None:
        """Each ``(element, values)`` of ``arrays`` not in ``label``'s slabs
        yet becomes a slab of its own over its own buffer: from now on
        every burst patches it in place.  Nothing is copied — its owner,
        and any caller it was handed to, keep holding it.  Call with
        :attr:`lock` held."""
        held = self.held[label]
        for element, values in arrays:
            if id(values) in held:
                continue
            self._check(element)
            if not values.flags.c_contiguous:
                raise ValueError(f"{element!r} is not contiguous")
            slab = _Slab(values.reshape(-1))
            self._slabs[label].append(slab)
            self._slot(slab, element, values, label)

    def _check(self, element: ElementId) -> None:
        if not element.is_intermediate or element.shape != self.shape:
            raise ValueError(f"{element!r} is not a pure element of this cube")

    def _slot(
        self, slab: _Slab, element: ElementId, view: np.ndarray, label: str
    ) -> None:
        """Append ``view`` to ``slab``'s live slots."""
        row = [slab.used]
        row += [level for level, _ in element.nodes]
        row += [stride // view.itemsize for stride in view.strides]
        slab.slots.append((view, np.array(row, dtype=np.int64)))
        slab.used += view.size
        self._indexes.pop(label, None)
        self.held[label].add(id(view))

    def _allocate(self, label: str, buffer: np.ndarray) -> _Slab:
        self.sweep(label)
        slab = _Slab(buffer)
        self._slabs[label].append(slab)
        return slab

    def sweep(self, label: str) -> None:
        """Drop ``label``'s dead slots, and its slabs left with none."""
        with self.lock:
            held = self.held[label]
            dead = held.difference(self._live[label]())
            if not dead:
                return
            held -= dead
            self._indexes.pop(label, None)
            kept = []
            for slab in self._slabs[label]:
                slab.slots = [
                    slot for slot in slab.slots if id(slot[0]) not in dead
                ]
                if slab.slots:
                    kept.append(slab)
                elif self._open.get(label) is slab:
                    del self._open[label]
            self._slabs[label] = kept

    def patch(
        self, batch: DeltaBatch, counter: OpCounter | None, label: str
    ) -> int:
        """Scatter ``batch`` into every live slot of ``label``: one
        ``np.add.at`` per slab.  Returns the number of slots patched."""
        if batch.shape is not self.shape and batch.shape != self.shape:
            raise ValueError(
                f"slabs of a {self.shape.sizes} cube patched from a "
                f"{batch.shape.sizes} batch"
            )
        n = len(batch)
        with self.lock:
            self.active = True
            if not n:
                return 0
            self.sweep(label)
            patched = len(self.held[label])
            if not patched:
                return 0
            offsets, levels, strides, spans = self._index(label)
            # Row s of ``flat``: slot s's cell of every burst row.
            columns = batch._columns
            flat = offsets + (columns[0] >> levels[0]) * strides[0]
            for m in range(1, len(columns)):
                flat += (columns[m] >> levels[m]) * strides[m]
            # Tiled, not broadcast: numpy 2.4's ``np.add.at`` reads past the
            # values when they broadcast over a 2-D index.
            signed = np.tile(batch.deltas, patched)
            for buffer, start, stop in spans:
                np.add.at(
                    buffer,
                    flat[start:stop].ravel(),
                    signed[start * n : stop * n],
                )
        if counter is not None:
            counter.add(additions=n * patched, label=label)
        return patched

    def _index(self, label: str) -> tuple:
        """``(offsets (k, 1), levels (d, k, 1), strides (d, k, 1), spans)``
        over ``label``'s live slots, slab by slab; ``spans`` is one
        ``(buffer, first slot, stop slot)`` per slab."""
        index = self._indexes.get(label)
        if index is None:
            rows, spans = [], []
            for slab in self._slabs[label]:
                stop = len(rows) + len(slab.slots)
                spans.append((slab.buffer, len(rows), stop))
                rows += [row for _, row in slab.slots]
            d = self.shape.ndim
            rows = np.concatenate(rows).reshape(len(rows), 1 + 2 * d)
            index = self._indexes[label] = (
                rows[:, :1],
                rows[:, 1 : 1 + d].T[:, :, None],
                rows[:, 1 + d :].T[:, :, None],
                spans,
            )
        return index
