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
a set bit of the coordinate.  Neither depends on the burst, so they are
*lookup tables*: per dimension, one row of ``n_m`` entries per array.  A
*pure partial-sum* element (every ``index == 0``: all range intermediates,
all aggregated views and roll-ups) has no residual step, hence no sign.

Arrays are repaired through a :class:`SlabStore`: each array is a *slot*
of a flat buffer — packed side by side into a shared slab, or a slab of
its own over its own memory — and the store compiles the live slots of
its owners into one index, rebuilt only when that slot set changes.  Per
dimension the index holds a ``(slots, n_m)`` table of flat buffer offsets
(the slot's offset folded into dimension 0) and, where a slot has
residual steps, a ``(slots, n_m)`` table of ``±1``.  A burst is then one
``take`` per dimension, a product of signs, and one ``np.add.at`` per
buffer.  On a one-shard server every array a burst repairs is an owner
of one store, the stored set's
(:meth:`repro.core.materialize.MaterializedSet.apply_updates`), so one
index and one scatter repair all of them:

- the stored elements (signed, each a slot over its own buffer);
- the range engine's intermediates (pure), which share the store of the
  set the engine was built over
  (:meth:`repro.core.range_query.RangeQueryEngine.apply_updates`);
- the server's cached answers (pure, packed).

The store applies a batch once per owner: a later patch with the same
batch reaches only the owners the first did not, so the set and its
engine may be patched in either order.  A sharded set's stores are
shard-local, so there the engine keeps a store of its own in the global
frame.  Owners report the arrays they let go (:meth:`SlabStore.dropped`),
and the store sweeps an owner's liveness only after such a report.

:func:`patch_array` is the one-array reference the index is tested
against; the scalar walk it is tested against lives in
``tests/oracles.py``.  :meth:`repro.shard.sets.ShardedSet.apply_updates`
re-frames a global batch into one shard-local :class:`DeltaBatch` per
owning shard.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Collection
from itertools import repeat
from numbers import Real

import numpy as np

from ..errors import InvalidUpdateError
from .element import CubeShape, ElementId
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
    finite real deltas, or :class:`~repro.errors.InvalidUpdateError`.  Any
    zero-size input is the empty batch.  Arrays already of the right dtype
    are kept by reference: do not write to them while the batch is in use.
    """

    __slots__ = ("shape", "coordinates", "deltas", "_columns")

    def __init__(self, shape: CubeShape, coordinates, deltas) -> None:
        coordinates = np.asarray(coordinates)
        deltas = np.asarray(deltas)
        # Complex, text and date deltas are refused, not cast: a cast would
        # drop an imaginary part or parse "1.5" — held in an object array
        # too, where ``None`` is no number either.
        kind = deltas.dtype.kind
        if kind not in "biuf" and (
            kind != "O" or not all(map(isinstance, deltas.flat, repeat(Real)))
        ):
            raise InvalidUpdateError(
                f"deltas must be real numbers; got dtype {deltas.dtype}"
            )
        try:
            deltas = deltas.astype(np.float64, copy=False)
        except (TypeError, ValueError):
            raise InvalidUpdateError("deltas must be real numbers") from None
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

    def __len__(self) -> int:
        return len(self.deltas)


def patch_array(
    element: ElementId,
    values: np.ndarray,
    batch: DeltaBatch,
    counter: OpCounter | None = None,
    label: str = "batch update",
) -> int:
    """Patch ``element``'s materialized array in place for a delta batch.

    The one-array reference of the compiled scatter (:class:`SlabStore`),
    derived per dimension straight from the law: position ``coordinate >>
    level``, and a flip per ``R1`` step — step ``s`` is ``R1`` when bit
    ``level - 1 - s`` of ``index`` is set — that meets bit ``s`` of the
    coordinate (the odd slot ``R1`` negates).  ``batch`` is in
    ``element``'s coordinate frame.  Exact for integer-valued cubes (every
    route through the filter bank is a signed integer sum); for float data
    the patch equals the recomputation up to the usual reassociation
    error.  Duplicate cells accumulate in row order.  Returns the number
    of deltas applied.
    """
    if element.shape is not batch.shape and element.shape != batch.shape:
        raise ValueError(
            f"element of a {element.shape.sizes} cube patched from a "
            f"{batch.shape.sizes} batch"
        )
    applied = len(batch)
    if applied:
        cells = []
        parity = np.zeros(applied, dtype=np.int64)
        for column, (level, index) in zip(batch._columns, element.nodes):
            cells.append(column >> level)
            for step in range(level):
                if (index >> (level - 1 - step)) & 1:
                    parity ^= column >> step
        signed = np.where(parity & 1, -batch.deltas, batch.deltas)
        np.add.at(values, tuple(cells), signed)
        if counter is not None:
            counter.add(additions=applied, label=label)
    return applied


def _sign_table(cells: np.ndarray, levels: np.ndarray, indices: np.ndarray):
    """``±1.0`` per ``(slot, coordinate)`` along one dimension: the flip
    parity :func:`patch_array` derives per burst, for every coordinate of
    the extent ``cells`` and every slot's ``(levels, indices)`` column."""
    parity = np.zeros((len(levels), len(cells)), dtype=np.int64)
    for step in range(int(levels.max())):
        # Whether step ``step`` is an R1 step of each slot's cascade.
        r1 = ((indices >> np.maximum(levels - 1 - step, 0)) & 1) * (levels > step)
        parity ^= r1 & (cells >> step)
    return 1.0 - 2.0 * (parity & 1)


def _through_owner(view: np.ndarray) -> np.ndarray:
    """A writeable flat array over read-only, contiguous ``view``'s memory,
    taken from the array that owns it; a :class:`ValueError` when that
    memory is not writeable."""
    owner = view.base
    if not isinstance(owner, np.ndarray) or not owner.flags.writeable:
        raise ValueError("a read-only array over read-only memory")
    offset = view.ctypes.data - owner.ctypes.data
    return np.ndarray(view.size, view.dtype, owner, offset)


class _Slab:
    """One flat buffer and the live slots packed into it."""

    __slots__ = ("buffer", "used", "slots")

    def __init__(self, buffer: np.ndarray) -> None:
        self.buffer = buffer
        self.used = 0
        #: ``(view, [offset, levels..., indices..., strides in cells...])``
        #: per live slot, in adoption order.
        self.slots: list[tuple[np.ndarray, np.ndarray]] = []


class SlabStore:
    """Arrays of one cube repaired in place, one compiled scatter per burst.

    Each *owner* — a label — holds arrays of elements of one cube
    ``shape``.  :meth:`adopt` copies a pure partial-sum array (every
    ``index == 0``: a warm answer or intermediate) into the current slab
    of its label (an array of at least :data:`SLAB_CELLS` cells is a slab
    of its own, not copied) and returns the slab view that replaces it;
    :meth:`join` makes arrays a caller may already hold — of any element,
    signed by its residual steps — slabs of their own, in place.
    :meth:`patch` repairs the live slots of some owners, or of every
    owner, through one index compiled from those slots (rebuilt only when
    they change): a ``take`` per dimension and one ``np.add.at`` per slab.
    Slots are disjoint and a slot's duplicate cells accumulate in burst
    row order, so the bytes equal :func:`patch_array` per array, and the
    additions are charged under each owner's label exactly as it would.
    The index costs ``slots × sum(shape.sizes)`` cells per table.

    A batch is applied to each owner once: a second :meth:`patch` with
    the same :class:`DeltaBatch` object reaches only the owners the first
    did not — and arrays joined to an owner since the first reached it,
    which were built before the batch — and reports the slots the first
    patched for the others.  So owners sharing a store may each patch a
    burst, in any order, and one scatter repairs all of them.  The burst
    ends at :meth:`end_burst`, or with the next batch.

    Each owner says which views are still live (the ids of the arrays it
    holds).  One registered with :meth:`own` reports each array it lets go
    (:meth:`dropped`) and is swept only after such a report; one
    registered with :meth:`track` is swept at every :meth:`patch`.  A
    sweep also runs before a new slab is allocated.  A dead slot is never
    patched nor reused — a caller may still hold its view — and a slab
    with no live slot is dropped, so a label's slabs hold at most its live
    cells plus one :data:`SLAB_CELLS` per live slot once swept.

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
        #: Owners swept at every patch (:meth:`track`), and owners that
        #: reported a drop since their last sweep (:meth:`dropped`).
        self._polled: set[str] = set()
        self._dropped: set[str] = set()
        #: Per label, the ids of the arrays in its slabs — views handed
        #: out and arrays joined — not yet swept (read under :attr:`lock`).
        self.held: dict[str, set[int]] = {}
        #: Per tuple of labels, :meth:`_compile` until a slot changes.
        self._indexes: dict[tuple[str, ...], tuple] = {}
        #: The batch of the burst being patched, the slots it reached per
        #: owner, and per owner the slabs joined since it reached it.
        self._batch: DeltaBatch | None = None
        self._reached: dict[str, int] = {}
        self._late: dict[str, list[_Slab]] = {}

    def own(self, label: str, live: Callable[[], Collection[int]]) -> None:
        """Register ``label``'s owner, which reports every array it lets go
        (:meth:`dropped`): ``live()`` returns the ids of the arrays it still
        holds, and is called only to sweep after such a report."""
        self._live[label] = live
        self._slabs.setdefault(label, [])
        self.held.setdefault(label, set())

    def track(self, label: str, live: Callable[[], Collection[int]]) -> None:
        """Register ``label``'s owner as :meth:`own` does, for one that
        reports no drops: its liveness is swept at every :meth:`patch`."""
        self.own(label, live)
        self._polled.add(label)

    def dropped(self, label: str) -> None:
        """``label``'s owner let go of an array: sweep it before the next
        scatter or allocation.  Takes no lock."""
        self._dropped.add(label)

    def begin_burst(self) -> None:
        with self.lock:
            self.sequence += 1

    def end_burst(self) -> None:
        with self.lock:
            self.sequence += 1
            self._batch, self._reached, self._late = None, {}, {}

    def settled(self, mark: int) -> bool:
        """No burst has begun since :attr:`sequence` read ``mark`` (call
        under :attr:`lock` to keep something on the strength of it)."""
        return mark == self.sequence and not mark & 1

    def adopt(
        self, element: ElementId, values: np.ndarray, label: str
    ) -> np.ndarray:
        """Pack pure ``element``'s array into ``label``'s slabs; returns the
        view that replaces it.  Call with :attr:`lock` held."""
        self._check(element, pure=True)
        cells = values.size
        if cells >= SLAB_CELLS:
            view = np.ascontiguousarray(values)
            self.join(label, [(element, view)])
            return view
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
        and any caller it was handed to, keep holding it.  A read-only
        ``values`` (an answer handed out before the first burst) is a view
        of a writeable array, which the slab writes through; its own flag
        is never touched.  Call with :attr:`lock` held."""
        held = self.held[label]
        for element, values in arrays:
            if id(values) in held:
                continue
            self._check(element)
            if not values.flags.c_contiguous:
                raise ValueError(f"{element!r} is not contiguous")
            if values.flags.writeable:
                slab = _Slab(values.reshape(-1))
            else:
                slab = _Slab(_through_owner(values))
            self._slabs[label].append(slab)
            self._slot(slab, element, values, label)
            if label in self._reached:
                self._late.setdefault(label, []).append(slab)

    def _check(self, element: ElementId, pure: bool = False) -> None:
        if element.shape != self.shape or (pure and not element.is_intermediate):
            kind = "a pure" if pure else "an"
            raise ValueError(f"{element!r} is not {kind} element of this cube")

    def _slot(
        self, slab: _Slab, element: ElementId, view: np.ndarray, label: str
    ) -> None:
        """Append ``view`` to ``slab``'s live slots."""
        row = [slab.used]
        row += [level for level, _ in element.nodes]
        row += [index for _, index in element.nodes]
        row += [stride // view.itemsize for stride in view.strides]
        slab.slots.append((view, np.array(row, dtype=np.int64)))
        slab.used += view.size
        self._indexes.clear()
        self.held[label].add(id(view))

    def _allocate(self, label: str, buffer: np.ndarray) -> _Slab:
        self.sweep(label)
        slab = _Slab(buffer)
        self._slabs[label].append(slab)
        return slab

    def sweep(self, label: str) -> None:
        """Drop ``label``'s dead slots, and its slabs left with none — for
        an owner that reported a drop since its last sweep, or one that
        reports none."""
        with self.lock:
            if label not in self._polled:
                if label not in self._dropped:
                    return
                self._dropped.discard(label)
            held = self.held[label]
            dead = held.difference(self._live[label]())
            if not dead:
                return
            held -= dead
            self._indexes.clear()
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
        self,
        batch: DeltaBatch,
        counter: OpCounter | None,
        label: str | tuple[str, ...] | None = None,
    ):
        """Scatter ``batch`` into every live slot of ``label`` — one label,
        a tuple of them, or, with none, every owner — that this batch has
        not reached yet, through one compiled index: one ``np.add.at`` per
        slab.  Returns the number of slots the batch patched: of
        ``label``, or ``{label: slots}`` per owner asked for."""
        if batch.shape is not self.shape and batch.shape != self.shape:
            raise ValueError(
                f"slabs of a {self.shape.sizes} cube patched from a "
                f"{batch.shape.sizes} batch"
            )
        if label is None:
            labels = tuple(self._live)
        else:
            labels = (label,) if isinstance(label, str) else label
        n = len(batch)
        with self.lock:
            self.active = True
            if batch is not self._batch:
                self._batch, self._reached, self._late = batch, {}, {}
            reached = self._reached
            if reached:
                todo = tuple([each for each in labels if each not in reached])
            else:
                todo = labels
            late = [each for each in labels if each in self._late]
            for each in todo + tuple(late) if n else ():
                if each in self._dropped or each in self._polled:
                    self.sweep(each)
            counts = dict.fromkeys(todo, 0)
            if n and todo:
                index = self._indexes.get(todo)
                if index is None:
                    index = self._indexes[todo] = self._compile(todo)
                counts = dict(self._scatter(batch, index))
            if n and late:
                # Joined after this batch reached their owner: they were
                # built before it, so they take it now, once.
                groups = [(each, self._late.pop(each)) for each in late]
                counts.update(self._scatter(batch, self._index(groups)))
            for each, slots in counts.items():
                reached[each] = reached.get(each, 0) + slots
                if slots and counter is not None:
                    counter.add(additions=n * slots, label=each)
            counts = {each: reached[each] for each in labels}
        return counts[label] if isinstance(label, str) else counts

    def _scatter(self, batch: DeltaBatch, index: tuple) -> dict:
        """Apply ``batch`` through a compiled index; returns its counts."""
        tables, signs, spans, counts = index
        if not spans:
            return counts
        columns, deltas = batch._columns, batch.deltas
        # Row s of ``flat``: slot s's cell of every burst row.
        flat = tables[0][:, columns[0]]
        for m in range(1, len(columns)):
            flat += tables[m][:, columns[m]]
        # Row s of ``signed``: the deltas as slot s takes them — written
        # out, not broadcast: numpy 2.4's ``np.add.at`` reads past the
        # values when they broadcast over a 2-D index.
        signed = np.empty(flat.shape)
        signed[...] = deltas
        if signs:
            # Only the leading slots with a residual step carry a table.
            m, table = signs[0]
            head = signed[: len(table)]
            np.multiply(head, table[:, columns[m]], out=head)
            for m, table in signs[1:]:
                head *= table[:, columns[m]]
        flat, signed, n = flat.ravel(), signed.ravel(), len(batch)
        for buffer, start, stop in spans:
            np.add.at(buffer, flat[start * n : stop * n], signed[start * n : stop * n])
        return counts

    def _compile(self, labels: tuple[str, ...]) -> tuple:
        """The index over ``labels``' live slots (:meth:`_index`)."""
        return self._index([(label, self._slabs[label]) for label in labels])

    def _index(self, groups: list[tuple[str, list[_Slab]]]) -> tuple:
        """``(tables, signs, spans, counts)`` over the slots of each
        ``(label, slabs)`` group, slab by slab: per dimension a ``(slots,
        n_m)`` table of flat offsets; ``(m, ±1 table)`` per dimension where
        some slot has a residual step; one ``(buffer, first slot, stop
        slot)`` per slab; and the slots per label."""
        rows, spans, counts = [], [], {}
        for label, slabs in groups:
            for slab in slabs:
                stop = len(rows) + len(slab.slots)
                spans.append((slab.buffer, len(rows), stop))
                rows += [row for _, row in slab.slots]
            counts[label] = sum(len(slab.slots) for slab in slabs)
        if not rows:
            return [], [], [], counts
        d = self.shape.ndim
        rows = np.stack(rows)
        # Sign tables cover the slots up to the last one with a residual
        # step (a store lists its signed owner first); the rest take +1.
        signed = np.flatnonzero(rows[:, 1 + d : 1 + 2 * d].any(axis=1))
        k = int(signed[-1]) + 1 if len(signed) else 0
        tables, signs = [], []
        for m, extent in enumerate(self.shape.sizes):
            cells = np.arange(extent)
            levels = rows[:, 1 + m, None]
            indices = rows[:k, 1 + d + m, None]
            tables.append((cells >> levels) * rows[:, 1 + 2 * d + m, None])
            if indices.any():
                signs.append((m, _sign_table(cells, levels[:k], indices)))
        tables[0] += rows[:, :1]
        return tables, signs, spans, counts
