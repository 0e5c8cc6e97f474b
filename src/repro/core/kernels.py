"""Fused Haar cascade kernels and the executor's buffer pool.

The paper's distributivity property (Property 2, Eqs 6-9) says a cascade of
``P1`` steps *is* the higher-order partial aggregation ``Pk`` — the chain is
mathematically one block reduction.  The step-by-step execution paths
(:func:`repro.core.materialize._descend`, the per-step DAG nodes of
:mod:`repro.core.exec`) pay one Python dispatch, one fresh allocation, one
fault-site visit, and one counter event *per step*, which dominates wall
time for the cell counts real cube workloads produce.

This module collapses a whole ``P1``/``R1`` chain into one kernel call:

- :func:`fused_cascade` runs an arbitrary step sequence with exactly one
  ufunc call per step over even/odd strided views, ping-ponging interior
  temporaries through a :class:`BufferPool` so a k-step cascade allocates
  at most one array beyond its output.
- :func:`fused_partial_sum_k` / :func:`fused_aggregate` are the ``Pk`` and
  multi-axis aggregation entry points (Eqs 8, 16) built on it.
- :func:`fused_synthesize` is the pool-aware perfect-reconstruction kernel
  for synthesis cascades (Eqs 3-4).

**Bit-identity.**  Fusion never changes arithmetic: each fused step performs
the same single ``np.add``/``np.subtract`` over the same even/odd pairs, in
the same order, as :func:`repro.core.operators.partial_sum` /
:func:`~repro.core.operators.partial_residual` would.  Floating-point
addition is not associative, so a genuinely single ``reshape + sum`` over
``2**k``-cell blocks would round differently from the cascade; executing the
cascade *inside one kernel* keeps the reduction tree — and therefore every
bit of the answer — identical while eliminating the per-step dispatch and
allocation overhead that the DAG path pays.  The test-suite asserts this
bit-identity property for int and float dtypes across 1-4 dimensions.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np

from .element import ElementId
from .operators import OpCounter, _normalize_axis, _require_even, synthesize

__all__ = [
    "POOL_MIN_CELLS",
    "POOL_MAX_CELLS",
    "BufferPool",
    "pin_allocator_thresholds",
    "canonical_steps",
    "fused_cascade",
    "fused_partial_sum_k",
    "fused_aggregate",
    "fused_synthesize",
]

#: One fused step: ``(dim, residual?)`` — ``P1`` when ``residual`` is False.
Step = tuple[int, bool]

#: Below this many cells, pooling loses: the allocator serves small blocks
#: from thread-local bins in well under a microsecond, while a pool cycle
#: pays key construction plus a lock.  Above it, a recycled buffer also
#: skips the page faults a fresh ``mmap``-backed allocation must take on
#: first touch, which is where the pool's real win lives.  Executor-owned
#: pools are created with this floor; ``BufferPool()`` defaults to 0 so the
#: pool's own unit tests exercise exact recycling on tiny arrays.
POOL_MIN_CELLS = 1 << 12

#: Retention bound of a :class:`BufferPool` (total cells held across all
#: shapes); returns beyond it are dropped to the allocator.
POOL_MAX_CELLS = 1 << 22


@functools.cache
def pin_allocator_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds at the ceilings its dynamic
    heuristic reaches (32 and 64 MiB on 64-bit), so that freeing one batch's
    MiB-sized answers cannot trim the heap the next batch re-faults.  Once
    per process; returns whether it took (a no-op off glibc)."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()):
        return False
    if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in <malloc.h>.
    return all([mallopt(-3, 32 << 20), mallopt(-1, 64 << 20)])


class BufferPool:
    """Refcount-aware recycling of executor temporaries.

    The DAG executor frees an interior temporary when its last consumer has
    run; instead of returning the array to the allocator, it lands here and
    the next node of the same shape and dtype reuses it.  Pool buffers are
    always C-contiguous (they are allocated by :func:`numpy.empty` or are
    contiguous kernel outputs), so ``reshape`` views over them never copy.

    ``max_cells`` bounds the total cells retained across all shapes; a
    returned buffer that would exceed the bound is simply dropped.
    ``min_cells`` is the engagement floor: requests and returns smaller
    than it bypass the pool entirely (counted under ``bypassed``) — see
    :data:`POOL_MIN_CELLS`.  All pooled operations take an internal lock —
    one pool may serve the scheduler thread and its workers concurrently.
    """

    def __init__(self, max_cells: int = POOL_MAX_CELLS, min_cells: int = 0):
        self.max_cells = int(max_cells)
        self.min_cells = int(min_cells)
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._cells = 0
        self.hits = 0
        self.misses = 0
        self.returned = 0
        self.dropped = 0
        self.bypassed = 0

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """A writable array of ``shape``/``dtype`` — recycled if available."""
        shape = tuple(shape)
        if math.prod(shape) < self.min_cells:
            with self._lock:
                self.bypassed += 1
            return np.empty(shape, dtype=dtype)
        key = (shape, np.dtype(dtype).str)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self._cells -= buf.size
                self.hits += 1
                return buf
            self.misses += 1
        return np.empty(shape, dtype=dtype)

    def give(self, array: np.ndarray | None) -> None:
        """Return a no-longer-referenced temporary for reuse.

        Only C-contiguous writable arrays at least ``min_cells`` large that
        own their memory are retained (a view — strided, or one shard's slab
        of a gathered answer — is part of an array someone still holds; a
        small block is cheaper to take from the allocator than the pool).
        """
        if array is None or array.size < self.min_cells or array.base is not None:
            return
        if not (array.flags.c_contiguous and array.flags.writeable):
            return
        key = (array.shape, array.dtype.str)
        with self._lock:
            if self._cells + array.size > self.max_cells:
                self.dropped += 1
                return
            self._free.setdefault(key, []).append(array)
            self._cells += array.size
            self.returned += 1

    def stats(self) -> dict:
        """JSON-friendly ``{hits, misses, ...}`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "returned": self.returned,
                "dropped": self.dropped,
                "bypassed": self.bypassed,
                "free_cells": self._cells,
                "max_cells": self.max_cells,
                "min_cells": self.min_cells,
            }


def canonical_steps(source: ElementId, target: ElementId) -> tuple[Step, ...]:
    """The ``(dim, residual?)`` steps of the canonical ``source→target``
    cascade: dimensions ascending, and within a dimension the target's extra
    index bits most-significant first — exactly the order the step-by-step
    descent (:func:`repro.core.materialize._descend`) applies them, so a
    fused execution of these steps is bit-identical to the cascade.
    """
    steps: list[Step] = []
    for dim in range(source.shape.ndim):
        k0, _ = source.nodes[dim]
        k1, j1 = target.nodes[dim]
        for step in range(k1 - k0):
            steps.append((dim, bool((j1 >> (k1 - k0 - 1 - step)) & 1)))
    return tuple(steps)


def _even_odd(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Strided views of the even/odd cells along ``axis`` (never copies)."""
    even = (slice(None),) * axis + (slice(0, None, 2),)
    odd = (slice(None),) * axis + (slice(1, None, 2),)
    return a[even], a[odd]


def fused_cascade(
    a: np.ndarray,
    steps,
    counter: OpCounter | None = None,
    pool: BufferPool | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run a ``P1``/``R1`` step chain as one fused kernel (Eqs 6-9).

    ``steps`` is a sequence of ``(dim, residual?)`` pairs.  Each step is one
    ufunc call (``np.add`` for ``P1``, ``np.subtract`` for ``R1``) over
    even/odd strided views of the previous result, written into a buffer
    from ``pool`` (or a fresh array); interior temporaries are returned to
    the pool as soon as the next step has consumed them, so the whole chain
    holds at most two scratch arrays at once.  An empty chain returns the
    input unchanged (same aliasing contract as a zero-step descent).

    ``out``, if given, takes the final step in place (it may be strided:
    one shard's slab of a gathered buffer); an empty chain ignores it.  The
    returned array is *not* registered with the pool — the caller owns it
    and may hand it back via :meth:`BufferPool.give` when done.

    Bit-identical to applying :func:`~repro.core.operators.partial_sum` /
    :func:`~repro.core.operators.partial_residual` per step: the arithmetic
    and its order are unchanged, only dispatch and allocation are fused.
    Operation accounting matches too — each step adds its output size under
    the same ``P1 axis=…`` / ``R1 axis=…`` label.
    """
    cur = np.asarray(a)
    steps = tuple(steps)
    if not steps:
        return cur
    recyclable: np.ndarray | None = None
    for i, (dim, residual) in enumerate(steps):
        axis = _normalize_axis(cur, dim)
        _require_even(cur, axis)
        out_shape = cur.shape[:axis] + (cur.shape[axis] // 2,) + cur.shape[axis + 1 :]
        if out is not None and i == len(steps) - 1:
            dst = out
        elif pool is not None:
            dst = pool.take(out_shape, cur.dtype)
        else:
            dst = np.empty(out_shape, dtype=cur.dtype)
        even, odd = _even_odd(cur, axis)
        if residual:
            np.subtract(even, odd, out=dst)
        else:
            np.add(even, odd, out=dst)
        if counter is not None:
            if residual:
                counter.add(subtractions=dst.size, label=f"R1 axis={axis}")
            else:
                counter.add(additions=dst.size, label=f"P1 axis={axis}")
        if recyclable is not None and pool is not None:
            pool.give(recyclable)
        cur = dst
        recyclable = dst if i < len(steps) - 1 else None
    return cur


def fused_partial_sum_k(
    a: np.ndarray,
    axis: int,
    k: int,
    counter: OpCounter | None = None,
    pool: BufferPool | None = None,
) -> np.ndarray:
    """Fused k-th partial aggregation ``Pk`` (Eq 8).

    Bit-identical to :func:`repro.core.operators.partial_sum_k`, with the
    same :class:`ValueError` taxonomy for a negative ``k``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return fused_cascade(a, ((axis, False),) * k, counter=counter, pool=pool)


def fused_aggregate(
    a: np.ndarray,
    levels,
    counter: OpCounter | None = None,
    pool: BufferPool | None = None,
) -> np.ndarray:
    """Fused multi-axis partial aggregation (Eqs 8 + 16 via Property 4).

    ``levels[m]`` is the cascade depth along dimension ``m`` (0 = leave the
    dimension untouched).  Dimensions are aggregated in ascending order —
    the canonical order every other execution path uses — so the result is
    bit-identical to nesting :func:`partial_sum_k` per dimension.
    """
    a = np.asarray(a)
    levels = tuple(int(k) for k in levels)
    if len(levels) != a.ndim:
        raise ValueError(
            f"{len(levels)} cascade depths for a {a.ndim}-dimensional array"
        )
    for dim, k in enumerate(levels):
        if k < 0:
            raise ValueError(f"dimension {dim}: depth {k} must be non-negative")
    steps = tuple(
        (dim, False) for dim, k in enumerate(levels) for _ in range(k)
    )
    return fused_cascade(a, steps, counter=counter, pool=pool)


def fused_synthesize(
    p: np.ndarray,
    r: np.ndarray,
    axis: int,
    counter: OpCounter | None = None,
    pool: BufferPool | None = None,
) -> np.ndarray:
    """Pool-aware perfect reconstruction (Eqs 3-4) for synthesis cascades.

    Identical arithmetic to :func:`repro.core.operators.synthesize`; the
    output buffer is drawn from ``pool`` so reconstruction chains recycle
    their interiors like aggregation chains do.
    """
    out = None
    if pool is not None:
        p_arr = np.asarray(p)
        ax = axis % p_arr.ndim
        out_shape = (
            p_arr.shape[:ax] + (p_arr.shape[ax] * 2,) + p_arr.shape[ax + 1 :]
        )
        out = pool.take(out_shape, np.float64)
    return synthesize(p, r, axis, counter=counter, out=out)

