"""Fused Haar cascade kernels and the allocator pin they rely on.

The paper's distributivity property (Property 2, Eqs 6-9) says a cascade of
``P1`` steps *is* the higher-order partial aggregation ``Pk`` — the chain is
mathematically one block reduction.  The step-by-step execution paths
(:func:`repro.core.materialize._descend`, the per-step DAG nodes of
:mod:`repro.core.exec`) pay one Python dispatch, one fresh allocation, one
fault-site visit, and one counter event *per step*, which dominates wall
time for the cell counts real cube workloads produce.

This module collapses a whole ``P1``/``R1`` chain into one kernel call:

- :func:`fused_cascade` runs an arbitrary step sequence with exactly one
  ufunc call per step over even/odd strided views; each interior is freed
  as soon as the next step has read it, so a k-step cascade holds at most
  two arrays at once.
- :func:`fused_partial_sum_k` / :func:`fused_aggregate` are the ``Pk`` and
  multi-axis aggregation entry points (Eqs 8, 16) built on it.
- :func:`fused_synthesize` is the perfect-reconstruction kernel for
  synthesis cascades (Eqs 3-4).

Temporaries are recycled by the allocator, not by this module:
:func:`pin_allocator_thresholds` (called by every
:class:`~repro.core.materialize.MaterializedSet`) keeps glibc from handing
MiB-sized frees back to the kernel, so a freed interior stays resident in
the heap and the next allocation of any shape reuses it without faulting.
It also keeps that heap *one*: glibc gives each thread that allocates
under contention an arena of its own, and a shard lane or pooled executor
thread freeing into its arena leaves interiors the other threads never
reuse, so every arena keeps its own high-water mark resident.

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
import os

import numpy as np

from .element import ElementId
from .operators import (
    OpCounter,
    _normalize_axis,
    _operand,
    _require_even,
    synthesize,
)

__all__ = [
    "pin_allocator_thresholds",
    "canonical_steps",
    "fused_cascade",
    "fused_partial_sum_k",
    "fused_aggregate",
    "fused_synthesize",
]

#: One fused step: ``(dim, residual?)`` — ``P1`` when ``residual`` is False.
Step = tuple[int, bool]

#: Per axis, the operation labels of its ``P1`` and ``R1`` steps, indexed
#: by ``residual``: built once, not per step (numpy arrays have at most 64
#: axes).
_LABELS = tuple((f"P1 axis={m}", f"R1 axis={m}") for m in range(64))


@functools.cache
def pin_allocator_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds at the ceilings its dynamic
    heuristic reaches (32 and 64 MiB on 64-bit), so that freeing one batch's
    MiB-sized answers cannot trim the heap the next batch re-faults, and cap
    the arenas at one, so that there is one heap to reuse: a freed interior
    is only reused by the next allocation when both are in the same arena,
    and without the cap every shard lane and executor thread allocates
    from an arena of its own.  Once per process (threads already running
    keep the arena they have); returns whether it took (a no-op off
    glibc)."""
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", ()):
        return False
    if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1 and M_ARENA_MAX -8 in
    # <malloc.h>.
    return all([mallopt(-3, 32 << 20), mallopt(-1, 64 << 20), mallopt(-8, 1)])


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


#: The even and odd cells along an axis, as the last index of a basic
#: slice (strided views: never copies).
_EVEN, _ODD = (slice(0, None, 2),), (slice(1, None, 2),)


def fused_cascade(
    a: np.ndarray,
    steps,
    counter: OpCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run a ``P1``/``R1`` step chain as one fused kernel (Eqs 6-9).

    ``steps`` is a sequence of ``(dim, residual?)`` pairs.  Each step is one
    ufunc call (``np.add`` for ``P1``, ``np.subtract`` for ``R1``) over
    even/odd strided views of the previous result, written into a fresh
    array; an interior is freed when the next step rebinds it, so the whole
    chain holds at most two scratch arrays at once.  An empty chain returns
    the operand unchanged — the input itself unless it widened (same
    aliasing contract as a zero-step descent).

    ``out``, if given, takes the final step in place (it may be strided:
    one shard's slab of a gathered buffer); an empty chain ignores it.

    Bit-identical to applying :func:`~repro.core.operators.partial_sum` /
    :func:`~repro.core.operators.partial_residual` per step: the arithmetic
    and its order are unchanged, only dispatch and allocation are fused.
    Operation accounting matches too — each step adds its output size under
    the same ``P1 axis=…`` / ``R1 axis=…`` label, all recorded once the
    chain has run — and so does the dtype: integer input is aggregated in
    ``int64`` (``operators._operand``).  A step is checked where it runs
    (its axis in range, its extent even), with no call unless it fails.
    """
    cur = _operand(a)
    steps = tuple(steps)
    if not steps:
        return cur
    last = len(steps) - 1
    events = []
    for i, (axis, residual) in enumerate(steps):
        if not 0 <= axis < cur.ndim:
            axis = _normalize_axis(cur, axis)
        shape = cur.shape
        if shape[axis] < 2 or shape[axis] & 1:
            _require_even(cur, axis)
        if out is not None and i == last:
            dst = out
        else:
            dst = np.empty(
                shape[:axis] + (shape[axis] >> 1,) + shape[axis + 1 :],
                dtype=cur.dtype,
            )
        # No name keeps the even/odd views, so rebinding ``cur`` below
        # frees the interior they were taken from.
        head = (slice(None),) * axis
        (np.subtract if residual else np.add)(
            cur[head + _EVEN], cur[head + _ODD], out=dst
        )
        n = dst.size
        events.append(
            (_LABELS[axis][1], 0, n) if residual else (_LABELS[axis][0], n, 0)
        )
        cur = dst
    if counter is not None:
        counter.add_events(events)
    return cur


def fused_partial_sum_k(
    a: np.ndarray,
    axis: int,
    k: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Fused k-th partial aggregation ``Pk`` (Eq 8).

    Bit-identical to :func:`repro.core.operators.partial_sum_k`, with the
    same :class:`ValueError` taxonomy for a negative ``k``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return fused_cascade(a, ((axis, False),) * k, counter=counter)


def fused_aggregate(
    a: np.ndarray,
    levels,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Fused multi-axis partial aggregation (Eqs 8 + 16 via Property 4).

    ``levels[m]`` is the cascade depth along dimension ``m`` (0 = leave the
    dimension untouched).  Dimensions are aggregated in ascending order —
    the canonical order every other execution path uses — so the result is
    bit-identical to nesting :func:`partial_sum_k` per dimension.
    """
    a = _operand(a)
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
    return fused_cascade(a, steps, counter=counter)


def fused_synthesize(
    p: np.ndarray,
    r: np.ndarray,
    axis: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Perfect reconstruction (Eqs 3-4) for synthesis cascades: the
    kernels' entry point to :func:`repro.core.operators.synthesize`, with
    identical arithmetic."""
    return synthesize(p, r, axis, counter=counter)
