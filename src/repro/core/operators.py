"""Partial aggregation operator pairs (Section 3 of the paper).

The paper builds every view element out of a single pair of operators per
dimension, the two-tap Haar filter bank:

- :func:`partial_sum` (``P1``, Eq 1) sums neighbouring pairs of cells along one
  dimension and subsamples by two (the low-pass branch).
- :func:`partial_residual` (``R1``, Eq 2) takes the differences of the same
  pairs (the high-pass branch).

Together the pair satisfies the four properties the paper relies on:

- *Perfect reconstruction* (Property 1, Eqs 3-4): :func:`synthesize` rebuilds
  the input exactly from the two outputs.
- *Distributivity* (Property 2, Eqs 5-8): cascading ``P1`` ``k`` times yields
  the k-th partial aggregation ``Pk`` (:func:`partial_sum_k`).
- *Non-expansiveness* (Property 3, Eqs 11-13): the two outputs together have
  exactly the volume of the input.
- *Separability* (Property 4, Eq 14): operators on different dimensions
  commute, so multi-dimensional cascades may be applied in any order.

Integer operands are aggregated in ``int64`` (:func:`_operand`): a sum of
two ``int32`` cells near the maximum would wrap in ``int32``, and a
residual of unsigned cells is negative.  Float operands pass through
uncopied, in their own dtype.

All functions accept an optional :class:`OpCounter` that accumulates the
number of scalar additions/subtractions actually performed.  This is the
empirical counterpart of the paper's analytic cost model (Eqs 26-28) and lets
the test-suite check that the model prices real work correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidQueryError

__all__ = [
    "OpCounter",
    "partial_sum",
    "partial_residual",
    "analyze",
    "synthesize",
    "partial_sum_k",
    "total_sum",
    "total_aggregate",
]


@dataclass
class OpCounter:
    """Accumulates counts of scalar additions/subtractions.

    The paper measures processing cost in additions and subtractions performed
    during partial-aggregation cascades (Section 4.1).  Synthesis steps count
    the same way: rebuilding a parent of volume ``v`` performs ``v/2``
    additions and ``v/2`` subtractions.
    """

    additions: int = 0
    subtractions: int = 0
    events: list = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total scalar operations counted so far."""
        return self.additions + self.subtractions

    def add(self, additions: int = 0, subtractions: int = 0, label: str = "") -> None:
        """Record ``additions`` and ``subtractions`` scalar operations."""
        self.additions += int(additions)
        self.subtractions += int(subtractions)
        if label:
            self.events.append((label, int(additions), int(subtractions)))

    def add_events(self, events) -> None:
        """Record labelled ``(label, additions, subtractions)`` events, each
        as :meth:`add` would, in one call (a fused cascade's steps)."""
        for _, additions, subtractions in events:
            self.additions += additions
            self.subtractions += subtractions
        self.events.extend(events)

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's totals and events into this one.

        Used to combine per-worker counters (exact accounting without
        cross-thread contention) and to keep partial work visible when a
        batch aborts mid-execution.
        """
        self.additions += other.additions
        self.subtractions += other.subtractions
        self.events.extend(other.events)

    def reset(self) -> None:
        """Zero all counters and drop the event log."""
        self.additions = 0
        self.subtractions = 0
        self.events.clear()


def _operand(a) -> np.ndarray:
    """``a`` as an array the operators aggregate exactly: booleans and
    integers narrower than 64 bits widen to ``int64`` (a copy), ``int64``
    and floats pass through uncopied.  ``uint64`` raises
    :class:`~repro.errors.InvalidQueryError`: no ``int64`` holds all of
    it, and its residuals are negative."""
    a = np.asarray(a)
    if a.dtype.kind in "biu" and a.dtype != np.int64:
        if a.dtype == np.uint64:
            raise InvalidQueryError(
                "uint64 operands cannot be aggregated exactly; convert "
                "them to int64 or float64"
            )
        a = a.astype(np.int64)
    return a


def _normalize_axis(a: np.ndarray, axis: int) -> int:
    """Resolve a possibly-negative axis, rejecting out-of-range values."""
    if a.ndim == 0:
        raise ValueError(
            "partial aggregation requires an array with at least one "
            "dimension; got a 0-dimensional array"
        )
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(
            f"axis {axis} is out of bounds for a {a.ndim}-dimensional array"
        )
    return axis % a.ndim


def _require_even(a: np.ndarray, axis: int) -> None:
    if a.shape[axis] < 2 or a.shape[axis] % 2 != 0:
        raise ValueError(
            f"axis {axis} has extent {a.shape[axis]}; partial aggregation "
            "requires an even extent of at least 2"
        )


def _halved(
    a: np.ndarray, axis: int, out: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate one analysis step and return its even/odd strided views.

    Basic slicing never copies, so non-contiguous inputs (e.g. transposed
    or mid-cascade views) avoid the intermediate copy a pair reshape would
    force.  When ``out`` is supplied its shape must match the result
    exactly — the ufunc writes straight into it, allocation-free.
    """
    axis = _normalize_axis(a, axis)
    _require_even(a, axis)
    even = a[(slice(None),) * axis + (slice(0, None, 2),)]
    odd = a[(slice(None),) * axis + (slice(1, None, 2),)]
    if out is not None and out.shape != even.shape:
        raise ValueError(
            f"out shape {out.shape} does not match result shape {even.shape}"
        )
    return even, odd, out


def partial_sum(
    a: np.ndarray,
    axis: int,
    counter: OpCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First partial sum ``P1`` along ``axis`` (Eq 1).

    Sums neighbouring pairs of cells along ``axis`` and subsamples by two.
    The result has half the extent along ``axis``.  ``out``, if given,
    receives the result in place (it must have exactly the result shape).
    The result is ``int64`` for integer input, else the input's dtype.
    """
    even, odd, out = _halved(_operand(a), axis, out)
    out = np.add(even, odd, out=out)
    if counter is not None:
        counter.add(additions=out.size, label=f"P1 axis={axis}")
    return out


def partial_residual(
    a: np.ndarray,
    axis: int,
    counter: OpCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First partial residual ``R1`` along ``axis`` (Eq 2).

    Takes the differences (even minus odd) of neighbouring pairs along
    ``axis`` and subsamples by two.  ``out`` behaves as in
    :func:`partial_sum`.
    """
    even, odd, out = _halved(_operand(a), axis, out)
    out = np.subtract(even, odd, out=out)
    if counter is not None:
        counter.add(subtractions=out.size, label=f"R1 axis={axis}")
    return out


def analyze(
    a: np.ndarray, axis: int, counter: OpCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the analysis pair ``(P1, R1)`` along ``axis``.

    Returns ``(partial, residual)``.  By Property 3 the two outputs together
    occupy exactly the volume of the input.
    """
    a = _operand(a)
    return (
        partial_sum(a, axis, counter=counter),
        partial_residual(a, axis, counter=counter),
    )


def synthesize(
    p: np.ndarray,
    r: np.ndarray,
    axis: int,
    counter: OpCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Perfectly reconstruct the parent from ``(P1, R1)`` outputs (Eqs 3-4).

    ``parent[..., 2i, ...] = (p + r) / 2`` and
    ``parent[..., 2i + 1, ...] = (p - r) / 2``.  ``out``, if given, must be
    a C-contiguous float64 array of the parent's shape; the reconstruction
    is written into it allocation-free.
    """
    p = np.asarray(_operand(p), dtype=np.float64)
    r = np.asarray(_operand(r), dtype=np.float64)
    if p.shape != r.shape:
        raise ValueError(f"partial {p.shape} and residual {r.shape} shapes differ")
    axis = axis % p.ndim
    out_shape = p.shape[:axis] + (p.shape[axis] * 2,) + p.shape[axis + 1 :]
    pairs_shape = p.shape[:axis] + (p.shape[axis], 2) + p.shape[axis + 1 :]
    if out is None:
        pairs = np.empty(pairs_shape, dtype=np.float64)
        result = pairs.reshape(out_shape)
    else:
        if (
            out.shape != out_shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {out_shape}"
            )
        result = out
        pairs = out.reshape(pairs_shape)
    idx_even = (slice(None),) * (axis + 1) + (0,)
    idx_odd = (slice(None),) * (axis + 1) + (1,)
    # Write the even/odd halves directly into sliced views of the output
    # buffer; halving in place keeps the sums/differences temporary-free.
    even = pairs[idx_even]
    odd = pairs[idx_odd]
    np.add(p, r, out=even)
    even /= 2.0
    np.subtract(p, r, out=odd)
    odd /= 2.0
    if counter is not None:
        counter.add(additions=even.size, subtractions=odd.size, label=f"synth axis={axis}")
    return result


def partial_sum_k(
    a: np.ndarray, axis: int, k: int, counter: OpCounter | None = None
) -> np.ndarray:
    """k-th partial aggregation ``Pk`` via the telescopic cascade (Eq 8)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    out = _operand(a)
    for _ in range(k):
        out = partial_sum(out, axis, counter=counter)
    return out


def total_sum(a: np.ndarray, axis: int, counter: OpCounter | None = None) -> np.ndarray:
    """Total aggregation ``S^m`` along ``axis`` (Eq 15).

    Cascades ``P1`` ``log2(n)`` times, leaving extent 1 along ``axis``.
    """
    a = _operand(a)
    n = a.shape[axis % a.ndim]
    k = int(n).bit_length() - 1
    if 2**k != n:
        raise ValueError(f"axis {axis} extent {n} is not a power of two")
    return partial_sum_k(a, axis, k, counter=counter)


def total_aggregate(
    a: np.ndarray, axes: tuple[int, ...], counter: OpCounter | None = None
) -> np.ndarray:
    """Total aggregation over several dimensions (Eq 16).

    By separability (Property 4) the per-dimension cascades may be applied in
    any order; we apply them in ascending axis order.
    """
    out = _operand(a)
    for axis in sorted(ax % out.ndim for ax in axes):
        out = total_sum(out, axis, counter=counter)
    return out
