"""Slab partitioning of a cube along one dimension, with exact merge math.

The filter-bank view elements are *distributive*: every ``P1``/``R1`` step
combines two cells whose coordinates differ only in one bit of one
dimension.  Partition the cube into ``S`` (a power of two) contiguous slabs
of extent ``W = n / S`` along a single axis and the steps split cleanly in
two groups:

- steps at axis levels ``<= w = log2(W)`` pair cells *within* one slab —
  they can run shard-locally, on ``S`` independent arrays;
- steps at axis levels ``> w`` pair cells in *different* slabs — they form
  the gather's merge cascade, run once on the concatenation of the local
  results.

Formally, for a target whose axis node is ``(k, j)`` the shard-local
projection replaces it with ``(k_l, j >> (k - k_l))`` where
``k_l = min(k, w)`` (all other dimensions are untouched), and

    target  =  cascade(low (k - k_l) bits of j, axis)  ∘  concat_s(local_s)

where the concatenation stacks the per-shard local results along the axis
in shard order.  :meth:`CubePartition.merge_steps` returns exactly those
low-bit steps in canonical (MSB-first) order, ready for
:func:`~repro.core.kernels.fused_cascade`; when ``k <= w`` the merge is
empty and the gathered buffer is the answer.  Both ``P1`` and ``R1``
(partial *and* residual) steps satisfy the split, so arbitrary stored
bases — wavelet, Algorithm 1 output — shard without restriction.

The slab grid math is :func:`repro.cube.chunked.chunk_slices` — a shard is
a one-axis chunking of the cube in Zhao/Deshpande/Naughton's sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.element import CubeShape, ElementId
from ..core.kernels import canonical_steps
from ..cube.chunked import chunk_slices

__all__ = ["CubePartition", "shard_axis_for"]


def shard_axis_for(shape: CubeShape) -> int:
    """Default shard axis: the largest extent; ties pick the *last* one.

    Sharding the last dimension keeps float assembly bit-identical to
    monolithic serving (the merge steps are then the final steps of the
    canonical cascade order); for integer-valued cubes any axis is exact.
    """
    return max(range(shape.ndim), key=lambda m: (shape.sizes[m], m))


@dataclass(frozen=True)
class CubePartition:
    """``S`` power-of-two slabs of a :class:`CubeShape` along one axis."""

    shape: CubeShape
    num_shards: int
    axis: int

    def __post_init__(self):
        s = self.num_shards
        if s < 1 or (s & (s - 1)):
            raise ValueError(f"shard count {s} is not a power of two")
        if not (0 <= self.axis < self.shape.ndim):
            raise ValueError(
                f"shard axis {self.axis} outside "
                f"{self.shape.ndim}-dimensional cube"
            )
        if s > self.shape.sizes[self.axis]:
            raise ValueError(
                f"{s} shards exceed axis extent "
                f"{self.shape.sizes[self.axis]}"
            )

    @classmethod
    def for_shape(
        cls,
        shape: CubeShape,
        num_shards: int,
        axis: int | None = None,
    ) -> "CubePartition":
        if axis is None:
            axis = shard_axis_for(shape)
        return cls(shape=shape, num_shards=int(num_shards), axis=int(axis))

    # ------------------------------------------------------------------
    # Slab geometry

    @property
    def shard_extent(self) -> int:
        """``W``: the axis extent of one slab."""
        return self.shape.sizes[self.axis] // self.num_shards

    @property
    def shard_depth(self) -> int:
        """``w = log2(W)``: axis levels that stay shard-local."""
        return self.shard_extent.bit_length() - 1

    @property
    def local_shape(self) -> CubeShape:
        """The :class:`CubeShape` of one slab."""
        sizes = list(self.shape.sizes)
        sizes[self.axis] = self.shard_extent
        return CubeShape(tuple(sizes))

    def slab_slices(self, shard: int) -> tuple[slice, ...]:
        """Dense-array slices of shard ``shard``'s slab (chunk grid math)."""
        key = tuple(
            shard if m == self.axis else 0 for m in range(self.shape.ndim)
        )
        return chunk_slices(key, self.local_shape.sizes)

    def slab(self, values: np.ndarray, shard: int) -> np.ndarray:
        """Shard ``shard``'s slab of a dense cube array (a view)."""
        if values.shape != self.shape.sizes:
            raise ValueError(
                f"dense shape {values.shape} != {self.shape.sizes}"
            )
        return values[self.slab_slices(shard)]

    # ------------------------------------------------------------------
    # Element projection and merge

    def project(self, element: ElementId) -> ElementId:
        """The shard-local projection of a global element.

        The axis node ``(k, j)`` becomes ``(min(k, w), j >> (k - min(k,
        w)))`` — the part of the axis cascade that pairs cells within one
        slab; every other dimension's node is unchanged.  Axis levels past
        ``w`` project to the same local element for both children, which is
        why a complete global stored set projects to complete local sets.
        """
        if element.shape != self.shape:
            raise ValueError("element from a different cube shape")
        w = self.shard_depth
        nodes = list(element.nodes)
        k, j = nodes[self.axis]
        kl = min(k, w)
        nodes[self.axis] = (kl, j >> (k - kl))
        return ElementId(self.local_shape, tuple(nodes))

    def gathered_element(self, target: ElementId) -> ElementId:
        """The *global* element formed by concatenating local projections.

        Stacking the ``S`` local results of :meth:`project`\\ (target)
        along the axis yields this element's data; running
        :meth:`merge_steps` on it yields ``target`` exactly.
        """
        if target.shape != self.shape:
            raise ValueError("target from a different cube shape")
        w = self.shard_depth
        nodes = list(target.nodes)
        k, j = nodes[self.axis]
        kl = min(k, w)
        nodes[self.axis] = (kl, j >> (k - kl))
        return ElementId(self.shape, tuple(nodes))

    def merge_steps(self, target: ElementId) -> tuple:
        """The cross-shard cascade turning the gathered data into ``target``.

        Canonical (MSB-first) ``(dim, residual)`` steps along the shard
        axis only — the low ``k - min(k, w)`` bits of the target's axis
        index.  Empty when the target's axis level is within the slab.
        """
        return canonical_steps(self.gathered_element(target), target)

    def splittable(self, element: ElementId) -> bool:
        """Whether the element's data splits into per-shard slabs.

        True iff its axis level is at most ``w``: each output cell then
        derives from cells of a single slab, so the data partitions along
        the axis into ``S`` equal pieces in shard order.
        """
        return element.nodes[self.axis][0] <= self.shard_depth

    def data_slab_slices(self, element: ElementId, shard: int) -> tuple[slice, ...]:
        """Slices of ``element``'s *data* owned by ``shard``.

        Valid only for :meth:`splittable` elements (gathered elements
        always are): the axis run of the data is split into ``S``
        contiguous equal blocks, one per shard, other dimensions full.
        """
        if not self.splittable(element):
            raise ValueError(
                f"element axis level {element.nodes[self.axis][0]} exceeds "
                f"shard depth {self.shard_depth}; data does not split"
            )
        data_shape = element.data_shape
        step = data_shape[self.axis] // self.num_shards
        return tuple(
            slice(shard * step, (shard + 1) * step)
            if m == self.axis
            else slice(0, data_shape[m])
            for m in range(self.shape.ndim)
        )
