"""Sharded cube serving: slab partitioning + scatter–gather assembly.

- :mod:`repro.shard.partition` — :class:`CubePartition`: power-of-two
  slabs along one axis, element projection onto the slab shape, and the
  exact cross-shard merge cascade (distributivity of ``P1``/``R1``).
- :mod:`repro.shard.sets` — :class:`ShardedSet`: one
  :class:`~repro.core.materialize.MaterializedSet` and epoch per
  shard behind the monolithic storage protocol; batches
  scatter to per-shard executors and gather through fused merge kernels,
  with per-shard retry/degradation (a quarantined shard re-routes to its
  base slab, the others keep serving).

``OLAPServer(cube, shards=S)`` turns the whole serving stack sharded.
The shard-vs-monolith byte-identity gate is ``python -m repro update
--shards 1,2,4`` (:mod:`repro.soak.update`): every answer at every shard
count equals the one ndarray :class:`~repro.replay.Replica`, which
implies sharded == monolithic.
"""

from __future__ import annotations

from .partition import CubePartition, shard_axis_for
from .sets import ShardedSet

__all__ = [
    "CubePartition",
    "ShardedSet",
    "shard_axis_for",
]
