"""repro — reproduction of *Dynamic Assembly of Views in Data Cubes*.

Smith, Castelli, Jhingran, Li (IBM T.J. Watson). ACM PODS, 1998.

The package decomposes MOLAP data cubes into *view elements* — partial and
residual Haar aggregations — and dynamically selects which elements to
materialize for a given query workload.  Sub-packages:

- :mod:`repro.core` — operators, element algebra, view element graph, cost
  model, Algorithm 1 and 2, materialization, range queries, adaptation.
- :mod:`repro.cube` — MOLAP substrate (dense/sparse cubes, dimensions,
  builders).
- :mod:`repro.relational` — minimal relational substrate (tables, GROUP BY,
  the Gray et al. CUBE operator).
- :mod:`repro.baselines` — view-materialization baselines (HRU greedy and
  the paper's [D] strategy).
- :mod:`repro.workloads` — synthetic workload and data generators,
  including the gates' op traces (:mod:`repro.workloads.traces`).
- :mod:`repro.experiments` — drivers regenerating every table and figure of
  the paper's evaluation.
- :mod:`repro.obs` — metrics/tracing/caching observability layer threaded
  through the hot query path (``python -m repro stats``).
- :mod:`repro.resilience` — fault injection, deadlines, and the chaos
  acceptance replay (``python -m repro chaos``); the typed failure
  taxonomy lives in :mod:`repro.errors`.
- :mod:`repro.shard` — sharded serving: slab partitioning, per-shard
  materialized sets, scatter–gather assembly with exact merge.
- :mod:`repro.replay` — what the acceptance gates share: the seeded cube,
  the ndarray :class:`~repro.replay.Replica`, the JSON op vocabulary and
  the one :func:`~repro.replay.replay` loop.  The gates themselves are
  presets over it: ``python -m repro update`` (:mod:`repro.soak.update`;
  at ``--shards 1,2,4`` also the shard-vs-monolith gate), ``chaos``
  (:mod:`repro.resilience.chaos`), ``recover``
  (:mod:`repro.durability.gate`), ``soak --check`` (:mod:`repro.soak`)
  and ``diag`` (:mod:`repro.resilience.triage`).
"""

from .core import (
    AccessTracker,
    BasisSelection,
    BatchPlan,
    CompressedCube,
    CubeShape,
    ElementId,
    GreedyResult,
    MaterializedSet,
    OpCounter,
    QueryPopulation,
    RangeQueryEngine,
    SelectionEngine,
    ViewElementGraph,
    compute_element,
    execute_plan,
    gaussian_pyramid,
    greedy_redundant_selection,
    plan_batch,
    is_complete,
    is_non_redundant,
    is_non_redundant_basis,
    select_minimum_cost_basis,
    total_processing_cost,
    view_hierarchy,
    wavelet_basis,
)
from .errors import (
    AdmissionRejected,
    IncompleteSetError,
    IntegrityError,
    InvalidQueryError,
    InvalidUpdateError,
    QueryTimeout,
    ReproError,
    TransientFault,
)
from .obs import LRUCache, MetricsRegistry, Observability, Tracer
from .resilience import Deadline, FaultInjector, FaultRule
from .server import OLAPServer
from .shard import CubePartition, ShardedSet

__version__ = "1.1.0"

__all__ = [
    "AccessTracker",
    "AdmissionRejected",
    "BasisSelection",
    "BatchPlan",
    "CompressedCube",
    "CubePartition",
    "CubeShape",
    "Deadline",
    "FaultInjector",
    "FaultRule",
    "IncompleteSetError",
    "IntegrityError",
    "InvalidQueryError",
    "InvalidUpdateError",
    "OLAPServer",
    "QueryTimeout",
    "ReproError",
    "TransientFault",
    "ElementId",
    "GreedyResult",
    "LRUCache",
    "MaterializedSet",
    "MetricsRegistry",
    "Observability",
    "OpCounter",
    "Tracer",
    "QueryPopulation",
    "RangeQueryEngine",
    "SelectionEngine",
    "ShardedSet",
    "ViewElementGraph",
    "compute_element",
    "execute_plan",
    "gaussian_pyramid",
    "greedy_redundant_selection",
    "plan_batch",
    "is_complete",
    "is_non_redundant",
    "is_non_redundant_basis",
    "select_minimum_cost_basis",
    "total_processing_cost",
    "view_hierarchy",
    "wavelet_basis",
    "__version__",
]
