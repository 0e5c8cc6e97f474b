"""Core view-element framework — the paper's primary contribution.

Public surface of the reproduction of *Dynamic Assembly of Views in Data
Cubes* (Smith, Castelli, Jhingran, Li; PODS 1998): partial/residual
aggregation operators, view-element algebra, the view element graph, the
cost model, both selection algorithms, materialization/assembly, and
range-aggregation support.
"""

from .adaptive import AccessTracker
from .bases import (
    gaussian_pyramid,
    random_wavelet_packet_basis,
    view_hierarchy,
    wavelet_basis,
    wavelet_packet_basis,
)
from .compress import CompressedCube, best_compression_basis
from .costs import (
    aggregation_cost,
    basis_population_cost,
    element_population_cost,
    support_cost,
)
from .element import CubeShape, ElementId
from .engine import SelectionEngine
from .exec import (
    DISPATCH_THRESHOLD,
    BatchPlan,
    PlanNode,
    execute_plan,
    explain,
    fuse_plan,
    plan_batch,
    render_plan,
)
from .frequency import (
    covered_measure,
    is_basis,
    is_complete,
    is_non_redundant,
    is_non_redundant_basis,
    storage_volume,
    total_frequency_volume,
)
from .graph import ViewElementGraph
from .kernels import (
    canonical_steps,
    fused_aggregate,
    fused_cascade,
    fused_partial_sum_k,
    fused_synthesize,
)
from .materialize import MaterializedSet, compute_element
from .operators import (
    OpCounter,
    analyze,
    partial_residual,
    partial_sum,
    partial_sum_k,
    synthesize,
    total_aggregate,
    total_sum,
)
from .population import QueryPopulation
from .range_query import (
    RangeAnswer,
    RangeQueryEngine,
    dyadic_decomposition,
    range_sum_direct,
)
from .select_basis import BasisSelection, select_minimum_cost_basis
from .select_redundant import (
    GreedyResult,
    GreedyStage,
    generation_cost,
    greedy_redundant_selection,
    total_processing_cost,
)

__all__ = [
    "AccessTracker",
    "BasisSelection",
    "BatchPlan",
    "DISPATCH_THRESHOLD",
    "PlanNode",
    "canonical_steps",
    "execute_plan",
    "fuse_plan",
    "fused_aggregate",
    "fused_cascade",
    "fused_partial_sum_k",
    "fused_synthesize",
    "plan_batch",
    "CompressedCube",
    "CubeShape",
    "ElementId",
    "GreedyResult",
    "GreedyStage",
    "MaterializedSet",
    "OpCounter",
    "QueryPopulation",
    "RangeAnswer",
    "RangeQueryEngine",
    "SelectionEngine",
    "ViewElementGraph",
    "aggregation_cost",
    "analyze",
    "basis_population_cost",
    "best_compression_basis",
    "explain",
    "render_plan",
    "compute_element",
    "covered_measure",
    "dyadic_decomposition",
    "element_population_cost",
    "gaussian_pyramid",
    "generation_cost",
    "greedy_redundant_selection",
    "is_basis",
    "is_complete",
    "is_non_redundant",
    "is_non_redundant_basis",
    "partial_residual",
    "partial_sum",
    "partial_sum_k",
    "random_wavelet_packet_basis",
    "range_sum_direct",
    "select_minimum_cost_basis",
    "storage_volume",
    "support_cost",
    "synthesize",
    "total_aggregate",
    "total_frequency_volume",
    "total_processing_cost",
    "total_sum",
    "view_hierarchy",
    "wavelet_basis",
    "wavelet_packet_basis",
]
