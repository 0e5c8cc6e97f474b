"""Synthetic workload and data generators."""

from .frequencies import (
    drifting_populations,
    hot_subset_population,
    random_view_population,
    zipf_view_population,
)
from .ranges import aligned_range, random_range, random_ranges
from .star_schema import (
    SalesConfig,
    generate_sales_records,
    sales_cube,
    sales_table,
)
from .traces import SoakConfig, drifting_trace, flat_trace, rollup_universe

__all__ = [
    "SalesConfig",
    "SoakConfig",
    "aligned_range",
    "drifting_populations",
    "drifting_trace",
    "flat_trace",
    "generate_sales_records",
    "hot_subset_population",
    "random_range",
    "random_ranges",
    "random_view_population",
    "rollup_universe",
    "sales_cube",
    "sales_table",
    "zipf_view_population",
]
