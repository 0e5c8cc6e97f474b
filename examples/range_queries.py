"""Range-aggregation queries via intermediate view elements (paper §6).

The paper's motivating query: "the total sales of a particular product to a
particular customer between a range of dates".  This example materializes
the Gaussian pyramid of intermediate elements over a sales cube and answers
random date-range queries two ways — dyadic lookups against the pyramid
versus direct scans of the raw cube — verifying equality and comparing the
scalar work.

Run::

    python examples/range_queries.py
"""

from __future__ import annotations

import numpy as np

from repro import OpCounter, RangeQueryEngine
from repro.core.range_query import range_sum_direct
from repro.obs.reporting import ascii_table
from repro.workloads import SalesConfig, sales_cube


def main() -> None:
    config = SalesConfig(
        num_products=8,
        num_customers=8,
        num_days=64,
        num_transactions=8000,
        seed=5,
    )
    cube = sales_cube(config)
    shape = cube.shape_id
    engine = RangeQueryEngine.with_gaussian_pyramid(cube.values, shape)
    print(f"cube {shape.sizes}; pyramid storage {engine.materialized.storage} "
          f"cells vs cube volume {shape.volume}\n")

    product_dim = cube.dimensions["product"]
    customer_dim = cube.dimensions["customer"]
    day_axis = cube.dimensions.axis_of("day")

    rng = np.random.default_rng(17)
    rows = []
    total_element_ops = 0
    direct_counter = OpCounter()
    for _ in range(10):
        product = product_dim.values[int(rng.integers(product_dim.cardinality))]
        customer = customer_dim.values[
            int(rng.integers(customer_dim.cardinality))
        ]
        day_lo = int(rng.integers(0, config.num_days - 1))
        day_hi = int(rng.integers(day_lo + 1, config.num_days + 1))

        ranges = [(0, n) for n in shape.sizes]
        p = product_dim.encode(product)
        c = customer_dim.encode(customer)
        ranges[cube.dimensions.axis_of("product")] = (p, p + 1)
        ranges[cube.dimensions.axis_of("customer")] = (c, c + 1)
        ranges[day_axis] = (day_lo, day_hi)

        answer = engine.range_sum(ranges)
        direct = range_sum_direct(cube.values, tuple(ranges), direct_counter)
        assert abs(answer.value - direct) < 1e-6
        total_element_ops += answer.operations
        rows.append(
            [
                f"{product} -> {customer}",
                f"[{day_lo}, {day_hi})",
                answer.value,
                answer.cells_read,
                answer.operations,
            ]
        )

    print(
        ascii_table(
            ["sales of/to", "day range", "total", "cells read", "ops"],
            rows,
            title="Product-to-customer date-range totals (paper §6 query)",
            precision=2,
        )
    )
    print(
        f"\nelement path: {total_element_ops:,} scalar ops for 10 queries; "
        f"direct cube scans needed {direct_counter.total:,} "
        f"({direct_counter.total / max(total_element_ops, 1):.0f}x more)."
    )
    print(
        "aligned power-of-two ranges collapse to single stored cells "
        "(Eq 40); arbitrary ranges decompose into at most "
        "2*log2(n) dyadic blocks per dimension."
    )


if __name__ == "__main__":
    main()
