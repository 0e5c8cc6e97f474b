"""A realistic OLAP session on a synthetic star-schema sales cube.

The scenario from the paper's introduction: an analyst works against a
4-dimensional sales cube (product x store x customer x day).  We compare
three ways to serve their dashboard workload —

- ROLAP: GROUP BY on the fact table for every query;
- MOLAP with the cube only: aggregate the stored cube per query;
- the paper's method: Algorithm 1 selects a view element basis for the
  observed query mix, Algorithm 2 adds redundant elements under a storage
  budget, and views are assembled from the selection —

and report measured scalar operations for each.

Run::

    python examples/sales_olap.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    MaterializedSet,
    OpCounter,
    QueryPopulation,
    greedy_redundant_selection,
    select_minimum_cost_basis,
)
from repro.cube import view_element_of
from repro.obs.reporting import ascii_table
from repro.relational import group_by_sum_dict
from repro.workloads import SalesConfig, sales_cube, sales_table


#: The analyst's dashboard: (retained dimensions, relative frequency).
WORKLOAD = [
    (("product",), 0.35),
    (("store",), 0.25),
    (("product", "store"), 0.20),
    (("day",), 0.15),
    ((), 0.05),  # grand total
]


def main() -> None:
    config = SalesConfig(num_transactions=5000, seed=42)
    table = sales_table(config)
    cube = sales_cube(config)
    shape = cube.shape_id
    print(f"fact table: {table.num_rows} rows -> {cube}")
    print(f"cube volume {shape.volume}, density {cube.density:.2%}\n")

    population = QueryPopulation.from_pairs(
        [(view_element_of(cube, retained), f) for retained, f in WORKLOAD]
    )

    # --- strategy 1: the paper's method -------------------------------
    selection = select_minimum_cost_basis(shape, population)
    budget = int(1.5 * shape.volume)
    # Candidate pool for redundant additions: the aggregated views plus the
    # intermediate elements (the elements range queries also benefit from).
    # The full 48,825-element graph is a valid pool too, just slower.
    from repro.core.graph import ViewElementGraph

    pool = list(shape.aggregated_views()) + list(
        ViewElementGraph(shape).intermediate_elements()
    )
    redundant = greedy_redundant_selection(
        list(selection.elements),
        population,
        storage_budget=budget,
        candidates=pool,
    )
    materialized = MaterializedSet.from_cube(cube.values, redundant.selected)
    print(
        f"Algorithm 1 basis: {len(selection.elements)} elements; "
        f"Algorithm 2 added {len(redundant.selected) - len(selection.elements)} "
        f"redundant elements within a {budget}-cell budget "
        f"({materialized.storage} cells used).\n"
    )

    # --- serve the workload under all three strategies ----------------
    rng = np.random.default_rng(7)
    retained_options = [retained for retained, _ in WORKLOAD]
    weights = np.array([f for _, f in WORKLOAD])
    query_sequence = rng.choice(
        len(retained_options), size=200, p=weights / weights.sum()
    )

    element_ops = OpCounter()
    cube_ops = OpCounter()
    rolap_rows_scanned = 0
    for choice in query_sequence:
        retained = retained_options[choice]
        element = view_element_of(cube, retained)

        assembled = materialized.assemble(element, counter=element_ops)
        direct = cube.view(
            [n for n in cube.dimensions.names if n not in retained],
            counter=cube_ops,
        )
        np.testing.assert_allclose(assembled, direct, atol=1e-6)

        rolap = group_by_sum_dict(table, list(retained), "sales")
        rolap_rows_scanned += table.num_rows
        # Spot-check one group against the assembled view.
        if rolap:
            key = next(iter(rolap))
            index = [0] * shape.ndim
            for name, value in zip(retained, key):
                axis = cube.dimensions.axis_of(name)
                index[axis] = cube.dimensions[name].encode(value)
            assert abs(assembled[tuple(index)] - rolap[key]) < 1e-6

    print(
        ascii_table(
            ["strategy", "scalar ops (200 queries)", "per query"],
            [
                [
                    "ROLAP GROUP BY (rows scanned)",
                    rolap_rows_scanned,
                    rolap_rows_scanned / 200,
                ],
                ["MOLAP, cube only", cube_ops.total, cube_ops.total / 200],
                [
                    "view elements (Alg 1 + Alg 2)",
                    element_ops.total,
                    element_ops.total / 200,
                ],
            ],
            title="Measured work to serve the dashboard workload",
        )
    )
    if element_ops.total:
        print(
            f"\nview elements did {cube_ops.total / element_ops.total:.1f}x "
            "less scalar work than re-aggregating the stored cube, with "
            "every answer verified against GROUP BY on the fact table."
        )
    else:
        print(
            "\nthe selected elements serve every dashboard query as a "
            "stored read (0 scalar ops); all answers verified against "
            "GROUP BY on the fact table."
        )

    # --- an ad-hoc drill-down outside the dashboard workload ----------
    adhoc = view_element_of(cube, ("product", "day"))
    adhoc_ops = OpCounter()
    assembled = materialized.assemble(adhoc, counter=adhoc_ops)
    direct_ops = OpCounter()
    direct = cube.view(["store", "customer"], counter=direct_ops)
    np.testing.assert_allclose(assembled, direct, atol=1e-6)
    print(
        f"\nad-hoc (product, day) drill-down not in the workload: "
        f"assembled in {adhoc_ops.total:,} ops vs {direct_ops.total:,} "
        "from the raw cube — unplanned queries still benefit from the "
        "element set."
    )


if __name__ == "__main__":
    main()
