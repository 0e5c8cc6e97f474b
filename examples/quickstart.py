"""Quickstart: decompose a data cube into view elements and assemble views.

Walks the core loop of the paper in five steps:

1. build a data cube from relational records;
2. look at its view element graph;
3. select the minimum-cost non-redundant basis for a workload (Algorithm 1);
4. materialize the basis and assemble aggregated views from it;
5. verify perfect reconstruction and compare processing costs.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    MaterializedSet,
    OpCounter,
    QueryPopulation,
    ViewElementGraph,
    select_minimum_cost_basis,
)
from repro.core.costs import element_population_cost
from repro.cube import build_cube
from repro.obs.reporting import ascii_table


def main() -> None:
    # 1. A tiny fact table: sales by product and quarter.
    records = [
        {"product": "pen", "quarter": "Q1", "sales": 12.0},
        {"product": "pen", "quarter": "Q2", "sales": 15.0},
        {"product": "pen", "quarter": "Q3", "sales": 11.0},
        {"product": "pen", "quarter": "Q4", "sales": 22.0},
        {"product": "ink", "quarter": "Q1", "sales": 5.0},
        {"product": "ink", "quarter": "Q3", "sales": 8.0},
        {"product": "pad", "quarter": "Q2", "sales": 3.0},
        {"product": "pad", "quarter": "Q4", "sales": 6.0},
    ]
    cube = build_cube(records, ["product", "quarter"], "sales")
    shape = cube.shape_id
    print(f"built {cube}")
    print(f"cube shape {shape.sizes}, volume {shape.volume}\n")

    # 2. The view element graph behind this cube.
    graph = ViewElementGraph(shape)
    print(
        f"view element graph: {graph.num_elements} elements "
        f"({graph.num_aggregated_views} aggregated views, "
        f"{graph.num_intermediate} intermediate, "
        f"{graph.num_residual} residual)\n"
    )

    # 3. A workload: mostly by-product and grand-total queries.
    by_product = shape.aggregated_view([1])  # aggregate quarters away
    grand_total = shape.total_aggregation()
    population = QueryPopulation.from_pairs(
        [(by_product, 0.6), (grand_total, 0.4)]
    )
    selection = select_minimum_cost_basis(shape, population)
    print("Algorithm 1 selected the basis:")
    for element in selection.elements:
        print(f"  {element.describe():<8} volume {element.volume}")
    cube_only_cost = element_population_cost(shape.root(), population)
    print(
        ascii_table(
            ["strategy", "expected ops per query"],
            [
                ["store cube only", cube_only_cost],
                ["Algorithm 1 basis", selection.cost],
            ],
        )
    )
    print()

    # 4. Materialize and serve.
    materialized = MaterializedSet.from_cube(cube.values, selection.elements)
    counter = OpCounter()
    by_product_values = materialized.assemble(by_product, counter=counter)
    print(
        f"assembled the by-product view with {counter.total} scalar ops:"
    )
    for i, name in enumerate(cube.dimensions["product"].values):
        print(f"  {name}: {by_product_values[i, 0]:.0f}")
    print()

    # 5. Perfect reconstruction: the basis loses nothing.
    reconstructed = materialized.reconstruct_cube()
    assert np.allclose(reconstructed, cube.values)
    print(
        "perfect reconstruction verified: the basis represents the cube "
        f"exactly in {materialized.storage} cells "
        f"(the cube itself has {shape.volume})."
    )


if __name__ == "__main__":
    main()
