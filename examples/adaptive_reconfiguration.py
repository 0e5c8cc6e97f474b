"""Dynamic assembly under a drifting workload (the paper's title in action).

The paper notes that access frequencies "can be observed on-line, allowing
the system to dynamically recon[f]igure".  This example runs a three-phase
workload against a sales cube — each phase hammers different views — on
three :class:`~repro.server.OLAPServer`\\ s:

- one that keeps only the raw cube;
- one configured optimally for phase 1 only;
- one that re-selects for the workload its tracker observed (exponential
  decay, Algorithm 1) every 40 queries.

Every server answers repeats from its result cache, so the scalar work
counted is the cache misses: the first read of each view in each
selection epoch.

Run::

    python examples/adaptive_reconfiguration.py
"""

from __future__ import annotations

import numpy as np

from repro import OLAPServer, QueryPopulation
from repro.obs.reporting import ascii_table
from repro.workloads import SalesConfig, sales_cube


PHASES = [
    # (hot retained-dimension tuples, queries in the phase)
    ([("product",), ()], 120),
    ([("day",), ("store", "day")], 120),
    ([("customer",), ("product", "customer")], 120),
]
#: Queries between the adaptive server's re-selections.
RESELECT_EVERY = 40


def main() -> None:
    cube = sales_cube(SalesConfig(num_transactions=3000, seed=13))
    shape = cube.shape_id
    names = cube.dimensions.names

    # Build the full query sequence.
    rng = np.random.default_rng(3)
    sequence = []
    for hot_views, count in PHASES:
        for _ in range(count):
            sequence.append(list(hot_views[int(rng.integers(len(hot_views)))]))

    def element_for(retained):
        return shape.aggregated_view(
            [cube.dimensions.axis_of(n) for n in names if n not in retained]
        )

    static_cube = OLAPServer(cube)
    static_tuned = OLAPServer(cube)
    static_tuned.reconfigure(
        QueryPopulation.point_mass([element_for(r) for r in PHASES[0][0]])
    )
    adaptive = OLAPServer(cube)
    history = []
    for served, retained in enumerate(sequence, start=1):
        static_cube.view(retained)
        static_tuned.view(retained)
        adaptive.view(retained)
        if served % RESELECT_EVERY == 0:
            storage, expected = adaptive.reconfigure()
            migration = adaptive.tracer.spans("server.reconfigure")[-1]
            history.append(
                [
                    served,
                    len(adaptive.materialized),
                    storage,
                    expected,
                    migration.attributes["operations"],
                ]
            )

    n = len(sequence)
    print(
        ascii_table(
            ["server", "scalar ops", "per query"],
            [
                [label, server.stats.operations, server.stats.operations_per_query]
                for label, server in [
                    ("static: cube only", static_cube),
                    ("static: tuned for phase 1", static_tuned),
                    (f"adaptive: re-select every {RESELECT_EVERY}", adaptive),
                ]
            ],
            title=f"Three-phase drifting workload ({n} queries)",
        )
    )

    print("\nre-selections of the adaptive server:")
    print(
        ascii_table(
            ["at query", "elements", "storage", "expected cost", "migration ops"],
            history,
        )
    )
    print(
        "\nthe adaptive server follows the drift: after each phase shift it "
        "re-selects for what its tracker observed and does less work than "
        "the cube-only server.  Every re-selection that changes the stored "
        "set also starts with an empty result cache, so on this "
        "cache-friendly sequence the server tuned once for phase 1 does the "
        "least work: re-selecting has a price, which a trigger must weigh "
        "against what it saves."
    )


if __name__ == "__main__":
    main()
