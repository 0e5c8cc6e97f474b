"""Table 2 — the pedagogical view element example (Section 7.1).

The paper walks a 2x2 data cube whose nine view elements are labelled
``V0..V8`` (Figure 7).  Two aggregated views, ``V1`` and ``V7``, are queried
with equal frequency; Table 2 then lists, for ten view element sets, whether
the set is a basis, whether it is redundant, its total processing cost, and
its storage cost.

The labelling below is recovered from the paper's own cost walk ("the
processing cost of {V1, V5, V6} is computed from (V1 -> V1) + (V5 -> V7),
(V1 -> V2), (V2 -> V7)") and the storage column of Table 2:

====  ==============  ======  ===========================================
name  operator paths  volume  description
====  ==============  ======  ===========================================
V0    ``.|.``         4       the 2x2 data cube ``A``
V1    ``P|.``         2       aggregated view ``S^0(A)``
V2    ``P|P``         1       total aggregation ``S(A)``
V3    ``P|R``         1       residual of ``V1`` on dimension 1
V4    ``R|.``         2       residual of ``A`` on dimension 0
V5    ``R|P``         1       residual of ``V7`` on dimension 0
V6    ``R|R``         1       doubly-residual corner
V7    ``.|P``         2       aggregated view ``S^1(A)``
V8    ``.|R``         2       residual of ``A`` on dimension 1
====  ==============  ======  ===========================================

Processing costs in the paper's table are the *unweighted sums* of the two
query generation costs (equivalently ``2 x`` the frequency-weighted
Procedure 3 total with ``f1 = f7 = 0.5``); the reproduction reports the
same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.element import CubeShape, ElementId
from ..core.frequency import is_complete, is_non_redundant
from ..core.population import QueryPopulation
from ..core.select_basis import select_minimum_cost_basis
from ..core.select_redundant import total_processing_cost
from ..obs.reporting import ascii_table

__all__ = [
    "PAPER_TABLE2",
    "Table2Row",
    "pedagogical_elements",
    "pedagogical_population",
    "run",
    "main",
]

#: The paper's Table 2 rows: set members, (basis?, redundant?, processing
#: cost, storage cost).
PAPER_TABLE2: list[tuple[tuple[str, ...], tuple[bool, bool, int, int]]] = [
    (("V3", "V6", "V7"), (True, False, 3, 4)),
    (("V1", "V5", "V6"), (True, False, 3, 4)),
    (("V0",), (True, False, 4, 4)),
    (("V1", "V4"), (True, False, 4, 4)),
    (("V7", "V8"), (True, False, 4, 4)),
    (("V2", "V3", "V5", "V6"), (True, False, 4, 4)),
    (("V0", "V1", "V7"), (True, True, 0, 8)),
    (("V1", "V7"), (False, True, 0, 4)),
    (("V3", "V7"), (False, False, 3, 3)),
    (("V2", "V3", "V5"), (False, False, 4, 3)),
]


def pedagogical_elements() -> dict[str, ElementId]:
    """The nine ``V0..V8`` view elements of the 2x2 example cube."""
    shape = CubeShape((2, 2))
    paths = {
        "V0": ((0, 0), (0, 0)),
        "V1": ((1, 0), (0, 0)),
        "V2": ((1, 0), (1, 0)),
        "V3": ((1, 0), (1, 1)),
        "V4": ((1, 1), (0, 0)),
        "V5": ((1, 1), (1, 0)),
        "V6": ((1, 1), (1, 1)),
        "V7": ((0, 0), (1, 0)),
        "V8": ((0, 0), (1, 1)),
    }
    return {name: ElementId(shape, nodes) for name, nodes in paths.items()}


def pedagogical_population() -> QueryPopulation:
    """``f1 = f7 = 0.5`` over the example's views (Section 7.1)."""
    elements = pedagogical_elements()
    return QueryPopulation.from_pairs(
        [(elements["V1"], 0.5), (elements["V7"], 0.5)]
    )


@dataclass(frozen=True)
class Table2Row:
    """One reproduced row of Table 2."""

    members: tuple[str, ...]
    is_basis: bool
    is_redundant: bool
    processing_cost: float
    storage_cost: int

    @property
    def paper(self) -> tuple[bool, bool, int, int]:
        """The paper's row for this element set."""
        for members, values in PAPER_TABLE2:
            if members == self.members:
                return values
        raise KeyError(f"{self.members} is not a paper row")

    @property
    def matches_paper(self) -> bool:
        """Whether all four reproduced values equal the paper's."""
        basis, redundant, cost, storage = self.paper
        return (
            self.is_basis == basis
            and self.is_redundant == redundant
            and abs(self.processing_cost - cost) < 1e-9
            and self.storage_cost == storage
        )


def run() -> list[Table2Row]:
    """Reproduce every row of Table 2."""
    elements = pedagogical_elements()
    population = pedagogical_population()
    num_queries = len(population)
    rows = []
    for members, _ in PAPER_TABLE2:
        selected = [elements[name] for name in members]
        # Incomplete sets cannot generate *all* views, but the two queried
        # views are generable in every paper row; the paper reports the
        # unweighted sum of the two generation costs.
        cost = total_processing_cost(selected, population) * num_queries
        rows.append(
            Table2Row(
                members=members,
                is_basis=is_complete(selected),
                is_redundant=not is_non_redundant(selected),
                processing_cost=cost,
                storage_cost=sum(e.volume for e in selected),
            )
        )
    return rows


def optimal_cost() -> float:
    """Algorithm 1 on the example: must find the paper's optimum of 3."""
    selection = select_minimum_cost_basis(
        CubeShape((2, 2)), pedagogical_population()
    )
    return selection.cost * len(pedagogical_population())


def main() -> str:
    """Render the reproduced table next to the paper's values."""
    rows = run()
    table_rows = []
    for row in rows:
        basis, redundant, cost, storage = row.paper
        table_rows.append(
            [
                "{" + ",".join(row.members) + "}",
                "Yes" if row.is_basis else "No",
                "Yes" if row.is_redundant else "No",
                row.processing_cost,
                cost,
                row.storage_cost,
                storage,
                "OK" if row.matches_paper else "MISMATCH",
            ]
        )
    rendered = ascii_table(
        [
            "set",
            "basis",
            "redundant",
            "proc",
            "paper",
            "storage",
            "paper",
            "check",
        ],
        table_rows,
        title="Table 2 — pedagogical element sets (reproduced vs paper)",
    )
    rendered += (
        f"\nAlgorithm 1 optimum: {optimal_cost():g} "
        "(paper: 3, achieved by {V3,V6,V7} and {V1,V5,V6})"
    )
    return rendered


if __name__ == "__main__":  # pragma: no cover - CLI entry
    print(main())
