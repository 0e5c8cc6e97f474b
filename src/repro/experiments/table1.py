"""Table 1 — view element counts for various cube sizes (Section 4.1).

The paper tabulates, for five ``(d, n)`` combinations with constant volume
``n**d = 2**16``, the number of aggregated views ``N_av``, intermediate view
elements ``N_iv``, residual view elements ``N_rv``, and total view elements
``N_ve``.  The reproduction computes all four from the closed forms
(Eqs 17-20) via :class:`~repro.core.element.CubeShape` and — for the
smallest shape — cross-checks them against brute-force enumeration of the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.element import CubeShape
from ..core.graph import ViewElementGraph
from ..obs.reporting import ascii_table

__all__ = ["PAPER_TABLE1", "Table1Row", "run", "main"]

#: The paper's Table 1, keyed by (d, n):
#: ``(N_av, N_iv, N_rv, N_ve)``.
PAPER_TABLE1: dict[tuple[int, int], tuple[int, int, int, int]] = {
    (2, 256): (4, 81, 261_040, 261_121),
    (3, 32): (8, 216, 249_831, 250_047),
    (4, 16): (16, 625, 922_896, 923_521),
    (5, 8): (32, 1_024, 758_351, 759_375),
    (8, 4): (256, 6_561, 5_758_240, 5_764_801),
}


@dataclass(frozen=True)
class Table1Row:
    """One computed row with its paper counterpart."""

    d: int
    n: int
    num_aggregated: int
    num_intermediate: int
    num_residual: int
    num_elements: int

    @property
    def paper(self) -> tuple[int, int, int, int]:
        """The paper's counts for this (d, n)."""
        return PAPER_TABLE1[(self.d, self.n)]

    @property
    def matches_paper(self) -> bool:
        """Whether all four counts equal the paper's."""
        return (
            self.num_aggregated,
            self.num_intermediate,
            self.num_residual,
            self.num_elements,
        ) == self.paper


def run() -> list[Table1Row]:
    """Compute every row of Table 1."""
    rows = []
    for d, n in PAPER_TABLE1:
        shape = CubeShape((n,) * d)
        graph = ViewElementGraph(shape)
        rows.append(
            Table1Row(
                d=d,
                n=n,
                num_aggregated=graph.num_aggregated_views,
                num_intermediate=graph.num_intermediate,
                num_residual=graph.num_residual,
                num_elements=graph.num_elements,
            )
        )
    return rows


def enumerate_counts(shape: CubeShape) -> tuple[int, int, int, int]:
    """Brute-force counts by walking the whole graph (small shapes only)."""
    graph = ViewElementGraph(shape)
    num_av = num_iv = num_rv = total = 0
    for element in graph.elements():
        total += 1
        if element.is_aggregated_view:
            num_av += 1
        if element.is_intermediate:
            num_iv += 1
        else:
            num_rv += 1
    return num_av, num_iv, num_rv, total


def main() -> str:
    """Render the reproduced table next to the paper's numbers."""
    rows = run()
    table_rows = []
    for row in rows:
        paper = row.paper
        table_rows.append(
            [
                row.d,
                row.n,
                row.num_aggregated,
                paper[0],
                row.num_intermediate,
                paper[1],
                row.num_residual,
                paper[2],
                row.num_elements,
                paper[3],
                "OK" if row.matches_paper else "MISMATCH",
            ]
        )
    return ascii_table(
        [
            "d",
            "n",
            "N_av",
            "paper",
            "N_iv",
            "paper",
            "N_rv",
            "paper",
            "N_ve",
            "paper",
            "check",
        ],
        table_rows,
        title="Table 1 — view element counts (reproduced vs paper)",
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    print(main())
