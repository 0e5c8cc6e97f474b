"""The paper's [D] baseline: materialize the cube, then add views greedily.

Experiment 2 (Section 7.2.2) compares the view element method against the
strategy that "start[s] by materializing the data cube, then add[s] views in
a greedy fashion" — i.e. Algorithm 2 run with the data cube as the initial
selection and only the ``2**d`` aggregated views as candidates, priced with
the *same* Procedure 3 cost model.  This module is a thin, documented
wrapper that pins those choices down so experiments and tests cannot
configure the two strategies inconsistently.
"""

from __future__ import annotations

from ..core.element import CubeShape
from ..core.population import QueryPopulation
from ..core.select_basis import select_minimum_cost_basis
from ..core.select_redundant import GreedyResult, greedy_redundant_selection

__all__ = ["greedy_view_selection", "greedy_view_element_selection"]


def greedy_view_selection(
    shape: CubeShape,
    population: QueryPopulation,
    storage_budget: float,
) -> GreedyResult:
    """The [D] strategy of Figure 9.

    Initial selection: the data cube only.  Candidates: the ``2**d``
    aggregated views (Gray et al.'s group-bys).
    """
    return greedy_redundant_selection(
        initial=[shape.root()],
        population=population,
        storage_budget=storage_budget,
        candidates=list(shape.aggregated_views()),
    )


def greedy_view_element_selection(
    shape: CubeShape,
    population: QueryPopulation,
    storage_budget: float,
    remove_obsolete: bool = False,
) -> GreedyResult:
    """The [V] strategy of Figure 9.

    Initial selection: the Algorithm 1 minimum-cost non-redundant basis.
    Candidates: every view element of the graph (views included — the view
    dependency hierarchy is embedded in the view element graph, Section 5).
    """
    basis = select_minimum_cost_basis(shape, population)
    return greedy_redundant_selection(
        initial=list(basis.elements),
        population=population,
        storage_budget=storage_budget,
        candidates=None,
        remove_obsolete=remove_obsolete,
    )
