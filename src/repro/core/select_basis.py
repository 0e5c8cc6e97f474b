"""Algorithm 1 — optimal non-redundant basis selection (Section 5.2).

Every complete, non-redundant view element basis corresponds to a *pruned
split tree*: starting from the root, each reached element either terminates
(joins the basis) or is split along one dimension, recursing into both
children (Procedure 2).  The expected processing cost of a basis is additive
over its members (Eq 29), so the optimum satisfies the Bellman recursion of
the paper's Algorithm 1:

    D(V) = min( C_n(V),  min_m  D(P1^m V) + D(R1^m V) )

with terminal elements forced to ``D = C_n``.

:func:`select_minimum_cost_basis` is the single entry point and picks the
state space from the population itself:

- every query an *aggregated view* (always true of the population
  ``OLAPServer.reconfigure`` observes, and of ``DynamicViewAssembler`` as
  long as only views were queried) — the reduced ``(level, index == 0)``
  recursion of :mod:`repro.core.select_fast`: ``prod(2 K_m + 1)`` states
  however large the graph, the same ``<`` / dimension-order tie-breaking,
  hence the same element set and a bit-equal cost;
- any other population — the recursion memoized over explicit
  :class:`ElementId` nodes below, exact for *any* population but walking
  all ``N_ve`` nodes.  It is also the oracle the test-suite checks the
  reduced recursion against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import element_population_cost
from .element import CubeShape, ElementId
from .population import QueryPopulation
from .select_fast import extract_basis, select_minimum_cost_basis_fast

__all__ = ["BasisSelection", "select_minimum_cost_basis"]


@dataclass(frozen=True)
class BasisSelection:
    """Result of Algorithm 1: the chosen basis and its expected cost.

    ``selector`` names the recursion that produced it (``"reduced"`` or
    ``"general"``) and ``states`` the number of DP states it evaluated.
    """

    elements: tuple[ElementId, ...]
    cost: float
    selector: str = "general"
    states: int = 0

    @property
    def storage(self) -> int:
        """Total cells of the basis — equals ``Vol(A)`` (non-expansiveness)."""
        return sum(e.volume for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def select_minimum_cost_basis(
    shape: CubeShape,
    population: QueryPopulation,
) -> BasisSelection:
    """Algorithm 1: the complete, non-redundant basis of minimum cost.

    Parameters
    ----------
    shape:
        Cube shape whose view element graph is searched.
    population:
        Query population ``{(Z_k, f_k)}`` defining the support costs.

    Returns
    -------
    BasisSelection
        The optimal basis and its expected processing cost
        ``sum_k f_k (cost to assemble Z_k)``.
    """
    if population.shape != shape:
        raise ValueError("population targets a different cube shape")
    if population.is_aggregated_view_population():
        fast = select_minimum_cost_basis_fast(shape, population)
        return BasisSelection(
            tuple(extract_basis(shape, fast.decision)),
            fast.cost,
            selector="reduced",
            states=fast.states,
        )
    return _select_explicit(shape, population)


def _select_explicit(
    shape: CubeShape, population: QueryPopulation
) -> BasisSelection:
    """Algorithm 1 memoized over explicit view elements (any population)."""
    support_memo: dict[ElementId, float] = {}
    value_memo: dict[ElementId, tuple[float, int]] = {}

    def support(node: ElementId) -> float:
        cached = support_memo.get(node)
        if cached is None:
            cached = element_population_cost(node, population)
            support_memo[node] = cached
        return cached

    def value(node: ElementId) -> tuple[float, int]:
        """Return ``(D(node), decision)``; decision -1 = keep, m = split."""
        cached = value_memo.get(node)
        if cached is not None:
            return cached
        own = support(node)
        best_cost, best_dim = own, -1
        for dim in node.splittable_dims():
            p_cost, _ = value(node.partial_child(dim))
            r_cost, _ = value(node.residual_child(dim))
            total = p_cost + r_cost
            if total < best_cost:
                best_cost, best_dim = total, dim
        result = (best_cost, best_dim)
        value_memo[node] = result
        return result

    cost, _ = value(shape.root())
    return BasisSelection(
        tuple(extract_basis(shape, lambda node: value(node)[1])),
        float(cost),
        selector="general",
        states=len(value_memo),
    )
