"""Algorithm 1 — optimal non-redundant basis selection (Section 5.2).

Every complete, non-redundant view element basis corresponds to a *pruned
split tree*: starting from the root, each reached element either terminates
(joins the basis) or is split along one dimension, recursing into both
children (Procedure 2).  The expected processing cost of a basis is additive
over its members (Eq 29), so the optimum satisfies the Bellman recursion of
the paper's Algorithm 1:

    D(V) = min( C_n(V),  min_m  D(P1^m V) + D(R1^m V) )

with terminal elements forced to ``D = C_n``.

:func:`select_minimum_cost_basis` runs it on per-dimension containment
signatures against the population's query intervals
(:class:`~repro.core.element.ContainmentSignatures`) rather than on view
elements: ``C_n(V)`` needs, per query, only whether the rectangles meet and
the extent of their overlap, which the signatures fix, and children of
equivalent elements are equivalent.  That is exact for any population, and
the state space does not grow with the graph — ``prod(2 K_m + 1)`` states
when every query is an aggregated view (6,561 for Figure 8's 923,521-node
graph).  The recursion over explicit :class:`ElementId` nodes, which walks
all ``N_ve`` of them, is the oracle in ``tests/oracles.py`` the test-suite
checks this one against; ``src/`` holds only the signature recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import mul

from .element import ContainmentSignatures, CubeShape, ElementId
from .population import QueryPopulation

__all__ = ["BasisSelection", "select_minimum_cost_basis"]


@dataclass(frozen=True)
class BasisSelection:
    """Result of Algorithm 1: the chosen basis and its expected cost.

    ``states`` is the number of DP states the recursion evaluated.
    """

    elements: tuple[ElementId, ...]
    cost: float
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

    The recursion makes the explicit DP's ``<`` comparisons in its
    dimension order on values that are bit-equal class by class, so it
    takes the same decisions, lists the basis in the same Procedure 2
    order and returns a bit-equal cost.

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
    sizes, depths = shape.sizes, shape.depths
    queries = [(q, f) for q, f in population if f > 0]
    weights = [(q.volume, f) for q, f in queries]
    intervals = [[q.nodes[m] for q, _ in queries] for m in range(shape.ndim)]
    dims = [ContainmentSignatures(nodes) for nodes in intervals]
    overlaps: list[dict] = [{} for _ in dims]

    def overlap(m: int, sig) -> list[int]:
        """Per query, the extent along ``m`` of its overlap with the
        intervals of class ``sig`` (0: disjoint); kept in ``overlaps``."""
        k, j = dims[m].member[sig]
        row = overlaps[m][sig] = []
        for qk, qj in intervals[m]:
            # Dyadic intervals nest or are disjoint; nested ones overlap
            # on the deeper.
            nested = j >> (k - qk) == qj if qk <= k else qj >> (qk - k) == j
            row.append(sizes[m] >> max(k, qk) if nested else 0)
        return row

    #: Signature key -> ``D`` / decision (-1 = keep, m = split).
    memo: dict[tuple, float] = {}
    decisions: dict[tuple, int] = {}

    def value(key: tuple, volume: int) -> float:
        cached = memo.get(key)
        if cached is not None:
            return cached
        # C_n (Eqs 26-29): per query, the overlap's volume is the product
        # of its per-dimension extents.
        rows = [overlaps[m].get(sig) or overlap(m, sig) for m, sig in enumerate(key)]
        best, best_dim = 0.0, -1
        for (q_volume, f), common in zip(weights, reduce(partial(map, mul), rows)):
            if common:
                best += f * ((volume - common) + (q_volume - common))
        half = volume >> 1
        for m, sig in enumerate(key):
            if sig[0] >= depths[m]:
                continue
            p_sig, r_sig = dims[m].children(sig)
            total = value(key[:m] + (p_sig,) + key[m + 1 :], half) + value(
                key[:m] + (r_sig,) + key[m + 1 :], half
            )
            if total < best:
                best, best_dim = total, m
        memo[key] = best
        decisions[key] = best_dim
        return best

    root_key = tuple(dim.of(0, 0) for dim in dims)
    cost = value(root_key, shape.volume)
    # Procedure 2, walking each element's signature key beside it.
    elements = []
    stack = [(shape.root(), root_key)]
    while stack:
        node, key = stack.pop()
        m = decisions[key]
        if m < 0:
            elements.append(node)
            continue
        p_sig, r_sig = dims[m].children(key[m])
        stack.append((node.partial_child(m), key[:m] + (p_sig,) + key[m + 1 :]))
        stack.append((node.residual_child(m), key[:m] + (r_sig,) + key[m + 1 :]))
    return BasisSelection(tuple(elements), float(cost), states=len(memo))
