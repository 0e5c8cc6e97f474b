"""Reduced-state implementation of Algorithm 1 for aggregated-view queries.

The explicit DP of :mod:`repro.core.select_basis` memoizes over view
elements — fine for small cubes, but the paper's Experiment 1 uses a 4-D cube
with ``n = 16``, whose graph has 923,521 nodes, and a served 512x128x64 cube
has 33 million.  When every query is an *aggregated view* the DP state
collapses dramatically:

- An aggregated view occupies, per dimension, either the full frequency axis
  (dimension untouched) or the dyadic interval ``[0, 1/n)`` (dimension
  totally aggregated).
- Therefore the support cost of an element depends only on its per-dimension
  *level* ``k`` and on whether its per-dimension index is zero — ``j = 0``
  intervals are exactly those containing the query interval ``[0, 1/n)``.
- Both Bellman children preserve this reduced state: the ``P1`` child keeps
  ``j = 0``-ness, the ``R1`` child always has ``j != 0``.

So the value function is well-defined on states ``(k_m, zero_m)`` per
dimension — at most ``prod(2 K_m + 1)`` states (6,561 for the Experiment 1
shape) instead of ~1M nodes, and it computes the *exact* same optimum:
same comparisons in the same order, so the same split decisions and a
bit-equal cost.  The test-suite cross-checks this against the explicit DP
on small shapes.

This is the recursion the server runs:
:func:`repro.core.select_basis.select_minimum_cost_basis` dispatches here
whenever ``population.is_aggregated_view_population()`` — which the
population observed by ``OLAPServer.reconfigure`` always is — and lists the
basis with its own Procedure 2 walk.  Call
:func:`select_minimum_cost_basis_fast` directly only to get the optimum
*without* enumerating the basis (Figure 8's 4-D shape has bases of hundreds
of thousands of elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .element import CubeShape, ElementId
from .population import QueryPopulation

__all__ = ["FastBasisResult", "extract_basis", "select_minimum_cost_basis_fast"]

#: Reduced per-dimension state: ``(level, index_is_zero)``.
DimState = tuple[int, bool]
State = tuple[DimState, ...]


@dataclass(frozen=True)
class FastBasisResult:
    """Outcome of the reduced DP.

    ``cost`` is the exact optimum of Algorithm 1.  ``num_elements`` and
    ``storage`` describe the optimal basis without enumerating it (the basis
    can contain hundreds of thousands of elements); use
    :meth:`extract_elements` to list members when feasible.
    """

    shape: CubeShape
    cost: float
    num_elements: int
    storage: int
    _decisions: dict

    @property
    def states(self) -> int:
        """Reduced states the recursion evaluated."""
        return len(self._decisions)

    def decision(self, node: ElementId) -> int:
        """The split dimension chosen at ``node`` (-1 = keep it)."""
        return self._decisions[_state_of(node)]

    def extract_elements(self):
        """Yield the members of the optimal basis (Procedure 2)."""
        return extract_basis(self.shape, self.decision)


def extract_basis(shape: CubeShape, decision):
    """Procedure 2: follow the split decisions from the root and yield every
    terminal element (``decision(node)``: -1 = keep, ``m`` = split along
    ``m``)."""
    stack = [shape.root()]
    while stack:
        node = stack.pop()
        dim = decision(node)
        if dim < 0:
            yield node
        else:
            stack.append(node.partial_child(dim))
            stack.append(node.residual_child(dim))


def _state_of(node: ElementId) -> State:
    return tuple((k, j == 0) for k, j in node.nodes)


def select_minimum_cost_basis_fast(
    shape: CubeShape, population: QueryPopulation
) -> FastBasisResult:
    """Algorithm 1 on the reduced state space.

    Requires every query in ``population`` to be an aggregated view; raises
    :class:`ValueError` otherwise (use
    :func:`repro.core.select_basis.select_minimum_cost_basis` for general
    populations).
    """
    if population.shape != shape:
        raise ValueError("population targets a different cube shape")
    if not population.is_aggregated_view_population():
        raise ValueError(
            "fast selection requires aggregated-view queries; "
            "use select_minimum_cost_basis for general populations"
        )

    sizes = shape.sizes
    depths = shape.depths
    d = shape.ndim

    # Pre-extract query structure: per query, the aggregated and the
    # untouched dimensions and the query volume (product of untouched
    # extents).
    queries = []
    for q, f in population:
        if f <= 0:
            continue
        agg = q.aggregated_dims
        kept = tuple(m for m in range(d) if m not in agg)
        queries.append((agg, kept, math.prod(sizes[m] for m in kept), f))

    def support(state: State) -> float:
        """``C_n`` for any element whose reduced state is ``state``."""
        extents = [sizes[m] >> state[m][0] for m in range(d)]
        vol_v = math.prod(extents)
        cost = 0.0
        for agg, kept, vol_q, f in queries:
            for m in agg:
                if not state[m][1]:
                    break  # disjoint: a residual branch on an aggregated dim
            else:
                vol_i = 1
                for m in kept:
                    vol_i *= extents[m]
                cost += f * ((vol_v - vol_i) + (vol_q - vol_i))
        return cost

    value_memo: dict[State, float] = {}
    decisions: dict[State, int] = {}

    def value(state: State) -> float:
        cached = value_memo.get(state)
        if cached is not None:
            return cached
        best = support(state)
        best_dim = -1
        for m in range(d):
            k, zero = state[m]
            if k >= depths[m]:
                continue
            p_state = state[:m] + ((k + 1, zero),) + state[m + 1 :]
            r_state = state[:m] + ((k + 1, False),) + state[m + 1 :]
            total = value(p_state) + value(r_state)
            if total < best:
                best = total
                best_dim = m
        value_memo[state] = best
        decisions[state] = best_dim
        return best

    root_state: State = tuple((0, True) for _ in range(d))
    cost = value(root_state)

    # Basis cardinality and storage by the same recursion (each node reached
    # during extraction shares its state's decision).
    count_memo: dict[State, tuple[int, int]] = {}

    def census(state: State) -> tuple[int, int]:
        cached = count_memo.get(state)
        if cached is not None:
            return cached
        decision = decisions[state]
        if decision < 0:
            vol = reduce(
                lambda a, m: a * (sizes[m] >> state[m][0]), range(d), 1
            )
            result = (1, vol)
        else:
            k, zero = state[decision]
            p_state = (
                state[:decision] + ((k + 1, zero),) + state[decision + 1 :]
            )
            r_state = (
                state[:decision] + ((k + 1, False),) + state[decision + 1 :]
            )
            pc, ps = census(p_state)
            rc, rs = census(r_state)
            result = (pc + rc, ps + rs)
        count_memo[state] = result
        return result

    num_elements, storage = census(root_state)
    return FastBasisResult(
        shape=shape,
        cost=float(cost),
        num_elements=num_elements,
        storage=storage,
        _decisions=decisions,
    )
