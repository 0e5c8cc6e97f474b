"""Procedure 3 and Algorithm 2 — redundant view element selection (§5.3).

When storage beyond ``Vol(A)`` is available, adding *redundant* view elements
can cut processing cost further.  The paper evaluates a candidate set with
Procedure 3: every element can be generated either

- *by aggregation* from some selected ancestor ``V_s`` at cost
  ``Vol(s) - Vol(V)`` (Eq 28), or
- *by synthesis* from its two children along some dimension at cost
  ``Vol(V)`` plus the cost of obtaining both children (Eq 32),

and the cheapest option wins (Eq 33).  The total cost of the selection is the
frequency-weighted sum over the query population (Eq 34).

Algorithm 2 greedily adds, at each stage, the candidate element that most
reduces the total cost, until the storage budget ``S_T`` is exhausted.

Procedure 3 is what every assembly and batch plan of the serving stack
prices routes with (:func:`generation_cost`, through
:func:`repro.core.planning.best_route`), so it does not recurse over explicit
view elements: it memoizes on per-dimension *containment signatures* against
the selected intervals (:class:`_SignaturePricer`), an exact value function
on a state space that does not grow with the graph.

Algorithm 2 has one entry point, :func:`greedy_redundant_selection`, and one
implementation, the vectorized :class:`~repro.core.engine.SelectionEngine`
it builds for every shape; :func:`reselect` is the reconfiguration step
(Algorithm 1, then Algorithm 2 under a budget above ``Vol(A)``) the servers
share.  The explicit forms — Procedure 3 over :class:`ElementId` nodes and
the greedy the paper states — are the test-suite's oracles
(``tests/oracles.py``), and nothing in ``src/`` calls them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .element import ContainmentSignatures, CubeShape, DimNode, ElementId
from .engine import GreedyResult, GreedyStage, SelectionEngine
from .population import QueryPopulation
from .select_basis import select_minimum_cost_basis

__all__ = [
    "check_storage_budget",
    "generation_cost",
    "total_processing_cost",
    "GreedyStage",
    "GreedyResult",
    "greedy_redundant_selection",
    "reselect",
]

_INF = float("inf")


class _SignaturePricer:
    """Procedure 3's value function on per-dimension containment signatures.

    What ``T(V)`` depends on is which selected elements contain ``V`` and
    its descendants, and along one dimension that is a relation between
    dyadic intervals: :class:`~repro.core.element.ContainmentSignatures`
    against the selected intervals names it.  Equivalent elements have
    equivalent children, the same volume and the same containing selected
    elements, so the recursion of Eqs 32-33 is well defined — and exact —
    on ``O(prod K_m |I_m|)`` signatures instead of explicit view elements
    (``docs/paper_notes.md`` has the argument in full).

    Selected elements are numbered by ascending volume and sets of them
    are int bitmasks: a signature's containers are the AND of its
    per-dimension masks, the cheapest aggregation source the lowest bit.
    """

    def __init__(self, shape: CubeShape, selected: tuple[ElementId, ...]):
        self.selected = selected
        self.depths = shape.depths
        #: Signature -> exact ``T``; the memo of the recursion.
        self.states: dict[tuple, float] = {}
        ranked = sorted(selected, key=lambda e: e.volume)
        self._volumes = [e.volume for e in ranked]
        #: Per dimension: selected interval -> mask of the selected
        #: elements occupying it.
        self._exact: list[dict[DimNode, int]] = []
        self._dims: list[ContainmentSignatures] = []
        #: Per dimension: signature -> mask of the selected elements whose
        #: interval contains it.
        self._masks: list[dict[DimNode, int]] = []
        for m in range(shape.ndim):
            exact: dict[DimNode, int] = {}
            for bit, element in enumerate(ranked):
                node = element.nodes[m]
                exact[node] = exact.get(node, 0) | (1 << bit)
            self._exact.append(exact)
            self._dims.append(ContainmentSignatures(exact))
            self._masks.append({})

    def _containers(self, m: int, sig: DimNode) -> int:
        """The mask of the selected elements whose interval along ``m``
        contains class ``sig``'s; kept in ``_masks``."""
        exact, mask = self._exact[m], 0
        k, j = self._dims[m].member[sig]
        while k >= 0:
            mask |= exact.get((k, j), 0)
            k, j = k - 1, j >> 1
        self._masks[m][sig] = mask
        return mask

    def price(self, element: ElementId) -> float:
        """``T(element)`` (``inf`` when the selection cannot produce it)."""
        key = tuple(
            dim.of(k, j) for dim, (k, j) in zip(self._dims, element.nodes)
        )
        return self._cost(key, element.volume)

    def _cost(self, key: tuple, volume: int) -> float:
        cached = self.states.get(key)
        if cached is not None:
            return cached
        containers = -1
        for m, (masks, sig) in enumerate(zip(self._masks, key)):
            mask = masks.get(sig)
            containers &= self._containers(m, sig) if mask is None else mask
        if containers:
            # Lowest bit = smallest container; one of equal volume is the
            # element itself (selected: free), else aggregate down (Eq 28).
            lowest = (containers & -containers).bit_length() - 1
            best = self._volumes[lowest] - volume or 0.0
        else:
            best = _INF
        # Synthesis from children (strictly deeper, so the recursion
        # terminates).  Every generation cost is non-negative and a
        # synthesis candidate is ``volume + p_cost + r_cost``, so ``volume``
        # (and then ``volume + p_cost``) lower-bound every candidate along a
        # dimension: once a bound reaches ``best`` the branch is provably
        # non-winning (ties already favor ``best``) and the recursion below
        # it is pruned.  Exact minima are unchanged.
        if volume < best:
            half = volume >> 1
            for m, sig in enumerate(key):
                if sig[0] >= self.depths[m]:
                    continue
                p_sig, r_sig = self._dims[m].children(sig)
                partial_bound = volume + self._cost(
                    key[:m] + (p_sig,) + key[m + 1 :], half
                )
                if partial_bound >= best:
                    continue
                candidate = partial_bound + self._cost(
                    key[:m] + (r_sig,) + key[m + 1 :], half
                )
                if candidate < best:
                    best = candidate
        self.states[key] = best
        return best


#: Key under which a cost memo carries its :class:`_SignaturePricer`; it
#: shares the memo's lifecycle (``clear()`` drops both).
_PRICER = "signature-pricer"


def generation_cost(
    element: ElementId,
    selected: Sequence[ElementId],
    _memo: dict | None = None,
) -> float:
    """``T_j`` — cheapest way to produce ``element`` from ``selected``.

    ``min(0 if selected, aggregation from a selected ancestor, synthesis
    from children)`` per Eqs 32-33.  Returns ``inf`` when the selection
    cannot produce the element at all (i.e. it is not complete with respect
    to it).

    ``_memo`` carries prices between calls *for one selection*: an entry
    per element asked about (what the planners read back), and the
    signature-level value function behind them.  Handed a different
    selection than the one it was filled for, the memo starts over.
    """
    memo = _memo if _memo is not None else {}
    pricer = validated_pricer(memo, element.shape, selected)
    cost = memo.get(element)
    if cost is None:
        cost = memo[element] = pricer.price(element)
    return cost


def validated_pricer(
    memo: dict, shape: CubeShape, selected: Sequence[ElementId]
) -> _SignaturePricer:
    """The pricer ``memo`` carries, after checking it prices ``selected``.

    Everything in a cost memo — prices, pricer, the planners' route table
    — is only true of the selection it was filled for, so a memo handed
    another one is cleared here, before anything is read from it.
    """
    pricer = memo.get(_PRICER)
    if pricer is None or (
        pricer.selected is not selected and pricer.selected != tuple(selected)
    ):
        memo.clear()
        pricer = memo[_PRICER] = _SignaturePricer(shape, tuple(selected))
    return pricer


def priced_states(memo: dict) -> int:
    """Signatures priced so far behind the cost memo ``memo``."""
    pricer = memo.get(_PRICER)
    return len(pricer.states) if pricer is not None else 0


def total_processing_cost(
    selected: Sequence[ElementId],
    population: QueryPopulation,
) -> float:
    """Procedure 3: ``T = sum_k f_k T(Z_k)`` (Eq 34)."""
    selected = tuple(selected)
    memo: dict = {}
    total = 0.0
    for query, f in population:
        if f <= 0:
            continue
        total += f * generation_cost(query, selected, memo)
    return total


def check_storage_budget(storage_budget: float | None) -> None:
    """Refuse a NaN or negative storage budget.

    ``None`` and any budget of at most ``Vol(A)`` mean "no redundancy";
    ``inf`` is unbounded.  A NaN would compare false against every
    candidate, so it is refused rather than read as either.
    """
    if storage_budget is not None and not storage_budget >= 0:
        raise ValueError(
            "storage_budget must be a non-negative number or None, "
            f"got {storage_budget!r}"
        )


def greedy_redundant_selection(
    initial: Sequence[ElementId],
    population: QueryPopulation,
    storage_budget: float,
    candidates: Iterable[ElementId] | None = None,
    remove_obsolete: bool = False,
) -> GreedyResult:
    """Algorithm 2: greedily add redundant elements under a storage budget.

    The one entry point: every shape runs on a
    :class:`~repro.core.engine.SelectionEngine` built for
    ``population.shape`` (construction is well under the cost of one
    greedy stage).  Stops early once the total cost reaches zero.

    Parameters
    ----------
    initial:
        Starting selection — typically the Algorithm 1 basis (the paper's
        [V] strategy) or just the data cube (the [D] strategy).
    population:
        Query population defining the total cost (Procedure 3).
    storage_budget:
        Maximum total cells ``S_T``; candidates that would exceed it are
        not considered (Algorithm 2, step 2).  NaN or negative is a
        :class:`ValueError`.
    candidates:
        Pool of addable elements.  Defaults to every view element of the
        graph; pass the aggregated views to emulate the view-only [D]
        strategy.
    remove_obsolete:
        The Section 7.2.2 refinement: after each addition, drop selected
        elements whose removal leaves the total cost unchanged (largest
        volume first), freeing storage for later stages.

    Returns
    -------
    GreedyResult
        The stage-by-stage storage/cost trajectory and final selection.
    """
    check_storage_budget(storage_budget)
    return SelectionEngine(population.shape).greedy_redundant_selection(
        initial, population, storage_budget, candidates, remove_obsolete
    )


def reselect(
    shape: CubeShape,
    population: QueryPopulation,
    storage_budget: float | None,
) -> tuple[list[ElementId], float, int]:
    """Algorithm 1, then Algorithm 2 when the budget exceeds ``Vol(A)``.

    The reconfiguration step of :class:`~repro.server.OLAPServer`.  Returns
    the elements to materialize, their expected processing cost, and the
    DP states Algorithm 1 evaluated.
    """
    basis = select_minimum_cost_basis(shape, population)
    if storage_budget is None or storage_budget <= shape.volume:
        return list(basis.elements), basis.cost, basis.states
    result = greedy_redundant_selection(
        basis.elements, population, storage_budget
    )
    return list(result.selected), result.final_cost, basis.states
