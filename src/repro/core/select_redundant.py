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
on a state space that does not grow with the graph.  The explicit
:class:`ElementId` recursion survives as the test-suite's oracle
(``tests/oracles.py``).  Algorithm 2 below is the clear reference form; the
vectorized engine in :mod:`repro.core.engine` computes identical numbers
with numpy level sweeps and is what the Figure 9 experiment uses; the
test-suite checks they agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .element import ContainmentSignatures, CubeShape, DimNode, ElementId
from .graph import ViewElementGraph
from .population import QueryPopulation

__all__ = [
    "ENGINE_DELEGATION_THRESHOLD",
    "generation_cost",
    "total_processing_cost",
    "GreedyStage",
    "GreedyResult",
    "greedy_redundant_selection",
]

_INF = float("inf")

#: Graph size (``N_ve``) above which :func:`greedy_redundant_selection`
#: delegates to the vectorized :class:`~repro.core.engine.SelectionEngine`.
#: The explicit recursion below stays authoritative for small shapes (all
#: paper examples and the test-suite), but a greedy stage over thousands of
#: candidates is many full Procedure 3 recursions per candidate — on the
#: Figure 9 graph that dominates server reconfiguration wall time.
ENGINE_DELEGATION_THRESHOLD = 512


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


@dataclass(frozen=True)
class GreedyStage:
    """One point of the storage/processing trade-off curve."""

    added: ElementId | None
    storage: int
    cost: float

    def normalized(self, cube_volume: int) -> tuple[float, float]:
        """``(storage / Vol(A), cost)`` as plotted in the paper's Figure 9."""
        return self.storage / cube_volume, self.cost


@dataclass(frozen=True)
class GreedyResult:
    """Full trajectory of Algorithm 2 (stage 0 is the initial selection)."""

    stages: tuple[GreedyStage, ...]
    selected: tuple[ElementId, ...]

    @property
    def final_cost(self) -> float:
        """Total processing cost after the last stage."""
        return self.stages[-1].cost

    @property
    def final_storage(self) -> int:
        """Storage cells after the last stage."""
        return self.stages[-1].storage


def greedy_redundant_selection(
    initial: Sequence[ElementId],
    population: QueryPopulation,
    storage_budget: float,
    candidates: Iterable[ElementId] | None = None,
    remove_obsolete: bool = False,
) -> GreedyResult:
    """Algorithm 2: greedily add redundant elements under a storage budget.

    Stops early once the total cost reaches zero.  A graph of more than
    :data:`ENGINE_DELEGATION_THRESHOLD` view elements is handed to the
    vectorized :class:`~repro.core.engine.SelectionEngine`, which computes
    the same trajectory.

    Parameters
    ----------
    initial:
        Starting selection — typically the Algorithm 1 basis (the paper's
        [V] strategy) or just the data cube (the [D] strategy).
    population:
        Query population defining the total cost (Procedure 3).
    storage_budget:
        Maximum total cells ``S_T``; candidates that would exceed it are
        not considered (Algorithm 2, step 2).
    candidates:
        Pool of addable elements.  Defaults to every view element of the
        graph (feasible for small shapes only); pass the aggregated views to
        emulate the view-only [D] strategy.
    remove_obsolete:
        The Section 7.2.2 refinement: after each addition, drop selected
        elements whose removal leaves the total cost unchanged (largest
        volume first), freeing storage for later stages.

    Returns
    -------
    GreedyResult
        The stage-by-stage storage/cost trajectory and final selection.
    """
    shape = population.shape
    if shape.num_view_elements() > ENGINE_DELEGATION_THRESHOLD:
        from .engine import SelectionEngine

        return SelectionEngine(shape).greedy_redundant_selection(
            initial,
            population,
            storage_budget,
            candidates=candidates,
            remove_obsolete=remove_obsolete,
        )
    selected = list(initial)
    if candidates is None:
        candidates = ViewElementGraph(shape).elements()
    pool = [c for c in candidates if c not in set(selected)]

    storage = sum(e.volume for e in selected)
    cost = total_processing_cost(selected, population)
    stages = [GreedyStage(added=None, storage=storage, cost=cost)]

    while pool:
        if cost <= 0.0:
            break
        best_cost = cost
        best_idx = -1
        for idx, candidate in enumerate(pool):
            if storage + candidate.volume > storage_budget:
                continue
            trial_cost = total_processing_cost(selected + [candidate], population)
            if trial_cost < best_cost - 1e-12:
                best_cost = trial_cost
                best_idx = idx
        if best_idx < 0:
            break
        chosen = pool.pop(best_idx)
        selected.append(chosen)
        storage += chosen.volume
        cost = best_cost
        if remove_obsolete:
            storage = _drop_obsolete(selected, population, cost, storage)
        stages.append(GreedyStage(added=chosen, storage=storage, cost=cost))

    return GreedyResult(stages=tuple(stages), selected=tuple(selected))


def _drop_obsolete(
    selected: list[ElementId],
    population: QueryPopulation,
    cost: float,
    storage: int,
) -> int:
    """Drop selected elements whose removal keeps the total cost unchanged.

    Largest volume first; repeats until no element is obsolete.  Mutates
    ``selected``; returns the updated storage.
    """
    while len(selected) > 1:
        removable = []
        for element in selected:
            remaining = [e for e in selected if e != element]
            if total_processing_cost(remaining, population) <= cost + 1e-9:
                removable.append(element)
        if not removable:
            return storage
        victim = max(removable, key=lambda e: e.volume)
        selected.remove(victim)
        storage -= victim.volume
    return storage
