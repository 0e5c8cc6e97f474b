"""Algorithm 2's one implementation: the vectorized Procedure 3 engine.

Every run of Algorithm 2 — the servers' reconfigurations, the [D] and [V]
baselines of Figure 9, the examples — goes through
:func:`repro.core.select_redundant.greedy_redundant_selection`, which builds
a :class:`SelectionEngine` for the population's shape and runs
:meth:`SelectionEngine.greedy_redundant_selection`.  A greedy stage must
price thousands of candidate additions (2,401 on Figure 9's graph), so
rather than recurse over explicit :class:`ElementId` objects the engine
flattens the graph into numpy index arrays (see
:meth:`repro.core.graph.ViewElementGraph.index_arrays`) and evaluates
*batches* of selection scenarios with two level sweeps:

1. *Top-down* (shallow to deep): ``M(V)`` = volume of the smallest selected
   element containing ``V``; propagates through per-dimension parents.
   The aggregation option then costs ``F(V) = M(V) - Vol(V)`` (Eq 28).
2. *Bottom-up* (deep to shallow): the synthesis option costs
   ``Vol(V) + T(P child) + T(R child)`` minimized over dimensions (Eq 32);
   ``T(V)`` is the minimum of the two options, zero when selected (Eq 33).

Both sweeps are exact DAG dynamic programs because parents are strictly
shallower and children strictly deeper.  A batch row is one scenario
(baseline selection, or baseline plus one candidate), so a whole greedy stage
is a few dense array passes.  The explicit greedy the paper states, priced
by Procedure 3 one selection at a time, is the test-suite's oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import current_registry, span
from .element import CubeShape, ElementId
from .graph import ViewElementGraph
from .population import QueryPopulation

__all__ = ["GreedyResult", "GreedyStage", "SelectionEngine"]

_INF = np.inf


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


class SelectionEngine:
    """Flat-array Procedure 3 evaluator and Algorithm 2 driver.

    Builds ``O(N_ve * d)`` index tables once per cube shape; every
    evaluation afterwards is a handful of vectorized passes.  Intended for
    shapes with up to a few hundred thousand view elements.
    """

    #: Cap on scenario-matrix cells per evaluation batch; greedy stages
    #: with more candidates than fit are evaluated in chunks (per
    #: candidate column, so the totals do not depend on it).  A cell costs
    #: about 25 bytes — the bool scenario matrix plus the float sweeps
    #: over it — so one batch stays near 100 MB.
    max_batch_cells: int = 4_000_000

    def __init__(self, shape: CubeShape):
        self.shape = shape
        self.graph = ViewElementGraph(shape)
        tables = self.graph.index_arrays()
        self.volume = tables["volume"].astype(np.float64)
        self.depth = tables["depth"]
        self.parent = tables["parent"]
        self.p_child = tables["p_child"]
        self.r_child = tables["r_child"]
        self.num_nodes = self.volume.shape[0]
        self.ndim = shape.ndim
        max_depth = int(self.depth.max())
        self._levels = [
            np.nonzero(self.depth == t)[0] for t in range(max_depth + 1)
        ]

    # ------------------------------------------------------------------

    def index_of(self, element: ElementId) -> int:
        """Flat index of ``element``."""
        return self.graph.element_to_index(element)

    def indices_of(self, elements: Iterable[ElementId]) -> np.ndarray:
        """Flat indices of several elements."""
        return np.array([self.index_of(e) for e in elements], dtype=np.int64)

    def element_of(self, index: int) -> ElementId:
        """Inverse of :meth:`index_of`."""
        return self.graph.index_to_element(int(index))

    # ------------------------------------------------------------------
    # Core sweeps

    def _containment_min_volume(self, selected_matrix: np.ndarray) -> np.ndarray:
        """Top-down sweep: per scenario, ``M(V)`` for every node.

        ``selected_matrix`` is ``(N, B)`` boolean (node-major so level
        updates gather contiguous rows).  Returns ``(N, B)`` float: the
        volume of the smallest selected element containing each node
        (``inf`` when none does).
        """
        m_vals = np.where(selected_matrix, self.volume[:, None], _INF)
        for level_nodes in self._levels[1:]:
            if level_nodes.size == 0:
                continue
            acc = m_vals[level_nodes]
            for dim in range(self.ndim):
                par = self.parent[level_nodes, dim]
                valid = par >= 0
                if not valid.any():
                    continue
                acc[valid] = np.minimum(acc[valid], m_vals[par[valid]])
            m_vals[level_nodes] = acc
        return m_vals

    def _generation_costs(self, selected_matrix: np.ndarray) -> np.ndarray:
        """Procedure 3 ``T(V)`` for every node, per scenario column.

        ``selected_matrix`` and the result are ``(N, B)``.
        """
        registry = current_registry()
        registry.counter(
            "engine_sweeps_total", "Procedure 3 level-sweep evaluations"
        ).inc()
        registry.counter(
            "engine_sweep_scenarios_total",
            "selection scenarios evaluated across all sweeps",
        ).inc(selected_matrix.shape[1])
        m_vals = self._containment_min_volume(selected_matrix)
        t_vals = m_vals - self.volume[:, None]  # F: aggregation option
        t_vals[selected_matrix] = 0.0
        for level_nodes in reversed(self._levels[:-1]):
            if level_nodes.size == 0:
                continue
            best_children = np.full(
                (level_nodes.size, t_vals.shape[1]), _INF
            )
            for dim in range(self.ndim):
                pc = self.p_child[level_nodes, dim]
                rc = self.r_child[level_nodes, dim]
                valid = pc >= 0
                if not valid.any():
                    continue
                child_sum = t_vals[pc[valid]] + t_vals[rc[valid]]
                np.minimum(best_children[valid], child_sum, out=child_sum)
                best_children[valid] = child_sum
            best_children += self.volume[level_nodes][:, None]
            np.minimum(t_vals[level_nodes], best_children, out=best_children)
            t_vals[level_nodes] = best_children
        return t_vals

    def _population_arrays(
        self, population: QueryPopulation
    ) -> tuple[np.ndarray, np.ndarray]:
        if population.shape != self.shape:
            raise ValueError("population targets a different cube shape")
        pairs = [(self.index_of(q), f) for q, f in population if f > 0]
        q_idx = np.array([i for i, _ in pairs], dtype=np.int64)
        freqs = np.array([f for _, f in pairs])
        return q_idx, freqs

    # ------------------------------------------------------------------
    # Algorithm 2

    def greedy_redundant_selection(
        self,
        initial: Sequence[ElementId],
        population: QueryPopulation,
        storage_budget: float,
        candidates: Iterable[ElementId] | None,
        remove_obsolete: bool,
    ) -> GreedyResult:
        """Algorithm 2 with batched candidate evaluation.

        Reached through
        :func:`repro.core.select_redundant.greedy_redundant_selection`,
        which documents the parameters; each stage evaluates every
        affordable candidate in one batch.
        """
        with span(
            "engine.greedy_selection", budget=float(storage_budget)
        ) as sp:
            result = self._greedy_redundant_selection(
                initial,
                population,
                storage_budget,
                candidates,
                remove_obsolete,
            )
            sp.set(
                stages=len(result.stages) - 1,
                final_cost=result.final_cost,
                final_storage=result.final_storage,
            )
        return result

    def _greedy_redundant_selection(
        self,
        initial: Sequence[ElementId],
        population: QueryPopulation,
        storage_budget: float,
        candidates: Iterable[ElementId] | None,
        remove_obsolete: bool,
    ) -> GreedyResult:
        stage_counter = current_registry().counter(
            "engine_greedy_stages_total", "Algorithm 2 greedy stages executed"
        )
        q_idx, freqs = self._population_arrays(population)
        selected_idx = list(dict.fromkeys(int(i) for i in self.indices_of(initial)))
        if candidates is None:
            cand_idx = np.arange(self.num_nodes, dtype=np.int64)
        else:
            cand_idx = self.indices_of(candidates)
        cand_idx = np.array(
            [c for c in cand_idx if c not in set(selected_idx)], dtype=np.int64
        )

        storage = float(self.volume[selected_idx].sum())
        base_row = np.zeros(self.num_nodes, dtype=bool)
        base_row[selected_idx] = True
        cost = float(
            (self._generation_costs(base_row[:, None])[q_idx, 0] * freqs).sum()
        )
        stages = [GreedyStage(added=None, storage=int(storage), cost=cost)]

        while cand_idx.size:
            if cost <= 1e-12:
                break
            affordable = cand_idx[
                storage + self.volume[cand_idx] <= storage_budget + 1e-9
            ]
            if affordable.size == 0:
                break
            totals = self._candidate_totals(base_row, affordable, q_idx, freqs)
            best = int(np.argmin(totals))
            if totals[best] >= cost - 1e-12:
                break
            chosen = int(affordable[best])
            selected_idx.append(chosen)
            base_row[chosen] = True
            storage += float(self.volume[chosen])
            cost = float(totals[best])
            cand_idx = cand_idx[cand_idx != chosen]
            stage_counter.inc()
            if remove_obsolete:
                storage = self._remove_obsolete(
                    selected_idx, base_row, q_idx, freqs, cost, storage
                )
            stages.append(
                GreedyStage(
                    added=self.element_of(chosen),
                    storage=int(storage),
                    cost=cost,
                )
            )

        return GreedyResult(
            stages=tuple(stages),
            selected=tuple(self.element_of(i) for i in selected_idx),
        )

    def _candidate_totals(
        self,
        base_row: np.ndarray,
        candidates: np.ndarray,
        q_idx: np.ndarray,
        freqs: np.ndarray,
    ) -> np.ndarray:
        """Total cost with each candidate added, chunked to bound memory."""
        chunk = max(1, int(self.max_batch_cells // self.num_nodes))
        totals = np.empty(candidates.size)
        for start in range(0, candidates.size, chunk):
            part = candidates[start : start + chunk]
            batch = np.broadcast_to(
                base_row[:, None], (self.num_nodes, part.size)
            ).copy()
            batch[part, np.arange(part.size)] = True
            t_vals = self._generation_costs(batch)
            totals[start : start + part.size] = (
                t_vals[q_idx, :] * freqs[:, None]
            ).sum(axis=0)
        return totals

    def _remove_obsolete(
        self,
        selected_idx: list[int],
        base_row: np.ndarray,
        q_idx: np.ndarray,
        freqs: np.ndarray,
        cost: float,
        storage: float,
    ) -> float:
        """Remove selected elements whose removal keeps the cost unchanged.

        The Section 7.2.2 refinement of Algorithm 2.  Removal scenarios are
        evaluated in one batch per round; among removable elements the
        largest volume is dropped first, and rounds repeat until no element
        is obsolete.  Mutates ``selected_idx`` and ``base_row``; returns the
        updated storage.
        """
        while len(selected_idx) > 1:
            current = np.array(selected_idx, dtype=np.int64)
            batch = np.broadcast_to(
                base_row[:, None], (self.num_nodes, current.size)
            ).copy()
            batch[current, np.arange(current.size)] = False
            t_vals = self._generation_costs(batch)
            totals = (t_vals[q_idx, :] * freqs[:, None]).sum(axis=0)
            removable = np.nonzero(totals <= cost + 1e-9)[0]
            if removable.size == 0:
                return storage
            victim_pos = removable[np.argmax(self.volume[current[removable]])]
            victim = int(current[victim_pos])
            selected_idx.remove(victim)
            base_row[victim] = False
            storage -= float(self.volume[victim])
        return storage
