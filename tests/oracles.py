"""Reference implementations the test-suite compares the serving code against.

``src/`` holds one implementation of each paper algorithm; the explicit
forms the paper states live here, and only here, as oracles:

- :func:`explicit_generation_cost` / :func:`explicit_best_route` —
  Procedure 3 over explicit :class:`ElementId` nodes, which the planners'
  signature pricer must match;
- :func:`_select_explicit` / :func:`extract_basis` — Algorithm 1 memoized
  over explicit view elements, then Procedure 2, which
  :func:`repro.core.select_basis.select_minimum_cost_basis` must match;
- :func:`greedy_explicit` — Algorithm 2 as the paper states it, one
  Procedure 3 total per trial selection, which
  :func:`repro.core.select_redundant.greedy_redundant_selection` (the
  vectorized engine) must match stage for stage;
- :func:`assemble_recursive` — Procedure 3 run as a recursion over stored
  arrays, one target at a time, which the one executor
  (:mod:`repro.core.exec`) must match bit for bit;
- :func:`delta_cell` — the scalar cascade walk
  :class:`repro.core.delta.DeltaBatch` tabulates;
- :func:`resolve_view_explicit` / :func:`resolve_rollup_explicit` — a
  served request resolved through the checked per-name lookup
  (:meth:`~repro.cube.dimensions.DimensionSet.axis_of`), the aggregated
  view's set walk and :func:`~repro.core.element.as_index`, which the
  table resolvers of :mod:`repro.cube.hierarchy` must match: the same
  interned element, or the same refusal;
- :func:`smallest_warm_ancestor_explicit` — the containment scan over
  every warm array that :meth:`repro.core.range_query.RangeQueryEngine.
  warm_route`'s walk over ancestor slots must match.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.costs import element_population_cost
from repro.core.element import CubeShape, ElementId, as_index
from repro.core.graph import ViewElementGraph
from repro.core.kernels import fused_cascade, fused_synthesize
from repro.core.operators import OpCounter
from repro.core.planning import RouteTable, route_table
from repro.core.population import QueryPopulation
from repro.core.select_basis import BasisSelection
from repro.core.select_redundant import GreedyResult, GreedyStage
from repro.cube.hierarchy import HierarchicalDimension
from repro.errors import InvalidQueryError

_INF = float("inf")


def explicit_generation_cost(
    element: ElementId, selected, memo: dict | None = None
) -> float:
    """Procedure 3 (Eqs 32-33) by recursion over explicit view elements.

    ``memo`` is a plain ``{element: T}`` dict; every element the recursion
    visits gets an entry.
    """
    return _generation_cost(element, tuple(selected), {} if memo is None else memo)


def _generation_cost(element: ElementId, selected: tuple, memo: dict) -> float:
    cached = memo.get(element)
    if cached is not None:
        return cached
    if element in selected:
        memo[element] = 0.0
        return 0.0
    best = _INF
    for s in selected:
        if s.volume < best and s.contains(element):
            best = s.volume
    if best < _INF:
        best -= element.volume
    volume = element.volume
    # ``volume`` (then ``volume + p_cost``) lower-bounds every synthesis
    # candidate, so a bound that reaches ``best`` cannot win: pruning keeps
    # the minima exact and the walk finite on deep shapes.
    if volume < best:
        for dim in element.splittable_dims():
            p_cost = _generation_cost(element.partial_child(dim), selected, memo)
            partial_bound = volume + p_cost
            if partial_bound >= best:
                continue
            candidate = partial_bound + _generation_cost(
                element.residual_child(dim), selected, memo
            )
            if candidate < best:
                best = candidate
    memo[element] = best
    return best


def explicit_best_route(target: ElementId, selected, memo: dict):
    """``(aggregation source, synthesis dimension)`` Procedure 3 prefers.

    The same rule as :func:`repro.core.planning.best_route` — smallest
    selected ancestor (first in ``selected`` on equal volume), cheapest
    synthesis dimension (lowest on a tie) — priced by the explicit
    recursion.
    """
    source = next(
        (
            s
            for s in sorted(selected, key=lambda e: e.volume)
            if s.contains(target)
        ),
        None,
    )
    synth_cost, synth_dim = _INF, -1
    for dim in target.splittable_dims():
        candidate = (
            target.volume
            + explicit_generation_cost(target.partial_child(dim), selected, memo)
            + explicit_generation_cost(target.residual_child(dim), selected, memo)
        )
        if candidate < synth_cost:
            synth_cost, synth_dim = candidate, dim
    return source, synth_dim


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
        states=len(value_memo),
    )


def explicit_total_cost(selected, population: QueryPopulation) -> float:
    """Procedure 3's total (Eq 34) by the explicit recursion."""
    selected = tuple(selected)
    memo: dict = {}
    total = 0.0
    for query, f in population:
        if f <= 0:
            continue
        total += f * _generation_cost(query, selected, memo)
    return total


def greedy_explicit(
    initial,
    population: QueryPopulation,
    storage_budget: float,
    candidates=None,
    remove_obsolete: bool = False,
) -> GreedyResult:
    """Algorithm 2 as stated: each stage prices every affordable candidate
    with a full Procedure 3 total and keeps the first strictly cheapest.

    Same parameters and result as
    :func:`repro.core.select_redundant.greedy_redundant_selection`.
    """
    selected = list(initial)
    if candidates is None:
        candidates = ViewElementGraph(population.shape).elements()
    pool = [c for c in candidates if c not in set(selected)]

    storage = sum(e.volume for e in selected)
    cost = explicit_total_cost(selected, population)
    stages = [GreedyStage(added=None, storage=storage, cost=cost)]

    while pool:
        if cost <= 0.0:
            break
        best_cost = cost
        best_idx = -1
        for idx, candidate in enumerate(pool):
            if storage + candidate.volume > storage_budget:
                continue
            trial = selected + [candidate]
            trial_cost = explicit_total_cost(trial, population)
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
            if explicit_total_cost(remaining, population) <= cost + 1e-9:
                removable.append(element)
        if not removable:
            return storage
        victim = max(removable, key=lambda e: e.volume)
        selected.remove(victim)
        storage -= victim.volume
    return storage


def assemble_recursive(
    target: ElementId,
    arrays: dict[ElementId, np.ndarray],
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Procedure 3 by recursion over the stored ``{element: values}``.

    Per element, the stored set's route: a stored read (by reference),
    one fused cascade down from the smallest stored ancestor (Eq 28), or
    the synthesis of its two children (Eq 32), each assembled by this same
    recursion.  Nothing from the batch planner or its executor is used;
    :class:`~repro.errors.IncompleteSetError` when the set cannot produce
    ``target``.
    """
    routes = route_table(target.shape, tuple(arrays), {})
    return _assemble(target, routes, arrays, counter)


def _assemble(
    target: ElementId,
    routes: RouteTable,
    arrays: dict[ElementId, np.ndarray],
    counter: OpCounter | None,
) -> np.ndarray:
    route = routes.route(target)
    if route.kind == "stored":
        return arrays[target]
    if route.kind == "aggregate":
        return fused_cascade(
            arrays[route.source],
            [(dim, residual) for dim, residual, _ in route.skeleton],
            counter=counter,
        )
    (_, _, p_child), (_, _, r_child) = route.skeleton
    p_values = _assemble(p_child, routes, arrays, counter)
    r_values = _assemble(r_child, routes, arrays, counter)
    return fused_synthesize(p_values, r_values, route.dim, counter=counter)


def delta_cell(
    element: ElementId, coordinates: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    """The one cell of ``element`` a cube-cell update touches, and its sign.

    Walks each dimension's operator cascade MSB-first: every step halves
    the coordinate; a residual step whose split leaves the coordinate in
    the odd half flips the sign (``R1``: ``out[p] = in[2p] - in[2p+1]``).
    """
    if len(coordinates) != element.shape.ndim:
        raise ValueError(
            f"{len(coordinates)} coordinates for a "
            f"{element.shape.ndim}-dimensional cube"
        )
    cell = []
    sign = 1.0
    for (level, index), coord in zip(element.nodes, coordinates):
        position = int(coord)
        for step in range(level):
            bit = (index >> (level - 1 - step)) & 1
            if bit and (position & 1):
                sign = -sign
            position >>= 1
        cell.append(position)
    return tuple(cell), sign


def _unknown(names) -> InvalidQueryError:
    """Unknown names, each listed once, ordered by ``repr``."""
    listed = sorted({repr(name) for name in names})
    return InvalidQueryError(f"unknown dimensions [{', '.join(listed)}]")


def resolve_view_explicit(cube, retained_dims) -> ElementId:
    """The aggregated view retaining ``retained_dims``: each name through
    ``axis_of``, the aggregated axes as a set, then
    :meth:`CubeShape.aggregated_view`."""
    if isinstance(retained_dims, (str, bytes)):
        names = None
    else:
        try:
            names = list(retained_dims)
        except TypeError:
            names = None
    if names is None:
        raise InvalidQueryError(
            "retained dimensions must be a collection of names, not "
            f"{type(retained_dims).__name__} {retained_dims!r}"
        )
    dims = cube.dimensions
    aggregated = set(range(len(dims)))
    unknown = []
    for name in names:
        try:
            aggregated.discard(dims.axis_of(name))
        except (KeyError, TypeError):
            unknown.append(name)
    if unknown:
        raise _unknown(unknown)
    return cube.shape_id.aggregated_view(aggregated)


def resolve_rollup_explicit(cube, levels) -> ElementId:
    """The roll-up element for ``levels``: per entry, in order, its axis
    through ``axis_of``, its depth through the hierarchy (a name) or
    :func:`as_index`, range-checked; unknown names refused last."""
    if not isinstance(levels, Mapping):
        raise InvalidQueryError(
            "roll-up levels must be a mapping of dimension names to levels, "
            f"not {type(levels).__name__} {levels!r}"
        )
    dims = cube.dimensions
    depths = cube.shape_id.depths
    resolved = [0] * len(depths)
    unknown = []
    for name, spec in levels.items():
        try:
            axis = dims.axis_of(name)
        except (KeyError, TypeError):
            unknown.append(name)
            continue
        if isinstance(spec, str):
            dim = dims[axis]
            if not isinstance(dim, HierarchicalDimension):
                raise InvalidQueryError(
                    f"dimension {name!r} has no hierarchy; "
                    "use an integer level"
                )
            try:
                k = dim.hierarchy.level_of(spec)
            except KeyError as unknown_level:
                raise InvalidQueryError(unknown_level.args[0]) from None
        else:
            k = as_index(spec, f"level of dimension {name!r}")
        if not 0 <= k <= depths[axis]:
            raise InvalidQueryError(
                f"level {k} outside [0, {depths[axis]}] for dimension {name!r}"
            )
        resolved[axis] = k
    if unknown:
        raise _unknown(unknown)
    return cube.shape_id.intermediate(tuple(resolved))


def smallest_warm_ancestor_explicit(
    target: ElementId, held: Mapping, cached: Mapping
):
    """The warm proper ancestor a miss of ``target`` derives from, by scan:
    every element of ``held`` (the range engine's) and ``cached`` (the
    result cache's), each ``{element: values}``, that contains ``target``
    and is not ``target``; the smallest volume wins, and equal volumes go
    to the lower slot (a held array before a cached one of the same slot).
    ``(ancestor, values)``, or ``None`` when nothing warm contains it."""
    best = None
    for element, values in [*held.items(), *cached.items()]:
        if element == target or not element.contains(target):
            continue
        rank = (element.volume, element.slot)
        if best is None or rank < best[0]:
            best = (rank, element, values)
    return None if best is None else best[1:]
