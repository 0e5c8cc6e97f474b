"""Reference implementations the test-suite compares the serving code against.

The planners' are the explicit-:class:`ElementId` forms the serving code
used before it moved to reduced states; :func:`assemble_recursive` is
Procedure 3 run as the recursion the paper states, one target at a time,
which the one executor (:mod:`repro.core.exec`) must match bit for bit;
:func:`delta_cell` is the scalar cascade walk
:class:`repro.core.delta.DeltaBatch` tabulates.  Kept here, and only here,
as oracles.
"""

from __future__ import annotations

import numpy as np

from repro.core.element import ElementId
from repro.core.kernels import fused_cascade, fused_synthesize
from repro.core.operators import OpCounter
from repro.core.planning import RouteTable, route_table

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
