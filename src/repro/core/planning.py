"""Procedure 3 routes: how each view element is produced from a stored set.

The cost numbers of the selection algorithms answer "how much"; this module
answers "how": per element, whether it is

- ``stored`` (a zero-cost read),
- ``aggregate`` (cascaded down from the smallest stored ancestor, Eq 28),
- ``synthesize`` (perfect reconstruction from two children, Eq 32).

The choice between the options is made in one place, once per element per
stored set — :class:`RouteTable`, kept in the cost memo beside the prices —
and the batch planner (:mod:`repro.core.exec`), which every assembly and
:func:`~repro.core.exec.explain` run through, reads the :class:`Route` it
resolved.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import IncompleteSetError
from .element import CubeShape, ElementId
from .kernels import canonical_steps
from .select_redundant import generation_cost, validated_pricer

__all__ = ["Route", "RouteTable", "best_route", "route_table"]


def sorted_by_volume(selected) -> list[ElementId]:
    """Stored elements ascending by volume, ties in original order.

    Scanning this list and stopping at the first hit finds the same best
    aggregation source as a full min-scan of ``selected`` (the sort is
    stable, so equal-volume ties resolve to the earlier element either way)
    without rescanning every stored element per plan node.
    """
    return sorted(selected, key=lambda e: e.volume)


def best_route(
    target: ElementId,
    selected: tuple[ElementId, ...],
    sorted_selected: list[ElementId],
    memo: dict,
) -> tuple[ElementId | None, float, int, float]:
    """Price Procedure 3's two options for ``target``.

    Returns ``(agg_source, agg_cost, synth_dim, synth_cost)`` — the smallest
    selected ancestor and its Eq 28 aggregation cost (``None``/``inf`` when
    no ancestor is selected), and the cheapest synthesis dimension with its
    Eq 32 cost (``-1``/``inf`` when the target is terminal).  Aggregation
    wins ties — the one rule every route is resolved by, so a plan of any
    target set computes the arrays assembling each target alone would.
    """
    agg_cost = float("inf")
    agg_source: ElementId | None = None
    for s in sorted_selected:
        if s.contains(target):
            agg_source = s
            agg_cost = float(s.volume - target.volume)
            break

    synth_cost = float("inf")
    synth_dim = -1
    for dim in target.splittable_dims():
        p_cost = generation_cost(target.partial_child(dim), selected, _memo=memo)
        r_cost = generation_cost(target.residual_child(dim), selected, _memo=memo)
        candidate = target.volume + p_cost + r_cost
        if candidate < synth_cost:
            synth_cost = candidate
            synth_dim = dim
    return agg_source, agg_cost, synth_dim, synth_cost


class Route(NamedTuple):
    """The resolved Procedure 3 route of one element against one stored set.

    ``kind`` is ``"stored"`` (a zero-cost read), ``"aggregate"`` (cascade
    down from ``source``, the smallest stored ancestor) or ``"synthesize"``
    (perfect reconstruction along ``dim``).  ``skeleton`` spells the route
    out as ``(dim, residual?, child)`` triples: for an aggregation the
    canonical cascade from ``source``, one triple per ``P1``/``R1`` step
    with the element that step produces (the last one is the routed
    element itself); for a synthesis the two children, partial first.
    ``cost`` is ``T(element)``, the whole generation cost.
    """

    kind: str
    cost: float
    source: ElementId | None = None
    dim: int = -1
    skeleton: tuple[tuple[int, bool, ElementId], ...] = ()


#: Key under which a cost memo carries its :class:`RouteTable`, beside the
#: prices the routes were resolved from (``clear()`` drops both).
_ROUTES = "route-table"


class RouteTable:
    """Every route resolved so far against one stored set.

    Which way an element is produced depends only on the stored element
    ids, so it is decided once per element — one :func:`best_route` call,
    one walk down the cascade — and every later plan that needs the
    element, alone or merged with others, reads the answer back.
    ``plans`` is the batch executor's: the compiled single-target plan of
    an element lives and dies with the route it was compiled from.
    """

    __slots__ = ("selected", "stored", "by_volume", "routes", "plans", "_memo")

    def __init__(self, selected: tuple[ElementId, ...], memo: dict):
        self.selected = selected
        self.stored = frozenset(selected)
        self.by_volume = sorted_by_volume(selected)
        self.routes: dict[ElementId, Route] = {}
        self.plans: dict = {}
        self._memo = memo

    def route(self, element: ElementId) -> Route:
        """The route of ``element``; :class:`IncompleteSetError` if none."""
        route = self.routes.get(element)
        if route is None:
            route = self.routes[element] = self._resolve(element)
        return route

    def _resolve(self, element: ElementId) -> Route:
        cost = generation_cost(element, self.selected, _memo=self._memo)
        if cost == float("inf"):
            raise IncompleteSetError(
                f"stored set is not complete with respect to {element!r}"
            )
        if element in self.stored:
            return Route("stored", cost)
        source, agg_cost, dim, synth_cost = best_route(
            element, self.selected, self.by_volume, self._memo
        )
        if source is not None and agg_cost <= synth_cost:
            skeleton = []
            child = source
            for step_dim, residual in canonical_steps(source, element):
                child = (
                    child.residual_child(step_dim)
                    if residual
                    else child.partial_child(step_dim)
                )
                skeleton.append((step_dim, residual, child))
            return Route("aggregate", cost, source, skeleton=tuple(skeleton))
        return Route(
            "synthesize",
            cost,
            dim=dim,
            skeleton=(
                (dim, False, element.partial_child(dim)),
                (dim, True, element.residual_child(dim)),
            ),
        )


def route_table(
    shape: CubeShape, selected: tuple[ElementId, ...], memo: dict
) -> RouteTable:
    """The route table ``memo`` carries for ``selected``.

    Validated the way :func:`generation_cost` validates the prices: a memo
    filled for another selection starts over, table included.
    """
    pricer = validated_pricer(memo, shape, selected)
    table = memo.get(_ROUTES)
    if table is None:
        table = memo[_ROUTES] = RouteTable(pricer.selected, memo)
    return table
