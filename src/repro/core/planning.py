"""EXPLAIN-style assembly plans for view element generation (Procedure 3).

The cost numbers of the selection algorithms answer "how much"; this module
answers "how": given a stored element set and a target, :func:`explain`
produces the cheapest generation plan as an explicit tree —

- ``stored`` leaves (zero cost),
- ``aggregate`` nodes (cascade down from a stored ancestor, Eq 28),
- ``synthesize`` nodes (perfect reconstruction from two child plans,
  Eq 32) —

mirroring exactly the routes Procedure 3 prices and
:meth:`~repro.core.materialize.MaterializedSet.assemble` executes.  The
rendered plan is the debugging/observability surface a production system
would expose as ``EXPLAIN``.

"Exactly" is by construction: the choice between the options is made in
one place, once per element per stored set — :class:`RouteTable`, kept in
the cost memo beside the prices — and sequential assembly, the batch
planner (:mod:`repro.core.exec`) and :func:`explain` all read the
:class:`Route` it resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ..errors import IncompleteSetError
from .element import CubeShape, ElementId
from .kernels import canonical_steps
from .select_redundant import generation_cost, validated_pricer

__all__ = [
    "AssemblyPlan",
    "Route",
    "RouteTable",
    "best_route",
    "explain",
    "render_plan",
    "route_table",
]


@dataclass(frozen=True)
class AssemblyPlan:
    """One node of an assembly plan tree."""

    target: ElementId
    kind: str  # "stored" | "aggregate" | "synthesize"
    cost: float
    source: ElementId | None = None  # for "aggregate"
    dim: int | None = None  # for "synthesize"
    children: tuple["AssemblyPlan", ...] = ()

    @cached_property
    def total_cost(self) -> float:
        """Cost of this node plus all descendants."""
        return self.cost + sum(child.total_cost for child in self.children)

    def walk(self):
        """Yield every plan node, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


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
    wins ties, matching :meth:`MaterializedSet._assemble` exactly — every
    plan consumer must use the same rule so that plans, batch DAGs, and
    direct assembly compute bit-identical arrays.
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


def explain(
    target: ElementId, selected: tuple[ElementId, ...] | list[ElementId]
) -> AssemblyPlan:
    """Build the cheapest generation plan for ``target`` from ``selected``.

    Raises :class:`ValueError` when the selection cannot produce the target
    (i.e. Procedure 3 prices it at infinity).
    """
    try:
        return _plan(target, route_table(target.shape, tuple(selected), {}))
    except IncompleteSetError:
        raise ValueError(f"selection cannot generate {target!r}") from None


def _plan(target: ElementId, table: RouteTable) -> AssemblyPlan:
    route = table.route(target)
    if route.kind == "stored":
        return AssemblyPlan(target=target, kind="stored", cost=0.0)
    if route.kind == "aggregate":
        return AssemblyPlan(
            target=target,
            kind="aggregate",
            cost=float(route.cost),
            source=route.source,
        )
    return AssemblyPlan(
        target=target,
        kind="synthesize",
        cost=float(target.volume),
        dim=route.dim,
        children=tuple(_plan(child, table) for _, _, child in route.skeleton),
    )


def render_plan(plan: AssemblyPlan, indent: str = "") -> str:
    """Pretty-print a plan tree, EXPLAIN style."""
    target = plan.target.describe() or "."
    if plan.kind == "stored":
        line = f"{indent}read {target}  [stored, 0 ops]"
    elif plan.kind == "aggregate":
        source = plan.source.describe() or "."
        line = (
            f"{indent}aggregate {target} from {source}  "
            f"[{plan.cost:.0f} ops]"
        )
    else:
        line = (
            f"{indent}synthesize {target} along dim {plan.dim}  "
            f"[{plan.cost:.0f} ops + children]"
        )
    lines = [line]
    for child in plan.children:
        lines.append(render_plan(child, indent + "  "))
    return "\n".join(lines)
