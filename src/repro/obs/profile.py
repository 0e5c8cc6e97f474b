"""Planned-vs-measured query profiles joined from trace spans.

The selection algorithms adapt the materialized basis to an *observed*
query population priced by the analytic cost model (Eqs 26-31): the
expected serving cost is a sum of per-element generation costs.  In a
production deployment the model's predictions should be *checked* against
what execution actually did — a persistent gap (quarantine re-routes,
degraded serves, cache effects the model does not price) is precisely the
signal that the configuration no longer matches reality and
:mod:`repro.core.adaptive` should reconfigure.

:func:`query_profile` reassembles that comparison from one trace: the DAG
executor's per-node spans carry each node's modeled cost
(``planned_cost``), its measured :class:`~repro.core.operators.OpCounter`
total (``operations``), and its wall time; the planner span carries the
whole batch's planned cost.  Every assembly — a single target is a batch
of one — runs through that executor.  The profile groups nodes per view
element and reports measured/planned divergence per node, per element,
and per query.  On the unfaulted path measured operation counts equal the
plan exactly — the executors preserve the paper's accounting — so any
nonzero divergence is real signal, not noise.
"""

from __future__ import annotations

from .reporting import ascii_table, format_ratio
from .tracing import Span, Tracer

__all__ = ["query_profile", "render_profile"]

#: The span of a costed work unit joinable against the model.
_NODE_SPAN = "exec.node"

#: Span names that can root a query profile (preferred first).
_ROOT_SPANS = (
    "server.query_batch",
    "server.query",
    "materialize.assemble_batch",
)


def _divergence(planned: float, measured: float) -> float:
    """Measured-over-planned ratio (1.0 = the model was exact).

    A planned cost of zero with measured work reports ``inf``; zero work
    against a zero plan is exact.
    """
    if planned > 0:
        return measured / planned
    return float("inf") if measured > 0 else 1.0


def query_profile(tracer: Tracer, trace_id: int | None = None) -> dict:
    """Join one trace's spans into a planned-vs-measured cost profile.

    ``trace_id`` defaults to the newest recorded trace.  Returns a
    JSON-friendly dict::

        {
          "trace_id": int,
          "root": {"name", "attributes", "wall_ms"} | None,
          "nodes": [
            {"element", "kind", "planned", "measured", "wall_ms",
             "divergence", "span_id", "thread_id", "process_id"},
            ...,
          ],
          "elements": {element: {"planned", "measured", "wall_ms",
                                 "nodes", "divergence"}},
          "totals": {"planned", "measured", "wall_ms", "divergence",
                     "nodes", "spans"},
        }

    ``nodes`` lists every costed work unit — the executor's DAG nodes,
    fused or not — in execution order.
    """
    spans = tracer.trace(trace_id)
    if not spans:
        return {
            "trace_id": trace_id,
            "root": None,
            "nodes": [],
            "elements": {},
            "totals": {
                "planned": 0,
                "measured": 0,
                "wall_ms": 0.0,
                "divergence": 1.0,
                "nodes": 0,
                "spans": 0,
            },
        }
    trace_id = spans[0].trace_id

    root: Span | None = None
    for name in _ROOT_SPANS:
        candidates = [s for s in spans if s.name == name]
        if candidates:
            root = candidates[0]
            break
    if root is None:
        root = min(spans, key=lambda s: s.start)

    nodes: list[dict] = []
    for s in spans:
        if s.name != _NODE_SPAN:
            continue
        attrs = s.attributes
        planned = attrs.get("planned_cost")
        measured = attrs.get("operations")
        if planned is None or measured is None:
            continue
        nodes.append(
            {
                "element": attrs.get("element", "?"),
                "kind": attrs.get("kind", "?"),
                "planned": int(planned),
                "measured": int(measured),
                "wall_ms": s.duration * 1e3,
                "divergence": _divergence(planned, measured),
                "span_id": s.span_id,
                "thread_id": s.thread_id,
                "process_id": s.process_id,
            }
        )

    elements: dict[str, dict] = {}
    for node in nodes:
        agg = elements.setdefault(
            node["element"],
            {"planned": 0, "measured": 0, "wall_ms": 0.0, "nodes": 0},
        )
        agg["planned"] += node["planned"]
        agg["measured"] += node["measured"]
        agg["wall_ms"] += node["wall_ms"]
        agg["nodes"] += 1
    for agg in elements.values():
        agg["divergence"] = _divergence(agg["planned"], agg["measured"])

    planned_total = sum(n["planned"] for n in nodes)
    measured_total = sum(n["measured"] for n in nodes)
    return {
        "trace_id": trace_id,
        "root": {
            "name": root.name,
            "attributes": dict(root.attributes),
            "wall_ms": root.duration * 1e3,
        },
        "nodes": nodes,
        "elements": elements,
        "totals": {
            "planned": planned_total,
            "measured": measured_total,
            "wall_ms": root.duration * 1e3,
            "divergence": _divergence(planned_total, measured_total),
            "nodes": len(nodes),
            "spans": len(spans),
        },
    }


def render_profile(profile: dict) -> str:
    """A query profile as aligned text tables (per element + totals)."""
    totals = profile["totals"]
    header = (
        f"trace {profile['trace_id']}"
        + (f" · {profile['root']['name']}" if profile["root"] else "")
        + f" · {totals['spans']} spans · {totals['nodes']} costed nodes"
    )
    sections = [header]
    if profile["elements"]:
        rows = [
            [
                element,
                agg["nodes"],
                agg["planned"],
                agg["measured"],
                format_ratio(agg["divergence"]),
                agg["wall_ms"],
            ]
            for element, agg in sorted(
                profile["elements"].items(),
                key=lambda kv: -kv[1]["wall_ms"],
            )
        ]
        sections.append(
            ascii_table(
                ["element", "nodes", "planned", "measured", "meas/plan", "wall_ms"],
                rows,
                title="planned vs measured, per view element",
            )
        )
    sections.append(
        ascii_table(
            ["planned", "measured", "meas/plan", "wall_ms"],
            [
                [
                    totals["planned"],
                    totals["measured"],
                    format_ratio(totals["divergence"]),
                    totals["wall_ms"],
                ]
            ],
            title="query totals",
        )
    )
    return "\n\n".join(sections)
