"""Shared-plan batch assembly: route table -> compiled program -> two drivers.

The paper's central idea is that views are *assembled* from shared view
elements — yet serving each query with an independent
:meth:`~repro.core.materialize.MaterializedSet.assemble` recursion recomputes
every common intermediate per query.  This module executes a *batch* of
targets as one shared DAG, the way Gray et al.'s cube operator computes the
``2^d`` group-bys in a single cascade instead of ``2^d`` scans.  Work is
done at the granularity at which it repeats:

- **Per element, once per stored set** — the Procedure 3 route (stored /
  aggregate from the smallest stored ancestor / synthesize) is resolved by
  :class:`repro.core.planning.RouteTable`, kept in the cost memo beside
  the prices it was resolved from.
- **Per target set, once** — :func:`plan_batch` merges the targets' routes
  into one DAG with **common-subexpression elimination**: aggregation
  cascades are decomposed into single ``P1``/``R1`` steps so that shared
  cascade prefixes (e.g. the partial-sum ancestors every roll-up of a
  hierarchy passes through) become one node each, and synthesis subtrees
  demanded by several targets are planned once.  The merge only reads
  routes; it never prices or walks the element graph.  :func:`fuse_plan`
  then rewrites the CSE'd DAG using the paper's distributivity property
  (Eqs 6-9): a maximal run of single-consumer ``P1``/``R1`` step nodes is
  mathematically one block reduction, so it collapses into a single
  ``"fused"`` node executed by :func:`repro.core.kernels.fused_cascade` —
  one kernel call instead of a chain of dispatches, each interior freed
  once the next step has read it.  Shared interiors
  (more than one consumer) and interiors that are themselves batch targets
  stay as explicit nodes, so CSE sharing and the result surface are
  unchanged; the fused node's modeled cost is exactly the sum of the
  absorbed steps' costs, keeping
  :class:`~repro.core.operators.OpCounter` accounting equal to the paper's
  analytic model.  Constructing the :class:`BatchPlan` compiles the DAG
  into a flat **program**: one :class:`Instruction` per node with its
  slots, kernel arguments, release list, cost and span attributes, plus
  the totals and scheduler tables a run needs.  :class:`PlanCache` keeps
  the result — per element for single targets, least-recently-used for
  target sets.
- **Per run** — :func:`execute_plan` drives the program over a list of
  slots.  A temporary's slot is cleared after its last reader has run, so
  the array goes back to the allocator at once (the pinned glibc heap of
  :func:`~repro.core.kernels.pin_allocator_thresholds` keeps it resident
  for the next node's output).  Dispatch is
  **cost-aware**: nodes below :data:`DISPATCH_THRESHOLD` modeled operations
  run inline on the scheduler thread (a pool round-trip costs more than a
  tiny GIL-bound reduction saves), larger ready nodes run concurrently on a
  :class:`~concurrent.futures.ThreadPoolExecutor` (the Haar kernels are
  GIL-releasing numpy reductions) — and when *no* node clears the
  threshold the executor demotes the whole run to serial regardless of the
  requested worker count, recording the decision.  Those are the only two
  drivers — a serial loop and the thread scheduler, over the same program
  — and the choice between them is made from ``max_workers`` and the
  plan's modeled costs, never from an option.  Exact
  :class:`~repro.core.operators.OpCounter` accounting is preserved via
  per-node counters merged into the caller's counter as nodes complete.

**Bit-identity.**  Every DAG node's producing expression is exactly the one
sequential assembly would evaluate: both read the same
:class:`~repro.core.planning.Route` (aggregation wins ties), and a
decomposed cascade applies the same numpy operations in the same canonical
dimension-major order as ``MaterializedSet._assemble``.  Cascade interiors
are only shared under an element's own key when that element's canonical
route is the same cascade; otherwise they live under a ``(source, element)``
chain key so a differently-routed canonical node can coexist.  Batch results
are therefore bit-identical to per-target :meth:`assemble` calls.

**Cost accounting under CSE.**  Each node is priced once — a ``P1``/``R1``
step or a synthesis of volume ``v`` costs exactly ``v`` scalar operations,
matching the analytic model (Eqs 28/32) — so the planned total is simply the
sum of node volumes, and the executor's measured ops equal it exactly.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Iterable, Mapping
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import IncompleteSetError
from ..obs import current_registry, current_tracer, span
from ..resilience.deadline import check_deadline, current_deadline
from ..resilience.faults import fault_point
from .element import ElementId
from .kernels import fused_cascade
from .operators import OpCounter, partial_residual, partial_sum, synthesize
from .planning import route_table
from .select_redundant import priced_states

__all__ = [
    "PlanNode",
    "Instruction",
    "BatchPlan",
    "PlanCache",
    "plan_batch",
    "fuse_plan",
    "execute_plan",
    "DISPATCH_THRESHOLD",
]

#: Modeled scalar operations below which a node runs inline rather than on
#: a pool worker: dispatching a tiny GIL-bound numpy reduction to a thread
#: costs more in scheduling than the reduction itself (the measured source
#: of the 1-worker-beats-4-workers regression on small cubes).
DISPATCH_THRESHOLD = 1 << 16

#: Node key: the element itself for canonical nodes, or
#: ``("chain", source, element)`` for cascade interiors whose element's own
#: canonical route differs from the cascade producing them.
NodeKey = object


class PlanNode(NamedTuple):
    """One node of a merged batch-assembly DAG.

    ``kind`` is ``"stored"`` (zero-cost read of a materialized array),
    ``"step"`` (one ``P1``/``R1`` application to the single dependency),
    ``"fused"`` (a whole ``P1``/``R1`` cascade collapsed into one kernel
    call by :func:`fuse_plan` — ``steps`` lists the ``(dim, residual?)``
    sequence), or ``"synthesize"`` (perfect reconstruction from the two
    child nodes).
    """

    key: NodeKey
    element: ElementId
    kind: str  # "stored" | "step" | "fused" | "synthesize"
    deps: tuple[NodeKey, ...] = ()
    dim: int | None = None  # for "step" / "synthesize"
    residual: bool = False  # for "step": R1 rather than P1
    steps: tuple[tuple[int, bool], ...] = ()  # for "fused"

    @property
    def cost(self) -> int:
        """Modeled scalar operations of this node (0 for stored reads).

        A fused cascade's cost telescopes exactly: every step halves the
        volume, so a k-step chain ending at volume ``v`` performs
        ``v * 2**k - v`` scalar operations — the sum of the per-step costs
        the unfused DAG would have charged (Eq 28).
        """
        if self.kind == "stored":
            return 0
        if self.kind == "fused":
            return (self.element.volume << len(self.steps)) - self.element.volume
        return self.element.volume


class Instruction(NamedTuple):
    """One :class:`PlanNode` as the executors run it.

    Slots index the list of arrays a run keeps — one per node, in DAG
    order, so ``out`` is also the instruction's position in the program.
    """

    op: str  #: the node's ``kind``
    out: int
    inputs: tuple[int, ...]
    #: ``stored``: the element to read; ``step``: ``(dim, residual?)``;
    #: ``fused``: the step sequence; ``synthesize``: the dimension.
    arg: object
    #: Recyclable slots nothing later in program order reads.
    release: tuple[int, ...]
    cost: int
    element: ElementId
    #: ``exec.node`` span attributes (``None`` for a stored read).
    attrs: dict | None


#: A DAG as the planner hands it to :class:`BatchPlan`: per node, in
#: topological order, the node and the slots (positions) of its
#: dependencies — what ``PlanNode.deps`` says by key, already resolved.
Rows = list[tuple[PlanNode, tuple[int, ...]]]


@dataclass
class BatchPlan:
    """A merged, CSE'd, topologically ordered batch-assembly DAG, compiled.

    ``nodes`` maps node keys to :class:`PlanNode` in a valid topological
    order (dependencies are always inserted before their consumers).  That
    dict is what planning, fusion and EXPLAIN-style consumers read; the
    executors never touch it.  Construction compiles it, once, into
    ``program`` — an :class:`Instruction` per node, in the same order —
    and into the totals and the scheduler tables every run would otherwise
    re-derive: a plan is built once and run many times.  (``rows`` is the
    planner's shortcut: it already knows every dependency's slot.)
    """

    targets: tuple[ElementId, ...]
    nodes: dict[NodeKey, PlanNode]
    naive_cost: float  #: sum of per-target Procedure 3 costs (no sharing)
    cse_hits: int  #: times a demanded node already existed in the DAG
    rows: InitVar[Rows | None] = None
    program: tuple[Instruction, ...] = field(init=False)
    #: Total scalar operations the DAG performs (each node priced once).
    planned_cost: int = field(init=False)
    largest_cost: int = field(init=False)
    #: The stored elements the plan reads — what makes it valid for a set.
    stored_reads: tuple[ElementId, ...] = field(init=False)
    target_slots: tuple[int, ...] = field(init=False)
    #: Thread scheduler: per slot, the instructions waiting on it, how many
    #: inputs each instruction waits for, and how many readers must finish
    #: before the slot is recycled (0: never — a stored alias or a target).
    dependents: tuple[tuple[int, ...], ...] = field(init=False)
    pending: tuple[int, ...] = field(init=False)
    refcounts: tuple[int, ...] = field(init=False)

    def __post_init__(self, rows: Rows | None) -> None:
        slot_of = {key: slot for slot, key in enumerate(self.nodes)}
        if rows is None:
            rows = [
                (node, tuple([slot_of[dep] for dep in node.deps]))
                for node in self.nodes.values()
            ]
        self.target_slots = tuple([slot_of[t] for t in self.targets])
        size = len(rows)
        readers: list[list[int]] = [[] for _ in range(size)]
        for slot, (_, inputs) in enumerate(rows):
            for dep in inputs:
                readers[dep].append(slot)
        # Refcount per slot; 0 pins it (a target is published, a stored
        # read aliases storage: neither is ever recycled).
        refcounts = [len(slots) for slots in readers]
        for slot in self.target_slots:
            refcounts[slot] = 0
        release: list[list[int]] = [[] for _ in range(size)]
        program = []
        stored_reads = []
        total = largest = 0
        for slot, (node, inputs) in enumerate(rows):
            kind, element = node.kind, node.element
            if kind == "stored":
                refcounts[slot] = 0
                stored_reads.append(element)
                program.append(
                    Instruction(kind, slot, inputs, element, (), 0, element, None)
                )
                continue
            if refcounts[slot]:
                # Readers come later in program order, so the list this
                # joins is still open when its instruction is built.
                release[readers[slot][-1]].append(slot)
            cost = node.cost
            total += cost
            if cost > largest:
                largest = cost
            if kind == "fused":
                arg = node.steps
            elif kind == "step":
                arg = (node.dim, node.residual)
            else:
                arg = node.dim
            attrs = {
                "element": element.describe(),
                "kind": kind,
                "planned_cost": cost,
            }
            program.append(
                Instruction(
                    kind, slot, inputs, arg, tuple(release[slot]), cost,
                    element, attrs,
                )
            )
        self.program = tuple(program)
        self.planned_cost = total
        self.largest_cost = largest
        self.stored_reads = tuple(stored_reads)
        self.dependents = tuple(map(tuple, readers))
        self.pending = tuple([len(inputs) for _, inputs in rows])
        self.refcounts = tuple(refcounts)

    @property
    def cse_ratio(self) -> float:
        """Fraction of the naive (per-target) cost eliminated by sharing."""
        if self.naive_cost <= 0:
            return 0.0
        return 1.0 - self.planned_cost / self.naive_cost


def fuse_plan(plan: BatchPlan) -> BatchPlan:
    """Collapse single-consumer step chains into fused cascade nodes.

    The rewrite exploits distributivity (Eqs 6-9): a run of ``P1``/``R1``
    step nodes where every interior feeds exactly one consumer — and is not
    itself a batch target — is one block reduction, so it becomes a single
    ``"fused"`` node carrying the step sequence.  Interiors with several
    consumers (the CSE payoff) and target interiors keep their own nodes:
    fusion never changes which arrays the DAG publishes, which work is
    shared, or the total modeled cost (``planned_cost`` is invariant —
    the fused node's cost telescopes to the absorbed steps' sum).
    """
    rows = [
        (node, ins.inputs) for node, ins in zip(plan.nodes.values(), plan.program)
    ]
    return _fused(
        plan.targets, rows, plan.target_slots, plan.naive_cost, plan.cse_hits
    )


def _fused(targets, rows: Rows, target_slots, naive_cost, cse_hits) -> BatchPlan:
    """:func:`fuse_plan` on the planner's rows: slots, not key lookups."""
    size = len(rows)
    counts = [0] * size
    for _, inputs in rows:
        for dep in inputs:
            counts[dep] += 1
    for slot in target_slots:
        counts[slot] = 0  # a published interior is never absorbed
    kept = [True] * size  # False: absorbed into the cascade that reads it
    for node, inputs in rows:
        if node.kind == "step":
            dep = inputs[0]
            if counts[dep] == 1 and rows[dep][0].kind == "step":
                kept[dep] = False
    fused: Rows = []
    moved = [0] * size  # slot before fusion -> slot after
    for slot, (node, inputs) in enumerate(rows):
        if not kept[slot]:
            continue
        if node.kind == "step" and not kept[inputs[0]]:
            steps = [(node.dim, node.residual)]
            source = inputs[0]
            while not kept[source]:
                interior, inputs = rows[source]
                steps.append((interior.dim, interior.residual))
                source = inputs[0]
            steps.reverse()
            node = PlanNode(
                node.key,
                node.element,
                "fused",
                (rows[source][0].key,),
                steps=tuple(steps),
            )
            inputs = (source,)
        moved[slot] = len(fused)
        fused.append((node, tuple([moved[dep] for dep in inputs])))
    return BatchPlan(
        targets=targets,
        nodes={node.key: node for node, _ in fused},
        naive_cost=naive_cost,
        cse_hits=cse_hits,
        rows=fused,
    )


def plan_batch(
    targets: Iterable[ElementId],
    stored: Iterable[ElementId],
    cost_memo: dict | None = None,
    fuse: bool = True,
) -> BatchPlan:
    """Merge the assembly plans of ``targets`` into one CSE'd DAG.

    ``stored`` is the materialized element set the plan reads from;
    ``cost_memo`` carries the Procedure 3 prices and the route table of
    that set across calls (e.g. across the batches of one serving epoch):
    with it, planning a target set never seen before is a merge of routes
    already resolved, one dict lookup per element.  With ``fuse`` (the
    default) the CSE'd DAG is rewritten as by :func:`fuse_plan`, which
    collapses single-consumer step chains into fused cascade kernels —
    results and ``planned_cost`` are unchanged, only dispatch granularity.
    Raises :class:`ValueError` when the stored set cannot produce some
    target.
    """
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise ValueError("at least one target is required")
    shape = targets[0].shape
    for target in targets:
        if target.shape != shape:
            raise ValueError("batch targets belong to different cube shapes")
    stored = stored if isinstance(stored, tuple) else tuple(stored)
    memo: dict = cost_memo if cost_memo is not None else {}

    slot_of: dict[NodeKey, int] = {}
    rows: Rows = []
    cse_hits = 0

    def add(node: PlanNode, inputs: tuple[int, ...]) -> int:
        slot = slot_of[node.key] = len(rows)
        rows.append((node, inputs))
        return slot

    def ensure(element: ElementId) -> int:
        """The slot of the canonical node producing ``element``."""
        nonlocal cse_hits
        slot = slot_of.get(element)
        if slot is not None:
            cse_hits += 1
            return slot
        route = table.route(element)
        if route.kind == "stored":
            return add(PlanNode(element, element, "stored"), ())
        if route.kind == "synthesize":
            (dim, _, partial), (_, _, residual) = route.skeleton
            inputs = (ensure(partial), ensure(residual))
            return add(
                PlanNode(element, element, "synthesize", (partial, residual), dim),
                inputs,
            )
        # Lay the ``source -> element`` cascade down as step nodes.
        # Interior elements live under a ``("chain", source, element)``
        # key, shared between every cascade descending from the same
        # source — except interiors that are themselves batch targets
        # whose own canonical route is this very cascade: those are keyed
        # by the element, so the target and the passing cascades all reuse
        # one node.  (``source`` is the smallest stored ancestor of
        # everything on the cascade, so "routed by aggregation" already
        # means "by this cascade".)
        source = prev_key = route.source
        prev = ensure(source)
        last = route.skeleton[-1][2]
        for dim, residual, nxt in route.skeleton:
            key: NodeKey = (
                nxt
                if nxt is last or (cascaded and nxt in cascaded)
                else ("chain", source, nxt)
            )
            # One hash per step: a key not seen yet takes the next slot.
            slot = slot_of.setdefault(key, len(rows))
            if slot == len(rows):
                node = PlanNode(key, nxt, "step", (prev_key,), dim, residual)
                rows.append((node, (prev,)))
            else:
                cse_hits += 1
            prev, prev_key = slot, key
        return prev

    with span("exec.plan", targets=len(targets)) as sp:
        start = time.perf_counter()
        table = route_table(shape, stored, memo)
        states_before = priced_states(memo)
        # Route every target first: naive cost, completeness, and which
        # targets a passing cascade may publish under their own key.
        routes = [table.route(target) for target in targets]
        naive_cost = sum([route.cost for route in routes], 0.0)
        cascaded = {
            target
            for target, route in zip(targets, routes)
            if route.kind == "aggregate"
        }
        target_slots = [ensure(target) for target in targets]
        unfused_nodes = len(rows)
        if fuse:
            plan = _fused(tuple(targets), rows, target_slots, naive_cost, cse_hits)
        else:
            plan = BatchPlan(
                targets=tuple(targets),
                nodes={node.key: node for node, _ in rows},
                naive_cost=naive_cost,
                cse_hits=cse_hits,
                rows=rows,
            )
        fused_nodes = sum([1 for ins in plan.program if ins.op == "fused"])
        plan_ms = (time.perf_counter() - start) * 1e3
        registry = current_registry()
        registry.counter("batch_plans_total", "batch assembly plans built").inc()
        registry.histogram(
            "batch_dag_nodes", "DAG nodes per batch plan (after fusion)"
        ).observe(len(plan.nodes))
        registry.histogram(
            "batch_cse_ratio", "fraction of naive cost eliminated by sharing"
        ).observe(plan.cse_ratio)
        registry.histogram(
            "batch_plan_ms", "wall milliseconds spent planning a batch"
        ).observe(plan_ms)
        if fuse:
            registry.histogram(
                "batch_fused_nodes", "fused cascade nodes per batch plan"
            ).observe(fused_nodes)
        sp.set(
            nodes=len(plan.nodes),
            unfused_nodes=unfused_nodes,
            fused_nodes=fused_nodes,
            planned_cost=plan.planned_cost,
            naive_cost=naive_cost,
            cse_hits=cse_hits,
            cse_ratio=round(plan.cse_ratio, 4),
            plan_ms=plan_ms,
            priced_states=max(0, priced_states(memo) - states_before),
        )
    return plan


class PlanCache:
    """The compiled plans a stored set keeps, so a plan is built once.

    Traffic repeats per *element* far more than per target set, so the two
    are kept apart: the plan of a single target lives in the route table
    of the stored set (one per element ever asked for, dropped with the
    routes), and only multi-target sets compete for the ``entries`` slots
    of this cache, the least recently used one leaving first.
    """

    def __init__(self, entries: int):
        self.entries = max(1, int(entries))
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def plan(
        self,
        targets: tuple[ElementId, ...],
        stored: tuple[ElementId, ...],
        cost_memo: dict,
        key=None,
    ) -> BatchPlan | None:
        """The plan of the distinct ``targets`` against ``stored``.

        ``None`` when ``stored`` cannot produce them — a verdict kept like
        a plan.  ``key`` names the target set among the cache's users
        (default: the targets themselves).  A cached plan is only returned
        while every element it reads is still in ``stored``.
        """
        table = route_table(targets[0].shape, stored, cost_memo)
        if len(targets) == 1:
            plan = table.plans.get(targets[0], _UNPLANNED)
            if plan is _UNPLANNED:
                plan = table.plans[targets[0]] = _plan_or_none(
                    targets, stored, cost_memo
                )
            return plan
        if key is None:
            key = targets
        with self._lock:
            plan = self._plans.get(key, _UNPLANNED)
            if plan is not _UNPLANNED:
                self._plans.move_to_end(key)
        if plan is _UNPLANNED or not (
            plan is None or table.stored.issuperset(plan.stored_reads)
        ):
            plan = _plan_or_none(targets, stored, cost_memo)
            with self._lock:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self.entries:
                    self._plans.popitem(last=False)
        return plan


_UNPLANNED = object()


def _plan_or_none(targets, stored, cost_memo) -> BatchPlan | None:
    try:
        return plan_batch(targets, stored, cost_memo)
    except IncompleteSetError:
        return None


def _compute_node(
    ins: Instruction,
    slots: list,
    counter: OpCounter,
    dst: np.ndarray | None,
) -> np.ndarray:
    """Compute one non-stored instruction, into ``dst`` when it can.

    The chaos fault site fires exactly once per non-stored node — a fused
    cascade is *one* node, so fusing a chain replaces its per-step site
    visits with a single visit, keeping seeded fault schedules a pure
    function of the (deterministic) fused plan shape.  Kernels are looked
    up in this module at call time, so a wrapper patched over one of them
    sees every call.
    """
    fault_point("exec.compute_node", element=ins.element, kind=ins.op)
    op = ins.op
    values = slots[ins.inputs[0]]
    if op == "fused":
        return fused_cascade(values, ins.arg, counter=counter, out=dst)
    if op == "step":
        dim, residual = ins.arg
        if residual:
            return partial_residual(values, dim, counter=counter, out=dst)
        return partial_sum(values, dim, counter=counter, out=dst)
    if dst is not None and not dst.flags.c_contiguous:
        dst = None  # synthesis writes C-order; the caller copies it in
    return synthesize(
        values, slots[ins.inputs[1]], ins.arg, counter=counter, out=dst
    )


def _run_node(
    ins: Instruction,
    slots: list,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    tracer,
) -> np.ndarray:
    """Run one instruction, inside an ``exec.node`` span when tracing.

    The span carries the planned-vs-measured join keys the query profiler
    reads (``planned_cost`` from the model, ``operations`` from the
    counter delta) plus the thread the node actually ran on.  Its
    attributes were built with the plan; untraced (``tracer`` is
    ``None``), a node costs no attribute strings and no counter delta.

    A slot already holding an ``out`` view keeps it; a result that is not
    that view is copied in.
    """
    dst = slots[ins.out]
    if ins.op == "stored":
        values = arrays[ins.arg]
    elif tracer is None:
        values = _compute_node(ins, slots, counter, dst)
    else:
        with tracer.span("exec.node", **ins.attrs) as sp:
            before = counter.total
            values = _compute_node(ins, slots, counter, dst)
            sp.set(operations=counter.total - before)
    if dst is None or values is dst:
        return values
    np.copyto(dst, values)
    return dst


def execute_plan(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter | None = None,
    max_workers: int = 1,
    *,
    dispatch_threshold: int | None = None,
    stats: dict | None = None,
    span_attrs: dict | None = None,
    out: Mapping[ElementId, np.ndarray] | None = None,
) -> dict[ElementId, np.ndarray]:
    """Run a :class:`BatchPlan` against the stored ``arrays``.

    ``span_attrs`` adds caller attributes to the ``exec.execute`` span —
    the shard layer tags each scatter leg with its shard index so one
    ``query_batch`` trace shows per-shard execution lanes.

    ``out`` maps targets to writable views (a shard leg's slabs of the
    gathered buffers): a target's last kernel writes into its view; a stored
    read, or a synthesis into a strided view, is ``np.copyto``'d in.

    Returns ``{target: values}``.  Parallelism is **cost-aware**: a node is
    dispatched to a worker only when its modeled cost reaches
    ``dispatch_threshold`` (default :data:`DISPATCH_THRESHOLD`, read when
    the call is made) scalar operations — smaller nodes run inline on the
    scheduler thread, where a tiny numpy reduction is cheaper than a pool
    round-trip.  When *no*
    node clears the threshold, a ``max_workers > 1`` request is demoted to
    serial execution outright (the measured fix for the thread pool losing
    to one worker on small cubes); the decision is recorded on the span,
    in the metrics registry, and in ``stats`` when a dict is supplied.

    Non-target temporaries are freed as soon as their last consumer has
    run: the run drops its only reference, and the allocator reuses the
    memory for later nodes.  Other stored targets are returned by
    reference, exactly like :meth:`MaterializedSet.assemble` (treat
    results as read-only).
    """
    own = counter if counter is not None else OpCounter()
    threshold = (
        DISPATCH_THRESHOLD if dispatch_threshold is None else dispatch_threshold
    )
    slots: list = [None] * len(plan.program)
    if out:
        for target, slot in zip(plan.targets, plan.target_slots):
            slots[slot] = out.get(target)
    largest = plan.largest_cost
    requested = max_workers
    demoted = False
    if max_workers > 1 and largest < threshold:
        max_workers = 1
        demoted = True
    with span(
        "exec.execute",
        nodes=len(plan.program),
        workers=max_workers,
        **(span_attrs or {}),
    ) as sp:
        start = time.perf_counter()
        if max_workers <= 1:
            busy = _execute_serial(plan, arrays, own, slots)
        else:
            busy = _execute_pooled(
                plan, arrays, own, max_workers, threshold, slots
            )
        wall = time.perf_counter() - start
        utilization = (
            busy / (wall * max(1, max_workers)) if wall > 0 else 0.0
        )
        registry = current_registry()
        registry.counter(
            "batch_executions_total", "batch DAG executions"
        ).inc()
        registry.counter(
            "batch_nodes_executed_total", "DAG nodes executed across batches"
        ).inc(len(plan.program))
        if demoted:
            registry.counter(
                "exec_pool_demotions_total",
                "pooled executions demoted to serial by the cost model",
            ).inc()
        registry.histogram(
            "batch_exec_ms", "wall milliseconds per batch execution"
        ).observe(wall * 1e3)
        registry.histogram(
            "batch_pool_utilization",
            "busy worker-seconds over wall-seconds x workers",
        ).observe(utilization)
        decision = {
            "workers_requested": requested,
            "workers_effective": max_workers,
            "demoted": demoted,
            "dispatch_threshold": threshold,
            "largest_node_cost": largest,
        }
        if stats is not None:
            stats.update(decision)
        sp.set(
            operations=own.total,
            exec_ms=wall * 1e3,
            pool_utilization=round(utilization, 4),
            **decision,
        )
    return {
        target: slots[slot]
        for target, slot in zip(plan.targets, plan.target_slots)
    }


def _execute_serial(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    slots: list,
) -> float:
    """The program, top to bottom, on the calling thread, into ``slots``."""
    tracer = current_tracer()
    busy = 0.0
    for ins in plan.program:
        check_deadline("exec.serial")
        t0 = time.perf_counter()
        slots[ins.out] = _run_node(ins, slots, arrays, counter, tracer)
        busy += time.perf_counter() - t0
        for slot in ins.release:
            # The run's only reference to a released interior: clearing it
            # frees the array before the next node allocates.
            slots[slot] = None
    return busy


def _execute_pooled(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    max_workers: int,
    threshold: int,
    slots: list,
) -> float:
    """Scheduler loop: all bookkeeping on the calling thread, work on the
    pool.  Each node gets its own :class:`OpCounter`, merged on completion,
    so accounting stays exact without cross-thread contention.

    The same program as :func:`_execute_serial`, run in completion order:
    what is ready comes from the plan's ``pending`` / ``dependents``
    tables, and a slot is cleared when its ``refcounts`` entry runs out
    rather than at a fixed instruction.

    Dispatch is cost-aware: only nodes whose modeled cost reaches
    ``threshold`` go to the pool; smaller ready nodes run inline on the
    scheduler thread, where the reduction is cheaper than the round-trip.

    Failure discipline: on a worker exception (or an expired ambient
    deadline, observed between dispatches), outstanding futures are
    cancelled, the already-running ones are drained, and the counters of
    every node that *did* complete are merged before re-raising — the pool
    never leaks work past the batch, and accounting reflects exactly the
    work performed."""
    program, dependents = plan.program, plan.dependents
    remaining = list(plan.refcounts)
    pending = list(plan.pending)
    ready = deque(slot for slot, n in enumerate(pending) if n == 0)
    # Workers run under a copy of this context, so they see this tracer.
    tracer = current_tracer()
    busy = 0.0
    deadline = current_deadline()

    def complete(slot: int, local: OpCounter, elapsed: float) -> None:
        nonlocal busy
        busy += elapsed
        counter.merge(local)
        for dep in program[slot].inputs:
            remaining[dep] -= 1
            if remaining[dep] == 0:
                # Every consumer has finished, so no worker can still be
                # reading the buffer: drop the run's reference.
                slots[dep] = None
        for consumer in dependents[slot]:
            pending[consumer] -= 1
            if pending[consumer] == 0:
                ready.append(consumer)

    def work(slot: int):
        # The node fills its own slot, so no future's result holds an
        # array past the release in ``complete``.
        local = OpCounter()
        t0 = time.perf_counter()
        try:
            slots[slot] = _run_node(program[slot], slots, arrays, local, tracer)
        except BaseException as exc:
            # Keep the partial counter reachable for the drain path.
            exc.partial_counter = local  # type: ignore[attr-defined]
            raise
        return slot, local, time.perf_counter() - t0

    futures: set = set()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        try:
            while ready or futures:
                check_deadline("exec.dispatch")
                while ready:
                    slot = ready.popleft()
                    if program[slot].cost < threshold:
                        # Inline: completing here may ready more nodes,
                        # which this same loop then drains.
                        try:
                            complete(*work(slot))
                        except BaseException as exc:
                            partial = getattr(exc, "partial_counter", None)
                            if partial is not None:
                                counter.merge(partial)
                            raise
                        continue
                    # Pool threads do not inherit contextvars; hand each
                    # node a copy of the dispatcher's context so ambient
                    # state (metrics registry, fault injector) reaches the
                    # worker.  A Context can only be entered once, hence
                    # one copy per submission.
                    futures.add(
                        pool.submit(
                            contextvars.copy_context().run, work, slot
                        )
                    )
                if not futures:
                    continue
                timeout = (
                    max(0.0, deadline.remaining())
                    if deadline is not None
                    else None
                )
                done, futures = wait(
                    futures, timeout=timeout, return_when=FIRST_COMPLETED
                )
                failure: BaseException | None = None
                for future in done:
                    try:
                        slot, local, elapsed = future.result()
                    except BaseException as exc:
                        partial = getattr(exc, "partial_counter", None)
                        if partial is not None:
                            counter.merge(partial)
                        if failure is None:
                            failure = exc
                        continue
                    complete(slot, local, elapsed)
                if failure is not None:
                    raise failure
        except BaseException:
            for future in futures:
                future.cancel()
            settled, _ = wait(futures)
            for future in settled:
                if future.cancelled():
                    continue
                exc = future.exception()
                if exc is None:
                    _, local, elapsed = future.result()
                    busy += elapsed
                    counter.merge(local)
                else:
                    partial = getattr(exc, "partial_counter", None)
                    if partial is not None:
                        counter.merge(partial)
            raise
    return busy
