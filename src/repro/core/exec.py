"""Shared-plan batch assembly: planner + DAG executor.

The paper's central idea is that views are *assembled* from shared view
elements — yet serving each query with an independent
:meth:`~repro.core.materialize.MaterializedSet.assemble` recursion recomputes
every common intermediate per query.  This module executes a *batch* of
targets as one shared DAG, the way Gray et al.'s cube operator computes the
``2^d`` group-bys in a single cascade instead of ``2^d`` scans:

- :func:`plan_batch` expands every target through the same Procedure 3
  routes that :func:`repro.core.planning.explain` prices (aggregation from
  the smallest stored ancestor, or perfect-reconstruction synthesis), but
  merges the per-target plan trees into one DAG with **common-subexpression
  elimination**: aggregation cascades are decomposed into single ``P1``/``R1``
  steps so that shared cascade prefixes (e.g. the partial-sum ancestors every
  roll-up of a hierarchy passes through) become one node each, and synthesis
  subtrees demanded by several targets are planned once.
- :func:`fuse_plan` rewrites the CSE'd DAG using the paper's distributivity
  property (Eqs 6-9): a maximal run of single-consumer ``P1``/``R1`` step
  nodes is mathematically one block reduction, so it collapses into a
  single ``"fused"`` node executed by
  :func:`repro.core.kernels.fused_cascade` — one kernel call instead of a
  chain of dispatches, with interior temporaries ping-ponged through the
  buffer pool.  Shared interiors (more than one consumer) and interiors
  that are themselves batch targets stay as explicit nodes, so CSE sharing
  and the result surface are unchanged; the fused node's modeled cost is
  exactly the sum of the absorbed steps' costs, keeping
  :class:`~repro.core.operators.OpCounter` accounting equal to the paper's
  analytic model.
- :func:`execute_plan` runs the DAG: nodes are refcounted by consumer so
  temporaries are freed after their last use — into a
  :class:`~repro.core.kernels.BufferPool`, so interior arrays are recycled
  as ``out=`` buffers instead of reallocated per node.  Dispatch is
  **cost-aware**: nodes below ``dispatch_threshold`` modeled operations run
  inline on the scheduler thread (a pool round-trip costs more than a tiny
  GIL-bound reduction saves), larger ready nodes run concurrently on a
  :class:`~concurrent.futures.ThreadPoolExecutor` (the Haar kernels are
  GIL-releasing numpy reductions) — and when *no* node clears the
  threshold the executor demotes the whole run to serial regardless of the
  requested worker count, recording the decision.  Those are the only two
  executors — a serial loop and the thread scheduler — and the choice
  between them is made from ``max_workers`` and the plan's modeled costs,
  never from an option.  Exact :class:`~repro.core.operators.OpCounter`
  accounting is preserved via per-node counters merged into the caller's
  counter as nodes complete.

**Bit-identity.**  Every DAG node's producing expression is exactly the one
sequential assembly would evaluate: the per-element route choice reuses
:func:`repro.core.planning.best_route` (aggregation wins ties), and a
decomposed cascade applies the same numpy operations in the same canonical
dimension-major order as ``MaterializedSet._descend``.  Cascade interiors are
only shared under an element's own key when that element's canonical route is
the same cascade; otherwise they live under a ``(source, element)`` chain key
so a differently-routed canonical node can coexist.  Batch results are
therefore bit-identical to per-target :meth:`assemble` calls.

**Cost accounting under CSE.**  Each node is priced once — a ``P1``/``R1``
step or a synthesis of volume ``v`` costs exactly ``v`` scalar operations,
matching the analytic model (Eqs 28/32) — so the planned total is simply the
sum of node volumes, and the executor's measured ops equal it exactly.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from collections.abc import Iterable, Mapping
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from ..errors import IncompleteSetError
from ..obs import current_registry, span, tracing_active
from ..resilience.deadline import check_deadline, current_deadline
from ..resilience.faults import fault_point
from .element import ElementId
from .kernels import POOL_MIN_CELLS, BufferPool, canonical_steps, fused_cascade
from .operators import OpCounter, partial_residual, partial_sum, synthesize
from .planning import best_route, sorted_by_volume
from .select_redundant import generation_cost, priced_states

__all__ = [
    "PlanNode",
    "BatchPlan",
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


@dataclass(frozen=True)
class PlanNode:
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


@dataclass
class BatchPlan:
    """A merged, CSE'd, topologically ordered batch-assembly DAG.

    ``nodes`` maps node keys to :class:`PlanNode` in a valid topological
    order (dependencies are always inserted before their consumers), so a
    serial executor can simply iterate it.
    """

    targets: tuple[ElementId, ...]
    nodes: dict[NodeKey, PlanNode]
    naive_cost: float  #: sum of per-target Procedure 3 costs (no sharing)
    cse_hits: int  #: times a demanded node already existed in the DAG
    consumers: dict[NodeKey, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        counts: dict[NodeKey, int] = {key: 0 for key in self.nodes}
        for node in self.nodes.values():
            for dep in node.deps:
                counts[dep] += 1
        self.consumers = counts

    @property
    def planned_cost(self) -> int:
        """Total scalar operations the DAG performs (each node priced once)."""
        return sum(node.cost for node in self.nodes.values())

    @property
    def shared_nodes(self) -> int:
        """Nodes feeding more than one consumer (the CSE payoff)."""
        return sum(1 for n in self.consumers.values() if n > 1)

    @property
    def cse_ratio(self) -> float:
        """Fraction of the naive (per-target) cost eliminated by sharing."""
        if self.naive_cost <= 0:
            return 0.0
        return 1.0 - self.planned_cost / self.naive_cost


# The canonical descent order (dimensions ascending, extra index bits
# most-significant first) lives in repro.core.kernels so the fused kernels,
# the planner, and MaterializedSet._descend all share one definition.
_canonical_steps = canonical_steps


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
    target_keys = set(plan.targets)
    absorbable: set[NodeKey] = set()
    for node in plan.nodes.values():
        if node.kind != "step":
            continue
        dep = node.deps[0]
        dep_node = plan.nodes[dep]
        if (
            dep_node.kind == "step"
            and plan.consumers[dep] == 1
            and dep not in target_keys
        ):
            absorbable.add(dep)

    nodes: dict[NodeKey, PlanNode] = {}
    for key, node in plan.nodes.items():
        if key in absorbable:
            continue
        if node.kind != "step":
            nodes[key] = node
            continue
        steps = [(node.dim, node.residual)]
        source = node.deps[0]
        while source in absorbable:
            interior = plan.nodes[source]
            steps.append((interior.dim, interior.residual))
            source = interior.deps[0]
        if len(steps) == 1:
            nodes[key] = node
        else:
            steps.reverse()
            nodes[key] = PlanNode(
                key=key,
                element=node.element,
                kind="fused",
                deps=(source,),
                steps=tuple(steps),
            )
    return BatchPlan(
        targets=plan.targets,
        nodes=nodes,
        naive_cost=plan.naive_cost,
        cse_hits=plan.cse_hits,
    )


def plan_batch(
    targets: Iterable[ElementId],
    stored: Iterable[ElementId],
    cost_memo: dict | None = None,
    fuse: bool = True,
) -> BatchPlan:
    """Merge the assembly plans of ``targets`` into one CSE'd DAG.

    ``stored`` is the materialized element set the plan reads from;
    ``cost_memo`` optionally reuses Procedure 3 generation costs across
    calls (e.g. across the batches of one serving epoch).  With ``fuse``
    (the default) the CSE'd DAG is rewritten by :func:`fuse_plan`, which
    collapses single-consumer step chains into fused cascade kernels —
    results and ``planned_cost`` are unchanged, only dispatch granularity.
    Raises :class:`ValueError` when the stored set cannot produce some
    target.
    """
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise ValueError("at least one target is required")
    stored = tuple(stored)
    stored_set = frozenset(stored)
    targets_set = frozenset(targets)
    sorted_stored = sorted_by_volume(stored)
    memo: dict = cost_memo if cost_memo is not None else {}

    shape = targets[0].shape
    for target in targets:
        if target.shape != shape:
            raise ValueError("batch targets belong to different cube shapes")

    nodes: dict[NodeKey, PlanNode] = {}
    cse_hits = 0
    naive_cost = 0.0
    route_memo: dict[ElementId, tuple] = {}

    def route(element: ElementId):
        cached = route_memo.get(element)
        if cached is None:
            cached = best_route(element, stored, sorted_stored, memo)
            route_memo[element] = cached
        return cached

    def smallest_ancestor(element: ElementId) -> ElementId | None:
        for s in sorted_stored:
            if s.contains(element):
                return s
        return None

    def ensure(element: ElementId) -> NodeKey:
        """Create (or reuse) the canonical node producing ``element``."""
        nonlocal cse_hits
        if element in nodes:
            cse_hits += 1
            return element
        if element in stored_set:
            nodes[element] = PlanNode(key=element, element=element, kind="stored")
            return element
        agg_source, agg_cost, synth_dim, synth_cost = route(element)
        if agg_source is not None and agg_cost <= synth_cost:
            _lay_chain(agg_source, element)
            return element
        if synth_dim < 0 or synth_cost == float("inf"):
            raise IncompleteSetError(
                f"stored set is not complete with respect to {element!r}"
            )
        p_key = ensure(element.partial_child(synth_dim))
        r_key = ensure(element.residual_child(synth_dim))
        nodes[element] = PlanNode(
            key=element,
            element=element,
            kind="synthesize",
            deps=(p_key, r_key),
            dim=synth_dim,
        )
        return element

    def _lay_chain(source: ElementId, element: ElementId) -> None:
        """Decompose the ``source -> element`` cascade into step nodes.

        Interior elements live under a ``("chain", source, element)`` key,
        shared between every cascade descending from the same source —
        except interiors that are themselves batch targets whose own
        canonical route is this very cascade (same smallest stored
        ancestor, aggregation winning per the already-priced Procedure 3
        memo): those are keyed by the element, so the target and the
        passing cascades all reuse one node.  Pricing only consults the
        memo — chain interiors sit *above* the targets, and running the
        full Procedure 3 recursion on them would explore descendant
        subtrees sequential assembly never prices.
        """
        nonlocal cse_hits
        prev_key: NodeKey = ensure(source)
        prev = source
        for dim, residual in _canonical_steps(source, element):
            nxt = prev.residual_child(dim) if residual else prev.partial_child(dim)
            if nxt == element:
                key: NodeKey = nxt
            elif nxt in targets_set:
                anc = smallest_ancestor(nxt)
                if anc == source and memo.get(nxt) == anc.volume - nxt.volume:
                    key = nxt
                else:
                    key = ("chain", source, nxt)
            else:
                key = ("chain", source, nxt)
            if key in nodes:
                cse_hits += 1
            else:
                nodes[key] = PlanNode(
                    key=key,
                    element=nxt,
                    kind="step",
                    deps=(prev_key,),
                    dim=dim,
                    residual=residual,
                )
            prev_key, prev = key, nxt

    with span("exec.plan", targets=len(targets)) as sp:
        start = time.perf_counter()
        states_before = priced_states(memo)
        # Price every target first (shared memo): naive cost, completeness,
        # and warm generation costs for the keying decisions in _lay_chain.
        for target in targets:
            cost = generation_cost(target, stored, _memo=memo)
            if cost == float("inf"):
                raise IncompleteSetError(
                    f"stored set is not complete with respect to {target!r}"
                )
            naive_cost += cost
        for target in targets:
            ensure(target)
        plan = BatchPlan(
            targets=tuple(targets),
            nodes=nodes,
            naive_cost=naive_cost,
            cse_hits=cse_hits,
        )
        unfused_nodes = len(plan.nodes)
        if fuse:
            plan = fuse_plan(plan)
        fused_nodes = sum(
            1 for node in plan.nodes.values() if node.kind == "fused"
        )
        plan_ms = (time.perf_counter() - start) * 1e3
        registry = current_registry()
        registry.counter("batch_plans_total", "batch assembly plans built").inc()
        registry.histogram(
            "batch_dag_nodes", "DAG nodes per batch plan"
        ).observe(len(nodes))
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


def _compute_node(
    node: PlanNode,
    deps: tuple[np.ndarray, ...],
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    pool: BufferPool | None = None,
) -> np.ndarray:
    """Compute one DAG node, drawing output buffers from the pool.

    The chaos fault site fires exactly once per non-stored node — a fused
    cascade is *one* node, so fusing a chain replaces its per-step site
    visits with a single visit, keeping seeded fault schedules a pure
    function of the (deterministic) fused plan shape.
    """
    if node.kind == "stored":
        return arrays[node.element]
    fault_point("exec.compute_node", element=node.element, kind=node.kind)
    if node.kind == "fused":
        return fused_cascade(deps[0], node.steps, counter=counter, pool=pool)
    if node.kind == "step":
        out = (
            pool.take(node.element.data_shape, deps[0].dtype)
            if pool is not None
            else None
        )
        if node.residual:
            return partial_residual(deps[0], node.dim, counter=counter, out=out)
        return partial_sum(deps[0], node.dim, counter=counter, out=out)
    out = (
        pool.take(node.element.data_shape, np.float64)
        if pool is not None
        else None
    )
    return synthesize(deps[0], deps[1], node.dim, counter=counter, out=out)


def _run_node(
    node: PlanNode,
    deps: tuple[np.ndarray, ...],
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    buf_pool: BufferPool,
) -> np.ndarray:
    """Compute one node, wrapped in an ``exec.node`` span when tracing.

    The span carries the planned-vs-measured join keys the query profiler
    reads (``planned_cost`` from the model, ``operations`` from the
    counter delta) plus the thread the node actually ran on.  The
    :func:`tracing_active` guard keeps the untraced path at one contextvar
    read — no attribute strings, no counter delta.
    """
    if node.kind == "stored" or not tracing_active():
        return _compute_node(node, deps, arrays, counter, buf_pool)
    with span(
        "exec.node",
        element=node.element.describe(),
        kind=node.kind,
        planned_cost=node.cost,
    ) as sp:
        before = counter.total
        out = _compute_node(node, deps, arrays, counter, buf_pool)
        sp.set(operations=counter.total - before)
    return out


def execute_plan(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter | None = None,
    max_workers: int = 1,
    *,
    dispatch_threshold: int | None = None,
    pool: BufferPool | None = None,
    stats: dict | None = None,
    span_attrs: dict | None = None,
    tuning=None,
) -> dict[ElementId, np.ndarray]:
    """Run a :class:`BatchPlan` against the stored ``arrays``.

    ``tuning`` (a :class:`repro.tuning.TuningConfig`) supplies the default
    dispatch threshold and the executor pool's floor/bound when
    the explicit arguments are ``None``; without it the module constants
    apply, so existing call sites are byte-for-byte unchanged.

    ``span_attrs`` adds caller attributes to the ``exec.execute`` span —
    the shard layer tags each scatter leg with its shard index so one
    ``query_batch`` trace shows per-shard execution lanes.

    Returns ``{target: values}``.  Parallelism is **cost-aware**: a node is
    dispatched to a worker only when its modeled cost reaches
    ``dispatch_threshold`` (default :data:`DISPATCH_THRESHOLD`) scalar
    operations — smaller nodes run inline on the scheduler thread, where a
    tiny numpy reduction is cheaper than a pool round-trip.  When *no*
    node clears the threshold, a ``max_workers > 1`` request is demoted to
    serial execution outright (the measured fix for the thread pool losing
    to one worker on small cubes); the decision is recorded on the span,
    in the metrics registry, and in ``stats`` when a dict is supplied.

    Non-target temporaries are freed as soon as their last consumer has
    run — into ``pool`` (a fresh :class:`BufferPool` when none is given),
    so later nodes reuse them as ``out=`` buffers instead of allocating.
    Stored targets are returned by reference, exactly like
    :meth:`MaterializedSet.assemble` (treat results as read-only).
    """
    own = counter if counter is not None else OpCounter()
    target_keys = set(plan.targets)
    if dispatch_threshold is None:
        dispatch_threshold = (
            DISPATCH_THRESHOLD if tuning is None else tuning.dispatch_threshold
        )
    threshold = dispatch_threshold
    if pool is None:
        pool = (
            BufferPool(min_cells=POOL_MIN_CELLS)
            if tuning is None
            else BufferPool(
                max_cells=tuning.pool_max_cells,
                min_cells=tuning.pool_min_cells,
            )
        )
    largest = max((node.cost for node in plan.nodes.values()), default=0)
    requested = max_workers
    demoted = False
    if max_workers > 1 and largest < threshold:
        max_workers = 1
        demoted = True
    with span(
        "exec.execute",
        nodes=len(plan.nodes),
        workers=max_workers,
        **(span_attrs or {}),
    ) as sp:
        start = time.perf_counter()
        if max_workers <= 1:
            values, busy = _execute_serial(
                plan, arrays, own, target_keys, pool
            )
        else:
            values, busy = _execute_pooled(
                plan, arrays, own, target_keys, max_workers, pool, threshold
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
        ).inc(len(plan.nodes))
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
            stats["buffer_pool"] = pool.stats()
        sp.set(
            operations=own.total,
            exec_ms=wall * 1e3,
            pool_utilization=round(utilization, 4),
            **decision,
        )
    return {target: values[target] for target in plan.targets}


def _execute_serial(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    target_keys: set,
    buf_pool: BufferPool,
) -> tuple[dict[NodeKey, np.ndarray], float]:
    values: dict[NodeKey, np.ndarray] = {}
    remaining = dict(plan.consumers)
    busy = 0.0
    for key, node in plan.nodes.items():
        check_deadline("exec.serial")
        deps = tuple(values[d] for d in node.deps)
        t0 = time.perf_counter()
        values[key] = _run_node(node, deps, arrays, counter, buf_pool)
        busy += time.perf_counter() - t0
        for dep in node.deps:
            remaining[dep] -= 1
            if remaining[dep] == 0 and dep not in target_keys:
                # A freed interior is a fresh, single-owner buffer (stored
                # reads are aliases into ``arrays`` and never freed), so it
                # can back a later node's ``out=``.
                if plan.nodes[dep].kind != "stored":
                    buf_pool.give(values.pop(dep))
    return values, busy


def _execute_pooled(
    plan: BatchPlan,
    arrays: Mapping[ElementId, np.ndarray],
    counter: OpCounter,
    target_keys: set,
    max_workers: int,
    buf_pool: BufferPool,
    threshold: int,
) -> tuple[dict[NodeKey, np.ndarray], float]:
    """Scheduler loop: all bookkeeping on the calling thread, work on the
    pool.  Each node gets its own :class:`OpCounter`, merged on completion,
    so accounting stays exact without cross-thread contention.

    Dispatch is cost-aware: only nodes whose modeled cost reaches
    ``threshold`` go to the pool; smaller ready nodes run inline on the
    scheduler thread, where the reduction is cheaper than the round-trip.

    Failure discipline: on a worker exception (or an expired ambient
    deadline, observed between dispatches), outstanding futures are
    cancelled, the already-running ones are drained, and the counters of
    every node that *did* complete are merged before re-raising — the pool
    never leaks work past the batch, and accounting reflects exactly the
    work performed."""
    values: dict[NodeKey, np.ndarray] = {}
    remaining = dict(plan.consumers)
    pending_deps = {key: len(node.deps) for key, node in plan.nodes.items()}
    dependents: dict[NodeKey, list[NodeKey]] = {key: [] for key in plan.nodes}
    for key, node in plan.nodes.items():
        for dep in node.deps:
            dependents[dep].append(key)
    ready = deque(key for key, n in pending_deps.items() if n == 0)
    busy = 0.0
    deadline = current_deadline()

    def complete(key: NodeKey, out, local: OpCounter, elapsed: float) -> None:
        nonlocal busy
        values[key] = out
        busy += elapsed
        counter.merge(local)
        for dep in plan.nodes[key].deps:
            remaining[dep] -= 1
            if remaining[dep] == 0 and dep not in target_keys:
                # Safe to recycle: every consumer has finished, so no
                # worker can still be reading the buffer.
                if plan.nodes[dep].kind != "stored":
                    buf_pool.give(values.pop(dep))
        for consumer in dependents[key]:
            pending_deps[consumer] -= 1
            if pending_deps[consumer] == 0:
                ready.append(consumer)

    def work(key: NodeKey):
        node = plan.nodes[key]
        deps = tuple(values[d] for d in node.deps)
        local = OpCounter()
        t0 = time.perf_counter()
        try:
            out = _run_node(node, deps, arrays, local, buf_pool)
        except BaseException as exc:
            # Keep the partial counter reachable for the drain path.
            exc.partial_counter = local  # type: ignore[attr-defined]
            raise
        return key, out, local, time.perf_counter() - t0

    futures: set = set()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        try:
            while ready or futures:
                check_deadline("exec.dispatch")
                while ready:
                    key = ready.popleft()
                    if plan.nodes[key].cost < threshold:
                        # Inline: completing here may ready more nodes,
                        # which this same loop then drains.
                        try:
                            complete(*work(key))
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
                            contextvars.copy_context().run, work, key
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
                        key, out, local, elapsed = future.result()
                    except BaseException as exc:
                        partial = getattr(exc, "partial_counter", None)
                        if partial is not None:
                            counter.merge(partial)
                        if failure is None:
                            failure = exc
                        continue
                    complete(key, out, local, elapsed)
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
                    _, _, local, elapsed = future.result()
                    busy += elapsed
                    counter.merge(local)
                else:
                    partial = getattr(exc, "partial_counter", None)
                    if partial is not None:
                        counter.merge(partial)
            raise
    return values, busy

