"""Dynamic adaptation of the materialized element set (the paper's title).

Section 5 of the paper notes that the view-access frequencies "can be
observed on-line, allowing the system to dynamically reconfigure".  This
module supplies that closed loop:

- :class:`AccessTracker` maintains exponentially decayed access counts per
  view, yielding a :class:`~repro.core.population.QueryPopulation` estimate.
- :class:`DynamicViewAssembler` serves aggregated views from a
  :class:`~repro.core.materialize.MaterializedSet`, records each access, and
  periodically re-runs the selection algorithms (Algorithm 1, optionally
  followed by Algorithm 2 under a storage budget) to re-materialize the set
  that is optimal for the *observed* workload.

Reconfiguration reuses the current materialized set to compute the new
elements (via :meth:`MaterializedSet.assemble`), so migration cost is itself
governed by the view-element machinery rather than a fresh cube scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import current_registry, span
from .element import CubeShape, ElementId
from .materialize import MaterializedSet
from .operators import OpCounter
from .population import QueryPopulation
from .select_redundant import check_storage_budget, reselect

__all__ = [
    "AccessTracker",
    "CostModelMonitor",
    "ReconfigurationRecord",
    "DynamicViewAssembler",
]


class AccessTracker:
    """Exponentially decayed view-access frequencies.

    Each recorded access adds one unit of weight to the accessed view after
    multiplying all existing weights by ``decay`` — recent accesses dominate,
    so workload drift shows up quickly.

    The decay is applied to one global scale instead of to every weight:
    the true weight of a view is ``stored * scale``, an access shrinks the
    scale and adds ``1 / scale`` to one entry, so :meth:`record` is O(1)
    however many views are tracked.  When the scale underflows
    :data:`_MIN_SCALE` it is folded back into the entries, and views whose
    weight has fallen below :data:`_DROP_SHARE` of the total are forgotten.
    """

    #: Renormalise once the scale leaves ``[_MIN_SCALE, 1]``; stored weights
    #: stay far inside the float range (``1 / scale <= 1e100``).
    _MIN_SCALE = 1e-100
    #: Share of the total weight below which renormalisation drops a view.
    _DROP_SHARE = 1e-12

    def __init__(self, decay: float = 0.99):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self._weights: dict[ElementId, float] = {}
        self._scale = 1.0
        self.total_accesses = 0

    def record(self, view: ElementId) -> None:
        """Record one access to ``view``."""
        self._scale *= self.decay
        self._weights[view] = self._weights.get(view, 0.0) + 1.0 / self._scale
        self.total_accesses += 1
        if self._scale < self._MIN_SCALE:
            self._renormalise()

    def _renormalise(self) -> None:
        floor = sum(self._weights.values()) * self._DROP_SHARE
        self._weights = {
            view: weight * self._scale
            for view, weight in self._weights.items()
            if weight >= floor
        }
        self._scale = 1.0

    def weights(self) -> dict[ElementId, float]:
        """A copy of the current decayed weight of every tracked view."""
        scale = self._scale
        return {view: w * scale for view, w in self._weights.items()}

    def population(
        self, smoothing: float = 0.0, universe: list[ElementId] | None = None
    ) -> QueryPopulation:
        """Current frequency estimate as a :class:`QueryPopulation`.

        ``smoothing`` adds a uniform pseudo-weight to every view in
        ``universe`` (defaults to the observed views), so never-observed
        views keep a small positive frequency.
        """
        if not self._weights and not universe:
            raise ValueError("no accesses recorded and no universe given")
        views = list(universe) if universe else list(self._weights)
        scale = self._scale
        pairs = [
            (v, self._weights.get(v, 0.0) * scale + smoothing) for v in views
        ]
        positive = [(v, w) for v, w in pairs if w > 0]
        if not positive:
            raise ValueError("all frequencies are zero; record accesses first")
        return QueryPopulation.from_pairs(positive)


class CostModelMonitor:
    """Tracks measured-vs-planned divergence from query profiles.

    The selection algorithms adapt the basis to the *observed population*
    weighted by the *analytic cost model* (Eqs 26-31).  That loop has a
    blind spot: the model prices the configuration as selected, not as it
    currently behaves — quarantined elements re-route assemblies, degraded
    serves fall back to the base cube, and both make real queries cost more
    than Eq 26 predicts.  This monitor closes the blind spot with the
    telemetry layer's planned-vs-measured profiles
    (:func:`repro.obs.profile.query_profile`): feed it one profile per
    traced query (:meth:`ingest`), and :meth:`should_reconfigure` reports
    when the decayed mean divergence has drifted past ``tolerance`` — the
    measured signal that the stored configuration no longer matches the
    model and a re-selection (Algorithm 1/2) is due.

    On the unfaulted path the executors' operation accounting equals the
    plan exactly, so the divergence sits at 1.0 and never triggers; only
    genuine re-routing moves it.
    """

    def __init__(self, tolerance: float = 0.25, decay: float = 0.9):
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.tolerance = tolerance
        self.decay = decay
        self.profiles_ingested = 0
        self._mean_divergence: float | None = None

    def record(self, planned: float, measured: float) -> None:
        """Fold one planned/measured pair into the decayed mean."""
        if planned <= 0:
            return
        divergence = measured / planned
        if self._mean_divergence is None:
            self._mean_divergence = divergence
        else:
            self._mean_divergence = (
                self.decay * self._mean_divergence
                + (1.0 - self.decay) * divergence
            )

    def ingest(self, profile: dict) -> None:
        """Fold one query profile (``repro.obs.profile`` shape) in."""
        totals = profile.get("totals", {})
        if totals.get("nodes", 0) == 0:
            return
        self.profiles_ingested += 1
        self.record(totals.get("planned", 0), totals.get("measured", 0))
        current_registry().gauge(
            "cost_model_mean_divergence",
            "decayed mean of measured/planned operations (1.0 = exact)",
        ).set(self.divergence)

    @property
    def divergence(self) -> float:
        """Decayed mean measured/planned ratio (1.0 before any data)."""
        return (
            self._mean_divergence if self._mean_divergence is not None else 1.0
        )

    def should_reconfigure(self) -> bool:
        """Whether divergence has drifted beyond ``tolerance``."""
        return abs(self.divergence - 1.0) > self.tolerance

    def observe(self, profile: dict) -> "CostModelMonitor | None":
        """Ingest ``profile``; once it trips, the monitor to judge by next.

        ``None`` while the divergence is within ``tolerance``.  Past it, a
        fresh monitor with the same tolerance and decay: the caller
        re-selects and then swaps it in, so the evidence about the
        superseded configuration cannot re-trip the new one.
        """
        self.ingest(profile)
        if not self.should_reconfigure():
            return None
        return CostModelMonitor(tolerance=self.tolerance, decay=self.decay)


@dataclass(frozen=True)
class ReconfigurationRecord:
    """One reconfiguration event of :class:`DynamicViewAssembler`."""

    at_access: int
    elements: tuple[ElementId, ...]
    expected_cost: float
    migration_operations: int
    storage: int


@dataclass
class _ServiceStats:
    queries_served: int = 0
    operations: int = 0

    def snapshot(self) -> tuple[int, int]:
        """``(queries served, total operations)`` so far."""
        return self.queries_served, self.operations


class DynamicViewAssembler:
    """Serves views from an adaptively re-selected view element set.

    Parameters
    ----------
    cube_values:
        The raw data cube (kept only for initial materialization; later
        reconfigurations assemble from the current set).
    shape:
        Cube shape.
    storage_budget:
        Optional cell budget; when larger than ``Vol(A)``, Algorithm 2 adds
        redundant elements after Algorithm 1 picks the basis.  NaN or
        negative is a :class:`ValueError`.
    reconfigure_every:
        Re-run selection after this many recorded accesses (at least 1).
    decay:
        Forgetting factor of the access tracker.
    """

    def __init__(
        self,
        cube_values: np.ndarray,
        shape: CubeShape,
        storage_budget: int | None = None,
        reconfigure_every: int = 64,
        decay: float = 0.98,
    ):
        cube_values = np.asarray(cube_values, dtype=np.float64)
        if cube_values.shape != shape.sizes:
            raise ValueError(
                f"cube data shape {cube_values.shape} does not match {shape.sizes}"
            )
        check_storage_budget(storage_budget)
        if reconfigure_every < 1:
            raise ValueError(
                "reconfigure_every must be at least 1, "
                f"got {reconfigure_every!r}"
            )
        self.shape = shape
        self.storage_budget = storage_budget
        self.reconfigure_every = reconfigure_every
        self.tracker = AccessTracker(decay=decay)
        self.stats = _ServiceStats()
        self.history: list[ReconfigurationRecord] = []
        #: Measured-vs-planned feedback (fed by :meth:`observe_profile`).
        self.cost_monitor = CostModelMonitor()
        # Start from the trivial basis: the cube itself.
        self.materialized = MaterializedSet(shape)
        self.materialized.store(shape.root(), cube_values)
        self._since_reconfigure = 0

    # ------------------------------------------------------------------

    def query(self, view: ElementId) -> np.ndarray:
        """Serve one aggregated view (or any element), tracking the access."""
        with span("adaptive.query", element=view.describe()) as sp:
            counter = OpCounter()
            values = self.materialized.assemble(view, counter=counter)
            self.stats.queries_served += 1
            self.stats.operations += counter.total
            current_registry().counter(
                "adaptive_queries_total", "queries served by the assembler"
            ).inc()
            sp.set(operations=counter.total)
            self.tracker.record(view)
            self._since_reconfigure += 1
            if self._since_reconfigure >= self.reconfigure_every:
                self.reconfigure()
        return values

    def query_view(self, aggregated_dims) -> np.ndarray:
        """Serve the aggregated view over ``aggregated_dims``."""
        return self.query(self.shape.aggregated_view(aggregated_dims))

    def observe_profile(self, profile: dict) -> ReconfigurationRecord | None:
        """Feed one planned-vs-measured query profile into the adapt loop.

        Ingests the profile into :attr:`cost_monitor`; when the decayed
        divergence has drifted past the monitor's tolerance — execution is
        systematically costing more (or less) than the model that chose
        the current basis — a reconfiguration is triggered immediately
        instead of waiting out ``reconfigure_every``.  Returns the
        :class:`ReconfigurationRecord` when one was triggered.
        """
        fresh = self.cost_monitor.observe(profile)
        if fresh is None:
            return None
        record = self.reconfigure()
        self.cost_monitor = fresh
        return record

    # ------------------------------------------------------------------

    def reconfigure(self) -> ReconfigurationRecord:
        """Re-select and re-materialize for the observed workload."""
        with span("adaptive.reconfigure") as sp:
            record = self._reconfigure()
            current_registry().counter(
                "adaptive_reconfigurations_total",
                "dynamic re-selections performed",
            ).inc()
            sp.set(
                operations=record.migration_operations,
                expected_cost=record.expected_cost,
                storage=record.storage,
            )
        return record

    def _reconfigure(self) -> ReconfigurationRecord:
        elements, expected, _ = reselect(
            self.shape, self.tracker.population(), self.storage_budget
        )
        migration = OpCounter()
        new_set = MaterializedSet(self.shape)
        for element in sorted(set(elements), key=lambda e: e.depth):
            new_set.store(
                element, self.materialized.assemble(element, counter=migration)
            )
        self.materialized = new_set
        self._since_reconfigure = 0
        record = ReconfigurationRecord(
            at_access=self.tracker.total_accesses,
            elements=tuple(new_set.elements),
            expected_cost=float(expected),
            migration_operations=migration.total,
            storage=new_set.storage,
        )
        self.history.append(record)
        return record

    # ------------------------------------------------------------------

    @property
    def average_operations_per_query(self) -> float:
        """Mean assembly operations per served query so far."""
        if not self.stats.queries_served:
            return 0.0
        return self.stats.operations / self.stats.queries_served
