"""Dynamic adaptation of the materialized element set (the paper's title).

Section 5 of the paper notes that the view-access frequencies "can be
observed on-line, allowing the system to dynamically reconfigure".  This
module supplies the two signals that loop reads:

- :class:`AccessTracker` maintains exponentially decayed access counts per
  view, yielding a :class:`~repro.core.population.QueryPopulation` estimate.
- :class:`CostModelMonitor` folds planned-vs-measured query profiles into a
  decayed divergence and says when it has left the tolerance band.

:class:`~repro.server.OLAPServer` owns both and is the one class that
re-selects: :meth:`~repro.server.OLAPServer.reconfigure` re-runs the
selection algorithms for the tracked workload, and
:meth:`~repro.server.OLAPServer.observe_profile` does so when the monitor
trips.
"""

from __future__ import annotations

from ..obs import current_registry
from .element import ElementId
from .population import QueryPopulation

__all__ = ["AccessTracker", "CostModelMonitor"]

#: How far the decayed measured/planned ratio may stray from 1.0 before
#: :class:`CostModelMonitor` trips, and the weight its mean keeps per
#: profile.
TOLERANCE = 0.25
DECAY = 0.9


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

    An owner that defers its records (the server logs one record per
    served call) sets ``_pre_read`` to its fold: every reader —
    :meth:`weights`, :meth:`population`, :attr:`total_accesses` — runs it
    first.
    """

    #: Run before every read (``None``: records are never deferred).
    _pre_read = None

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
        self._accesses = 0

    def _before_read(self) -> None:
        if self._pre_read is not None:
            self._pre_read()

    @property
    def total_accesses(self) -> int:
        """Accesses recorded so far."""
        self._before_read()
        return self._accesses

    def record(self, view: ElementId) -> None:
        """Record one access to ``view``."""
        self.record_many((view,))

    def record_many(self, views) -> None:
        """Record one access to each of ``views``, in order.

        Each access shrinks the scale and adds ``1 / scale`` to its view's
        running weight, the same float operations in the same order as one
        access at a time; the running weights are held per view object, so
        each distinct view is looked up and stored once, not per access.
        """
        decay, scale, weights = self.decay, self._scale, self._weights
        slots: dict[int, list] = {}  # id(view) -> [view, running weight]
        running: dict = {}  # view -> the same slot (equal views share it)
        accesses = 0
        for view in views:
            slot = slots.get(id(view))
            if slot is None:
                slot = running.get(view)
                if slot is None:
                    slot = running[view] = [view, weights.get(view, 0.0)]
                slots[id(view)] = slot
            scale *= decay
            slot[1] += 1.0 / scale
            accesses += 1
            if scale < self._MIN_SCALE:
                weights.update(running.values())
                self._scale, self._accesses = scale, self._accesses + accesses
                self._renormalise()
                scale, weights = self._scale, self._weights
                slots, running, accesses = {}, {}, 0
        weights.update(running.values())
        self._scale, self._accesses = scale, self._accesses + accesses

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
        self._before_read()
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
        self._before_read()
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
    when the decayed mean divergence (weight :data:`DECAY` per profile)
    has drifted past :data:`TOLERANCE` — the measured signal that the
    stored configuration no longer matches the model and a re-selection
    (Algorithm 1/2) is due.

    On the unfaulted path the executors' operation accounting equals the
    plan exactly, so the divergence sits at 1.0 and never triggers; only
    genuine re-routing moves it.
    """

    def __init__(self):
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
                DECAY * self._mean_divergence + (1.0 - DECAY) * divergence
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
        """Whether divergence has drifted beyond :data:`TOLERANCE`.

        A caller that re-selects on ``True`` starts a fresh monitor, so the
        evidence about the superseded configuration cannot re-trip the new
        one.
        """
        return abs(self.divergence - 1.0) > TOLERANCE
