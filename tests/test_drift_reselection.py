"""The CostModelMonitor -> re-selection loop under synthetic drift.

:meth:`OLAPServer.observe_profile` closes the feedback loop between
measured execution and the paper's dynamic re-selection: planned-vs-measured
profiles feed the server's :class:`~repro.core.adaptive.CostModelMonitor`,
and a tripped monitor calls ``server.reconfigure()``.  These tests drive
the loop with a
deterministic synthetic drift — a phase of model-exact profiles followed
by a hot-key shift that makes every query cost 1.5x its plan — and pin
down the contract: exactly one re-selection, at the analytically
predictable batch, with the epoch bumped, the divergence following the
decayed-mean law, and the loop converging (never re-tripping) once the
new configuration matches the model again.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import adaptive
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer

TOLERANCE = adaptive.TOLERANCE
DECAY = adaptive.DECAY
#: Divergence the drifted profiles report: measured = 1.5x planned.
DRIFT_RATIO = 1.5


def make_server() -> OLAPServer:
    sizes = (8, 4, 2)
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50, size=sizes).astype(np.float64)
    dims = [
        Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)
    ]
    server = OLAPServer(DataCube(values, dims, measure="amount"))
    # Give the access tracker a workload so reconfigure() has an observed
    # population to re-select for.
    for dims_kept in (["d0"], ["d0", "d1"], ["d1"], ["d0"]):
        server.view(dims_kept)
    return server


def observe(server: OLAPServer, profile: dict) -> tuple[bool, float]:
    """Feed one profile; ``(re-selected, the divergence it was judged at)``."""
    monitor = server.cost_monitor
    return server.observe_profile(profile), monitor.divergence


def profile(planned: float, measured: float, nodes: int = 4) -> dict:
    """A synthetic planned-vs-measured query profile (totals only)."""
    return {
        "totals": {
            "nodes": nodes,
            "planned": planned,
            "measured": measured,
        },
        "elements": {},
    }


def expected_divergence(k: int) -> float:
    """Decayed mean after ``k`` drifted profiles starting from 1.0.

    ``record`` folds each ratio in as
    ``mean = decay * mean + (1 - decay) * ratio``, so starting from an
    exact phase (mean 1.0), ``k`` profiles at ``DRIFT_RATIO`` give
    ``DRIFT_RATIO - (DRIFT_RATIO - 1) * decay**k``.
    """
    return DRIFT_RATIO - (DRIFT_RATIO - 1.0) * DECAY**k


def first_tripping_batch() -> int:
    """The first ``k`` whose decayed divergence exceeds the tolerance."""
    k = 1
    while expected_divergence(k) - 1.0 <= TOLERANCE:
        k += 1
    return k


class TestExactProfilesNeverTrip:
    def test_no_reselection_on_model_exact_workload(self):
        server = make_server()
        for _ in range(50):
            assert observe(server, profile(1000.0, 1000.0)) == (False, 1.0)
        assert server.stats.reconfigurations == 0
        assert server.epoch == 0

    def test_live_profiles_sit_at_unity(self):
        # The real executor's accounting equals the plan on the unfaulted
        # path, so live profiles must behave like the synthetic exact ones.
        server = make_server()
        server.query_batch([["d0"], ["d1"], ["d0", "d1"]])
        tripped, divergence = observe(server, server.query_profile())
        assert tripped is False
        assert divergence == pytest.approx(1.0)


class TestHotKeyShiftReselection:
    def test_drift_triggers_exactly_one_reselection(self):
        server = make_server()

        # Phase 1: the model is exact; nothing moves.
        for _ in range(10):
            assert server.observe_profile(profile(1000.0, 1000.0)) is False
        epoch_before = server.epoch

        # Phase 2: hot-key shift — every query now costs 1.5x its plan.
        trip_at = first_tripping_batch()
        tripped = None
        for k in range(1, trip_at + 1):
            fired, divergence = observe(
                server, profile(1000.0, DRIFT_RATIO * 1000.0)
            )
            if fired:
                tripped = k
                break
        assert tripped == trip_at, (
            f"re-selection fired at drifted batch {tripped}, expected the "
            f"decayed mean to cross tolerance at batch {trip_at}"
        )

        # Exactly one re-selection, with the epoch bumped.
        assert server.stats.reconfigurations == 1
        assert server.epoch == epoch_before + 1
        assert divergence > 1.0 + TOLERANCE
        assert server.materialized.storage > 0
        assert server.stats.last_expected_cost > 0

        # Phase 3: the new configuration matches the model again; the
        # fresh monitor converges and never re-trips.
        for _ in range(30):
            fired, divergence = observe(server, profile(1000.0, 1000.0))
            assert fired is False
        assert server.stats.reconfigurations == 1
        assert divergence == pytest.approx(1.0)
        assert server.cost_monitor.should_reconfigure() is False

    def test_divergence_follows_decayed_mean_law(self):
        server = make_server()
        for _ in range(10):
            server.observe_profile(profile(1000.0, 1000.0))
        trip_at = first_tripping_batch()
        drifted = [
            observe(server, profile(1000.0, DRIFT_RATIO * 1000.0))[1]
            for _ in range(trip_at)
        ]
        for k, divergence in enumerate(drifted, start=1):
            assert divergence == pytest.approx(expected_divergence(k)), (
                f"divergence after {k} drifted profiles diverged from the "
                f"decayed-mean law"
            )

    def test_monitor_restarts_after_reselection(self):
        # The post-trip monitor must judge the new configuration on its
        # own telemetry: its divergence starts fresh instead of carrying
        # the tripped value, so a *still*-drifted workload needs fresh
        # evidence before the next re-selection.
        server = make_server()
        for _ in range(10):
            server.observe_profile(profile(1000.0, 1000.0))
        for _ in range(first_tripping_batch()):
            server.observe_profile(profile(1000.0, DRIFT_RATIO * 1000.0))
        assert server.stats.reconfigurations == 1
        assert server.cost_monitor.profiles_ingested == 0
        assert server.cost_monitor.divergence == pytest.approx(1.0)
        # Sustained drift eventually re-trips — but only after the fresh
        # monitor independently accumulates past-tolerance evidence.
        second = 0
        while server.stats.reconfigurations < 2:
            second += 1
            server.observe_profile(profile(1000.0, DRIFT_RATIO * 1000.0))
            assert second < 50, "sustained drift never re-tripped"
        # The first drifted profile seeds the fresh monitor's mean at the
        # raw ratio (1.5), already past tolerance - so re-evidence takes
        # one batch, not zero: the trip cannot ride the old monitor.
        assert second >= 1
        assert server.epoch == 2


class TestConcurrentObservers:
    def test_each_monitor_trips_once_under_thread_contention(self, monkeypatch):
        """Threads feeding profiles at once: every monitor that trips is
        swapped before another profile reaches it, so it trips exactly
        once, and each trip is one re-selection."""
        tripped_monitors = []

        class CountingMonitor(adaptive.CostModelMonitor):
            def should_reconfigure(self) -> bool:
                tripped = super().should_reconfigure()
                if tripped:
                    tripped_monitors.append(self)
                time.sleep(0)  # yield: another thread may read this monitor
                return tripped

        monkeypatch.setattr("repro.server.CostModelMonitor", CountingMonitor)
        server = make_server()
        drifted = profile(1000.0, 3 * DRIFT_RATIO * 1000.0)
        threads, calls = 8, 15
        results: list[bool] = []

        def feed() -> None:
            for _ in range(calls):
                results.append(server.observe_profile(drifted))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=feed) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == threads * calls
        assert len(set(map(id, tripped_monitors))) == len(tripped_monitors)
        assert results.count(True) == len(tripped_monitors)
        assert server.stats.reconfigurations == len(tripped_monitors)
