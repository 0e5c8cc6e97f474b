"""Tests for the dynamic adaptation layer (the paper's titular feature)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AccessTracker
from repro.core.element import CubeShape
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer


@pytest.fixture
def shape() -> CubeShape:
    return CubeShape((4, 4, 4))


@pytest.fixture
def data(rng, shape) -> np.ndarray:
    return rng.integers(0, 50, size=shape.sizes).astype(np.float64)


class TestAccessTracker:
    def test_decay_validation(self):
        with pytest.raises(ValueError, match="decay"):
            AccessTracker(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            AccessTracker(decay=1.5)

    def test_frequencies_reflect_counts(self, shape):
        tracker = AccessTracker(decay=1.0)  # no forgetting
        views = list(shape.aggregated_views())
        for _ in range(3):
            tracker.record(views[0])
        tracker.record(views[1])
        population = tracker.population()
        assert population.frequency_of(views[0]) == pytest.approx(0.75)
        assert population.frequency_of(views[1]) == pytest.approx(0.25)

    def test_decay_forgets_old_accesses(self, shape):
        tracker = AccessTracker(decay=0.5)
        views = list(shape.aggregated_views())
        tracker.record(views[0])
        for _ in range(10):
            tracker.record(views[1])
        population = tracker.population()
        assert population.frequency_of(views[1]) > 0.99

    def test_smoothing_includes_universe(self, shape):
        tracker = AccessTracker()
        views = list(shape.aggregated_views())
        tracker.record(views[0])
        population = tracker.population(smoothing=0.1, universe=views)
        assert len(population) == len(views)
        assert population.frequency_of(views[-1]) > 0.0

    def test_empty_tracker_raises(self):
        with pytest.raises(ValueError, match="no accesses"):
            AccessTracker().population()


def decay_every_weight(views, decay: float) -> dict:
    """The O(tracked)-per-access definition ``AccessTracker`` must equal:
    multiply every weight by ``decay``, then add one to the accessed view."""
    weights: dict = {}
    for view in views:
        for key in weights:
            weights[key] *= decay
        weights[view] = weights.get(view, 0.0) + 1.0
    return weights


def smooth_schedule(weights) -> list[int]:
    """Smooth weighted round-robin over ``range(len(weights))``."""
    current, total, order = [0] * len(weights), sum(weights), []
    for _ in range(total):
        current = [c + w for c, w in zip(current, weights)]
        best = max(range(len(weights)), key=current.__getitem__)
        current[best] -= total
        order.append(best)
    return order


class TestAccessTrackerScale:
    """One global scale instead of a decay pass over every weight."""

    @settings(max_examples=30, deadline=None)
    @given(
        decay=st.sampled_from([0.5, 0.8, 0.9]),
        periods=st.floats(min_value=1.1, max_value=2.5),
        picks=st.lists(st.integers(0, 7), min_size=8, max_size=64),
        smoothing=st.sampled_from([0.0, 0.05]),
    )
    def test_frequencies_equal_the_decay_loop(
        self, decay, periods, picks, smoothing
    ):
        views = list(CubeShape((4, 4, 4)).aggregated_views())
        period = math.log(AccessTracker._MIN_SCALE) / math.log(decay)
        length = int(periods * period)
        sequence = [views[picks[i % len(picks)]] for i in range(length)]
        tracker = AccessTracker(decay=decay)
        for view in sequence:
            tracker.record(view)
        assert tracker.total_accesses == length
        assert tracker._scale > AccessTracker._MIN_SCALE  # it renormalised
        universe = views if smoothing else None
        population = tracker.population(smoothing=smoothing, universe=universe)
        reference = decay_every_weight(sequence, decay)
        weights = {
            view: reference.get(view, 0.0) + smoothing
            for view in (universe or reference)
        }
        total = sum(weights.values())
        for view in views:
            expected = weights.get(view, 0.0) / total
            # Relative where a view still carries weight, absolute where
            # renormalisation dropped what was below 1e-12 of the total.
            assert population.frequency_of(view) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_renormalisation_forgets_dead_views(self):
        views = list(CubeShape((4, 4, 4)).aggregated_views())
        tracker = AccessTracker(decay=0.5)
        tracker.record(views[0])
        for _ in range(400):  # 0.5**333 < 1e-100: one renormalisation
            tracker.record(views[1])
        assert list(tracker._weights) == [views[1]]
        assert len(tracker.population()) == 1

    def test_same_basis_as_the_decay_loop_after_a_settle_segment(self):
        """The e2e benchmark's settle segment (a fixed view popularity in
        smooth round-robin, eight cycles, server decay and smoothing) must
        select the same elements whichever way the weights are kept."""
        shape = CubeShape((64, 16, 8))
        views = list(shape.aggregated_views())
        cycle = [views[i] for i in smooth_schedule((2, 8, 5, 3, 6, 2, 3, 1))]
        sequence = cycle * 8
        decay, smoothing = 0.98, 0.01
        tracker = AccessTracker(decay=decay)
        for view in sequence:
            tracker.record(view)
        reference = decay_every_weight(sequence, decay)
        expected = select_minimum_cost_basis(
            shape,
            QueryPopulation.from_pairs(
                [(v, reference.get(v, 0.0) + smoothing) for v in views]
            ),
        )
        selected = select_minimum_cost_basis(
            shape, tracker.population(smoothing=smoothing, universe=views)
        )
        assert set(selected.elements) == set(expected.elements)
        assert selected.cost == pytest.approx(expected.cost, rel=1e-12)


def make_server(data: np.ndarray, **kwargs) -> OLAPServer:
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(data.shape)]
    return OLAPServer(DataCube(data.copy(), dims), **kwargs)


def retained(view) -> list[str]:
    """The dimension names ``view`` keeps, as :meth:`OLAPServer.view` takes."""
    return [
        f"d{axis}"
        for axis in range(view.shape.ndim)
        if axis not in view.aggregated_dims
    ]


class TestDynamicViewAssembler:
    """Dynamic view assembly on :class:`OLAPServer`, the one class that
    tracks accesses and re-selects."""

    def test_serves_correct_views(self, data):
        server = make_server(data)
        np.testing.assert_array_equal(
            server.view(["d2"]), data.sum(axis=(0, 1), keepdims=True)
        )

    def test_answers_survive_reconfiguration(self, data, shape):
        server = make_server(data)
        views = list(shape.aggregated_views())
        for i in range(20):
            view = views[i % len(views)]
            expected = data.sum(axis=tuple(view.aggregated_dims), keepdims=True)
            np.testing.assert_allclose(server.view(retained(view)), expected)
            if (i + 1) % 5 == 0:
                server.reconfigure()
        assert server.stats.reconfigurations == 4
        assert server.epoch == 4

    def test_reconfiguration_reduces_cost_for_hot_view(self, data):
        """After re-selecting for one hot view, its first read in the new
        epoch (a result-cache miss) is served from storage at 0 ops."""
        server = make_server(data)
        hot = server.shape.aggregated_view([0, 1, 2])
        for _ in range(10):
            server.view([])
        server.reconfigure()
        assert hot in server.materialized.elements
        before = server.stats.operations
        np.testing.assert_array_equal(
            server.view([]), data.sum(keepdims=True)
        )
        assert server.stats.operations == before

    def test_storage_budget_adds_redundancy(self, data, shape):
        budget = int(1.5 * shape.volume)
        server = make_server(data, storage_budget=budget)
        views = list(shape.aggregated_views())
        rng = np.random.default_rng(4)
        for _ in range(30):
            server.view(retained(views[int(rng.integers(len(views)))]))
        storage, _ = server.reconfigure()
        assert shape.volume < storage <= budget
        assert server.materialized.storage == storage
        # The cube stays reconstructable from the adaptive selection.
        np.testing.assert_allclose(server.materialized.reconstruct_cube(), data)

    def test_migration_operations_recorded(self, data):
        server = make_server(data)
        server.view(["d1", "d2"])
        server.reconfigure()
        span = server.tracer.spans("server.reconfigure")[-1]
        assert span.attributes["operations"] >= 0
        assert server.tracker.total_accesses == 1

    def test_average_operations_counter(self, data):
        server = make_server(data)
        assert server.stats.operations_per_query == 0.0
        server.view([])
        assert server.stats.operations_per_query > 0.0

    def test_shape_mismatch(self):
        dims = [Dimension(f"d{i}", list(range(4))) for i in range(3)]
        with pytest.raises(ValueError, match="does not match"):
            OLAPServer(DataCube(np.zeros((2, 2)), dims))

    @pytest.mark.parametrize("budget", [float("nan"), -1])
    def test_a_nan_or_negative_budget_is_refused(self, data, budget):
        with pytest.raises(ValueError, match="storage_budget"):
            make_server(data, storage_budget=budget)
