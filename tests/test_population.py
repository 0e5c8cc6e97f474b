"""Tests for query populations (paper §5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.element import CubeShape
from repro.core.population import QueryPopulation
from repro.cube.datacube import DataCube
from repro.cube.dimensions import Dimension
from repro.server import OLAPServer


class TestValidation:
    def test_length_mismatch(self, shape_4x4):
        views = tuple(shape_4x4.aggregated_views())
        with pytest.raises(ValueError, match="differ in length"):
            QueryPopulation(views, (1.0,))

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one query"):
            QueryPopulation((), ())

    def test_negative_frequency(self, shape_4x4):
        views = tuple(shape_4x4.aggregated_views())[:2]
        with pytest.raises(ValueError, match="non-negative"):
            QueryPopulation(views, (1.5, -0.5))

    def test_zero_total(self, shape_4x4):
        views = tuple(shape_4x4.aggregated_views())[:2]
        with pytest.raises(ValueError, match="positive sum"):
            QueryPopulation(views, (0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_names_its_index(self, shape_4x4, bad):
        views = tuple(shape_4x4.aggregated_views())
        with pytest.raises(ValueError, match="frequency 0 is not finite"):
            QueryPopulation(views, (bad, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="frequency 2 is not finite"):
            QueryPopulation.from_pairs(zip(views, (1.0, 1.0, bad, 1.0)))

    def test_a_server_is_not_reconfigured_on_a_non_finite_frequency(self):
        values = np.arange(64, dtype=np.float64).reshape(8, 8)
        dims = [Dimension(f"d{i}", list(range(8))) for i in range(2)]
        server = OLAPServer(DataCube(values, dims, measure="amount"))
        stored = server.materialized.elements
        views = tuple(server.shape.aggregated_views())
        with pytest.raises(ValueError, match="frequency 0 is not finite"):
            server.reconfigure(QueryPopulation(views, (math.nan, 1, 1, 1)))
        assert server.materialized.elements == stored
        assert server.stats.reconfigurations == 0
        server.close()

    def test_mixed_shapes(self, shape_4x4):
        other = CubeShape((8, 8)).root()
        with pytest.raises(ValueError, match="same cube shape"):
            QueryPopulation((shape_4x4.root(), other), (0.5, 0.5))


class TestNormalization:
    def test_auto_normalizes(self, shape_4x4):
        views = tuple(shape_4x4.aggregated_views())[:2]
        population = QueryPopulation(views, (2.0, 6.0))
        assert population.frequencies == pytest.approx((0.25, 0.75))

    def test_already_normalized_untouched(self, shape_4x4):
        views = tuple(shape_4x4.aggregated_views())[:2]
        population = QueryPopulation(views, (0.25, 0.75))
        assert population.frequencies == (0.25, 0.75)


class TestConstructors:
    def test_uniform(self, shape_4x4):
        population = QueryPopulation.uniform_over_views(shape_4x4)
        assert len(population) == 4
        assert all(f == pytest.approx(0.25) for _, f in population)

    def test_random_seeded(self, shape_4x4):
        a = QueryPopulation.random_over_views(shape_4x4, np.random.default_rng(1))
        b = QueryPopulation.random_over_views(shape_4x4, np.random.default_rng(1))
        assert a.frequencies == b.frequencies
        assert sum(a.frequencies) == pytest.approx(1.0)

    def test_random_excluding_root(self, shape_4x4):
        population = QueryPopulation.random_over_views(
            shape_4x4, np.random.default_rng(1), include_root=False
        )
        assert len(population) == 3
        assert all(not q.is_root for q, _ in population)

    def test_random_concentration_validation(self, shape_4x4):
        with pytest.raises(ValueError, match="concentration"):
            QueryPopulation.random_over_views(
                shape_4x4, np.random.default_rng(1), concentration=0.0
            )

    def test_random_concentration_skews(self, shape_4x4):
        rng = np.random.default_rng(2)
        population = QueryPopulation.random_over_views(
            shape_4x4, rng, concentration=0.05
        )
        assert max(population.frequencies) > 0.8  # strongly skewed

    def test_point_mass(self, shape_4x4):
        views = list(shape_4x4.aggregated_views())
        population = QueryPopulation.point_mass(views, hot=[1, 2])
        assert population.frequencies == pytest.approx((0.0, 0.5, 0.5, 0.0))

    def test_point_mass_requires_hot(self, shape_4x4):
        with pytest.raises(ValueError, match="at least one query"):
            QueryPopulation.point_mass(list(shape_4x4.aggregated_views()), hot=[])


class TestAccessors:
    def test_frequency_of(self, shape_4x4):
        views = list(shape_4x4.aggregated_views())
        population = QueryPopulation.from_pairs([(views[0], 0.4), (views[1], 0.6)])
        assert population.frequency_of(views[0]) == pytest.approx(0.4)
        assert population.frequency_of(views[3]) == 0.0

    def test_restricted_to_support(self, shape_4x4):
        views = list(shape_4x4.aggregated_views())
        population = QueryPopulation(
            tuple(views), (0.5, 0.0, 0.5, 0.0)
        ).restricted_to_support()
        assert len(population) == 2
        assert all(f > 0 for _, f in population)
