"""Tests for Algorithm 1 — optimal non-redundant basis selection (§5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import basis_population_cost, element_population_cost
from repro.core.element import CubeShape, ElementId
from repro.core.frequency import is_non_redundant_basis
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis

from .oracles import _select_explicit


def _all_bases(element: ElementId):
    """Enumerate every complete non-redundant basis below ``element``.

    Mirrors Procedure 2: stop, or split along one dimension and combine the
    children's bases.  Exponential — tiny shapes only.
    """
    yield [element]
    for dim in element.splittable_dims():
        p_child, r_child = element.children(dim)
        for p_basis in _all_bases(p_child):
            for r_basis in _all_bases(r_child):
                yield p_basis + r_basis


class TestOptimality:
    """Algorithm 1 matches brute force over every basis."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_2x2(self, seed):
        shape = CubeShape((2, 2))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        selection = select_minimum_cost_basis(shape, population)
        brute = min(
            basis_population_cost(basis, population)
            for basis in _all_bases(shape.root())
        )
        assert selection.cost == pytest.approx(brute)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_4x2(self, seed):
        shape = CubeShape((4, 2))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        selection = select_minimum_cost_basis(shape, population)
        brute = min(
            basis_population_cost(basis, population)
            for basis in _all_bases(shape.root())
        )
        assert selection.cost == pytest.approx(brute)

    def test_never_worse_than_cube_or_wavelet(self, shape_4x4, rng):
        from repro.core.bases import wavelet_basis

        population = QueryPopulation.random_over_views(shape_4x4, rng)
        selection = select_minimum_cost_basis(shape_4x4, population)
        assert selection.cost <= element_population_cost(
            shape_4x4.root(), population
        ) + 1e-9
        assert selection.cost <= basis_population_cost(
            wavelet_basis(shape_4x4), population
        ) + 1e-9


class TestBasisValidity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_selected_set_is_non_redundant_basis(self, seed):
        shape = CubeShape((4, 4))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        selection = select_minimum_cost_basis(shape, population)
        assert is_non_redundant_basis(selection.elements)
        assert selection.storage == shape.volume  # non-expansive

    def test_cost_equals_reported(self, shape_4x4, rng):
        population = QueryPopulation.random_over_views(shape_4x4, rng)
        selection = select_minimum_cost_basis(shape_4x4, population)
        assert basis_population_cost(
            selection.elements, population
        ) == pytest.approx(selection.cost)

    def test_hot_view_gets_materialized(self, shape_4x4):
        """A single hot query makes its own element the whole cheap path."""
        view = shape_4x4.aggregated_view([0, 1])
        population = QueryPopulation.from_pairs([(view, 1.0)])
        selection = select_minimum_cost_basis(shape_4x4, population)
        assert view in selection.elements
        # Supporting only that query costs nothing.
        assert selection.cost == 0.0

    def test_population_shape_mismatch(self, shape_4x4):
        other = CubeShape((8, 8))
        population = QueryPopulation.uniform_over_views(other)
        with pytest.raises(ValueError, match="different cube shape"):
            select_minimum_cost_basis(shape_4x4, population)


class TestPedagogicalExample:
    def test_optimum_is_three(self):
        """Section 7.1: the minimum total processing cost is 3."""
        from repro.experiments.table2 import (
            pedagogical_population,
        )

        shape = CubeShape((2, 2))
        population = pedagogical_population()
        selection = select_minimum_cost_basis(shape, population)
        # Table 2 reports unweighted sums over the two queries.
        assert selection.cost * 2 == pytest.approx(3.0)

    def test_selects_one_of_the_two_optima(self):
        from repro.experiments.table2 import (
            pedagogical_elements,
            pedagogical_population,
        )

        shape = CubeShape((2, 2))
        elements = pedagogical_elements()
        selection = select_minimum_cost_basis(shape, pedagogical_population())
        chosen = set(selection.elements)
        optima = [
            {elements["V3"], elements["V6"], elements["V7"]},
            {elements["V1"], elements["V5"], elements["V6"]},
        ]
        assert chosen in optima


class TestFastEquivalence:
    """The signature recursion matches the explicit one on view populations."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fast_matches_general_4x4(self, seed):
        shape = CubeShape((4, 4))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        general = _select_explicit(shape, population)
        fast = select_minimum_cost_basis(shape, population)
        assert fast.cost == general.cost

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fast_matches_general_3d(self, seed):
        shape = CubeShape((8, 4, 2))
        rng = np.random.default_rng(seed)
        population = QueryPopulation.random_over_views(shape, rng)
        general = _select_explicit(shape, population)
        fast = select_minimum_cost_basis(shape, population)
        assert fast.cost == general.cost

    def test_fast_extraction_is_valid_basis(self, shape_4x4, rng):
        population = QueryPopulation.random_over_views(shape_4x4, rng)
        fast = select_minimum_cost_basis(shape_4x4, population)
        elements = list(fast.elements)
        assert is_non_redundant_basis(elements)
        assert fast.storage == shape_4x4.volume
        assert basis_population_cost(elements, population) == pytest.approx(
            fast.cost
        )

    def test_experiment1_scale(self):
        """The paper's 923,521-node graph solves in well under a second."""
        shape = CubeShape((16,) * 4)
        population = QueryPopulation.random_over_views(
            shape, np.random.default_rng(0)
        )
        result = select_minimum_cost_basis(shape, population)
        assert result.storage == shape.volume
        assert result.states == 9**4
        assert 0 < result.cost < element_population_cost(
            shape.root(), population
        )
