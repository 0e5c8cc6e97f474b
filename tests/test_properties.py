"""Cross-cutting property-based tests of the core invariants.

Each class pins one algebraic law the paper relies on, checked over
randomized inputs with hypothesis.  These overlap deliberately with the
per-module unit tests: the unit tests check behaviours, these check the
*laws* that make the whole construction sound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bases import random_wavelet_packet_basis
from repro.core.costs import support_cost
from repro.core.delta import DeltaBatch
from repro.core.element import CubeShape, ElementId
from repro.core.engine import SelectionEngine
from repro.core.graph import ViewElementGraph
from repro.core.materialize import MaterializedSet, compute_element
from repro.core.operators import (
    analyze,
    partial_residual,
    partial_sum,
    partial_sum_k,
    synthesize,
)
from repro.core.population import QueryPopulation
from repro.core.select_basis import select_minimum_cost_basis
from repro.core.select_redundant import generation_cost, total_processing_cost

from .test_engine import _node_costs, _total_cost

SHAPES = [CubeShape((4, 4)), CubeShape((8, 2)), CubeShape((2, 2, 4))]


def _random_element(shape: CubeShape, rng: np.random.Generator) -> ElementId:
    nodes = []
    for depth in shape.depths:
        k = int(rng.integers(0, depth + 1))
        j = int(rng.integers(0, 1 << k))
        nodes.append((k, j))
    return ElementId(shape, tuple(nodes))


class TestLinearityLaws:
    """View elements are linear functionals of the cube."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.integers(min_value=-5, max_value=5),
    )
    def test_homogeneity_and_additivity(self, seed, scale):
        shape = CubeShape((4, 4))
        rng = np.random.default_rng(seed)
        a = rng.integers(-9, 9, size=shape.sizes).astype(float)
        b = rng.integers(-9, 9, size=shape.sizes).astype(float)
        element = _random_element(shape, rng)
        left = compute_element(scale * a + b, element)
        right = scale * compute_element(a, element) + compute_element(b, element)
        np.testing.assert_allclose(left, right)


class TestTransformInvertibility:
    """Any split sequence is invertible step by step."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_multi_step_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-99, 99, size=(8, 4)).astype(float)
        stack = []
        out = data
        for _ in range(4):
            axis = int(rng.integers(0, 2))
            if out.shape[axis] < 2:
                continue
            p, r = analyze(out, axis)
            stack.append((axis, r))
            out = p
        while stack:
            axis, r = stack.pop()
            out = synthesize(out, r, axis)
        np.testing.assert_allclose(out, data)


class TestContainmentOrder:
    """Frequency-plane containment is a partial order matching the graph."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reflexive_antisymmetric_transitive(self, seed):
        rng = np.random.default_rng(seed)
        shape = SHAPES[seed % len(SHAPES)]
        a = _random_element(shape, rng)
        b = _random_element(shape, rng)
        c = _random_element(shape, rng)
        assert a.contains(a)
        if a.contains(b) and b.contains(a):
            assert a == b
        if a.contains(b) and b.contains(c):
            assert a.contains(c)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_children_partition_parent(self, seed):
        rng = np.random.default_rng(seed)
        shape = SHAPES[seed % len(SHAPES)]
        element = _random_element(shape, rng)
        for dim in element.splittable_dims():
            p, r = element.children(dim)
            assert element.contains(p) and element.contains(r)
            assert not p.intersects(r)
            assert p.volume + r.volume == element.volume
            assert (
                p.frequency_volume() + r.frequency_volume()
                == pytest.approx(element.frequency_volume())
            )


class TestCostModelLaws:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_support_cost_symmetry_and_zero_cases(self, seed):
        rng = np.random.default_rng(seed)
        shape = SHAPES[seed % len(SHAPES)]
        a = _random_element(shape, rng)
        b = _random_element(shape, rng)
        assert support_cost(a, b) == support_cost(b, a)
        assert support_cost(a, a) == 0
        if not a.intersects(b):
            assert support_cost(a, b) == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generation_cost_monotone_in_selection(self, seed):
        """Adding elements never makes any target more expensive."""
        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        basis = random_wavelet_packet_basis(shape, rng)
        extra = _random_element(shape, rng)
        target = _random_element(shape, rng)
        before = generation_cost(target, basis)
        after = generation_cost(target, basis + [extra])
        assert after <= before + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_complete_set_generates_everything(self, seed):
        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        basis = random_wavelet_packet_basis(shape, rng)
        target = _random_element(shape, rng)
        assert generation_cost(target, basis) < float("inf")


class TestSelectionLaws:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_algorithm1_beats_any_random_basis(self, seed):
        """Optimality against sampled wavelet-packet bases."""
        from repro.core.costs import basis_population_cost

        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        population = QueryPopulation.random_over_views(shape, rng)
        optimal = select_minimum_cost_basis(shape, population)
        for _ in range(5):
            candidate = random_wavelet_packet_basis(shape, rng)
            assert optimal.cost <= basis_population_cost(
                candidate, population
            ) + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_procedure3_lower_bounds_additive_cost(self, seed):
        from repro.core.costs import basis_population_cost

        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        population = QueryPopulation.random_over_views(shape, rng)
        basis = random_wavelet_packet_basis(shape, rng)
        assert total_processing_cost(basis, population) <= (
            basis_population_cost(basis, population) + 1e-9
        )


class TestAssemblyConsistency:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_assembled_equals_direct_computation(self, seed):
        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        data = rng.integers(-9, 9, size=shape.sizes).astype(float)
        basis = random_wavelet_packet_basis(shape, rng)
        ms = MaterializedSet.from_cube(data, basis)
        target = _random_element(shape, rng)
        np.testing.assert_allclose(
            ms.assemble(target), compute_element(data, target)
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_incremental_update_commutes_with_assembly(self, seed):
        rng = np.random.default_rng(seed)
        shape = CubeShape((4, 4))
        data = rng.integers(-9, 9, size=shape.sizes).astype(float)
        basis = random_wavelet_packet_basis(shape, rng)
        ms = MaterializedSet.from_cube(data, basis)
        coords = tuple(int(rng.integers(n)) for n in shape.sizes)
        delta = float(rng.integers(1, 9))
        ms.apply_updates(DeltaBatch(shape, [coords], [delta]))
        updated = data.copy()
        updated[coords] += delta
        target = _random_element(shape, rng)
        np.testing.assert_allclose(
            ms.assemble(target), compute_element(updated, target)
        )


#: Random power-of-two shapes and dtypes for the operator-law tests.
_LAW_SHAPES = st.lists(
    st.sampled_from([2, 4, 8]), min_size=1, max_size=3
).map(tuple)
_LAW_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32]
)


def _law_array(shape, dtype, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-99, 99, size=shape).astype(dtype)


class TestOperatorLaws:
    """The paper's four operator properties on random shapes and dtypes.

    Integer-valued data keeps every law exact even after float conversion
    (sums/differences/halving of even sums are exact in binary floats), so
    these use exact comparisons, not tolerances.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_LAW_SHAPES,
        dtype=_LAW_DTYPES,
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_perfect_reconstruction(self, shape, dtype, seed, data):
        """Property 1 (Eqs 3-4): synthesize(P1, R1) rebuilds the input."""
        a = _law_array(shape, dtype, seed)
        axis = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
        p, r = analyze(a, axis)
        np.testing.assert_array_equal(
            synthesize(p, r, axis), a.astype(np.float64)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_LAW_SHAPES,
        dtype=_LAW_DTYPES,
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_non_expansiveness(self, shape, dtype, seed, data):
        """Property 3 (Eqs 11-13): the two outputs exactly tile the input."""
        a = _law_array(shape, dtype, seed)
        axis = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
        p, r = analyze(a, axis)
        assert p.size + r.size == a.size
        assert p.shape == r.shape
        expected = list(a.shape)
        expected[axis] //= 2
        assert p.shape == tuple(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_LAW_SHAPES,
        dtype=_LAW_DTYPES,
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_distributivity_of_cascaded_p1(self, shape, dtype, seed, data):
        """Property 2 (Eqs 5-10): k cascaded P1 = direct 2**k block sums."""
        a = _law_array(shape, dtype, seed)
        axis = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
        max_k = int(shape[axis]).bit_length() - 1
        k = data.draw(st.integers(min_value=0, max_value=max_k))
        cascaded = partial_sum_k(a, axis, k)
        blocks = np.asarray(a, dtype=np.float64)
        new_shape = (
            blocks.shape[:axis]
            + (blocks.shape[axis] >> k, 1 << k)
            + blocks.shape[axis + 1 :]
        )
        direct = blocks.reshape(new_shape).sum(axis=axis + 1)
        np.testing.assert_array_equal(cascaded, direct)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_LAW_SHAPES,
        dtype=_LAW_DTYPES,
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_dimension_separability(self, shape, dtype, seed, data):
        """Property 4 (Eq 14): operators on distinct dimensions commute."""
        if len(shape) < 2:
            return
        a = _law_array(shape, dtype, seed)
        axes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(shape) - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        ax1, ax2 = axes
        ops = [
            data.draw(st.sampled_from([partial_sum, partial_residual]))
            for _ in range(2)
        ]
        forward = ops[1](ops[0](a, ax1), ax2)
        backward = ops[0](ops[1](a, ax2), ax1)
        np.testing.assert_array_equal(forward, backward)


#: Engines are cached per shape: index-table construction dominates the
#: differential test otherwise.
_ENGINES: dict[CubeShape, SelectionEngine] = {}


def _engine_for(shape: CubeShape) -> SelectionEngine:
    engine = _ENGINES.get(shape)
    if engine is None:
        engine = _ENGINES[shape] = SelectionEngine(shape)
    return engine


class TestEngineDifferential:
    """Vectorized engine vs the reference recursion on random inputs."""

    # Degenerate single-dimension cubes included deliberately.
    DIFF_SHAPES = [
        CubeShape((8,)),
        CubeShape((2,)),
        CubeShape((4, 4)),
        CubeShape((8, 2)),
        CubeShape((2, 2, 4)),
    ]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_total_processing_cost_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        shape = self.DIFF_SHAPES[seed % len(self.DIFF_SHAPES)]
        engine = _engine_for(shape)
        population = QueryPopulation.random_over_views(shape, rng)
        # Random selection: the root (so every target is generable) plus a
        # few random extra elements.
        extras = [
            _random_element(shape, rng)
            for _ in range(int(rng.integers(0, 4)))
        ]
        selected = list({shape.root(), *extras})
        reference = total_processing_cost(selected, population)
        fast = _total_cost(engine, selected, population)
        assert fast == pytest.approx(reference, rel=1e-12, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_rootless_selection_matches_reference(self, seed):
        """Random bases without the root, including incomplete ones."""
        rng = np.random.default_rng(seed)
        shape = self.DIFF_SHAPES[seed % len(self.DIFF_SHAPES)]
        engine = _engine_for(shape)
        population = QueryPopulation.random_over_views(shape, rng)
        basis = random_wavelet_packet_basis(shape, rng)
        keep = max(1, int(rng.integers(1, len(basis) + 1)))
        selected = list(basis[:keep])
        reference = total_processing_cost(selected, population)
        fast = _total_cost(engine, selected, population)
        if reference == float("inf"):
            assert fast == float("inf")
        else:
            assert fast == pytest.approx(reference, rel=1e-12, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_node_generation_costs_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        shape = self.DIFF_SHAPES[seed % len(self.DIFF_SHAPES)]
        engine = _engine_for(shape)
        selected = list(
            {shape.root(), *(_random_element(shape, rng) for _ in range(2))}
        )
        t_vals = _node_costs(engine, selected)
        memo: dict = {}
        for _ in range(5):
            target = _random_element(shape, rng)
            idx = engine.index_of(target)
            assert t_vals[idx] == pytest.approx(
                generation_cost(target, selected, _memo=memo), abs=1e-9
            )
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_volume_census(self, seed):
        """Per block, element volumes sum to Vol(A) (non-expansiveness)."""
        shape = SHAPES[seed % len(SHAPES)]
        graph = ViewElementGraph(shape)
        for levels in graph.blocks():
            block_volume = sum(
                e.volume for e in graph.elements_at_level(levels)
            )
            assert block_volume == shape.volume
