"""Tests for element materialization and assembly (paper §3, §5.3)."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bases import random_wavelet_packet_basis, wavelet_basis
from repro.core.delta import DeltaBatch
from repro.core.element import CubeShape, ElementId
from repro.core.graph import ViewElementGraph
from repro.core.materialize import MaterializedSet, compute_element, element_checksum
from repro.core.operators import OpCounter
from repro.core.select_redundant import generation_cost


def _reference_element_value(data: np.ndarray, element: ElementId) -> np.ndarray:
    """Independent oracle: apply the per-dimension Haar cascades directly."""
    out = data.astype(np.float64)
    for dim in range(element.shape.ndim):
        level, index = element.nodes[dim]
        for step in range(level):
            bit = (index >> (level - 1 - step)) & 1
            pairs = out.reshape(
                out.shape[:dim] + (out.shape[dim] // 2, 2) + out.shape[dim + 1 :]
            )
            even = np.take(pairs, 0, axis=dim + 1)
            odd = np.take(pairs, 1, axis=dim + 1)
            out = even - odd if bit else even + odd
    return out


class TestComputeElement:
    def test_matches_reference_for_all_elements(self, shape_4x4, cube_4x4):
        graph = ViewElementGraph(shape_4x4)
        for element in graph.elements():
            np.testing.assert_array_equal(
                compute_element(cube_4x4, element),
                _reference_element_value(cube_4x4, element),
            )

    def test_aggregated_view_is_numpy_sum(self, shape_3d, cube_3d):
        view = shape_3d.aggregated_view([0, 2])
        values = compute_element(cube_3d, view)
        np.testing.assert_array_equal(
            values, cube_3d.sum(axis=(0, 2), keepdims=True)
        )

    def test_cost_is_volume_difference(self, shape_3d, cube_3d):
        element = ElementId(shape_3d, ((2, 1), (1, 0), (0, 0)))
        counter = OpCounter()
        compute_element(cube_3d, element, counter=counter)
        assert counter.total == shape_3d.volume - element.volume

    def test_shape_mismatch(self, shape_4x4):
        with pytest.raises(ValueError, match="does not match"):
            compute_element(np.zeros((2, 2)), shape_4x4.root())


class TestMaterializedSet:
    def test_from_cube_and_lookup(self, shape_4x4, cube_4x4):
        elements = list(shape_4x4.root().children(0))
        ms = MaterializedSet.from_cube(cube_4x4, elements)
        assert len(ms) == 2
        assert ms.storage == shape_4x4.volume
        for element in elements:
            assert element in ms
            np.testing.assert_array_equal(
                ms.array(element), compute_element(cube_4x4, element)
            )

    def test_from_cube_requires_elements(self, cube_4x4):
        with pytest.raises(ValueError, match="at least one element"):
            MaterializedSet.from_cube(cube_4x4, [])

    def test_store_validates_shape(self, shape_4x4):
        ms = MaterializedSet(shape_4x4)
        with pytest.raises(ValueError, match="does not match"):
            ms.store(shape_4x4.root(), np.zeros((2, 2)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reconstruct_from_random_basis(self, seed):
        """Any wavelet-packet basis perfectly reconstructs the cube."""
        shape = CubeShape((4, 4))
        rng = np.random.default_rng(seed)
        data = rng.integers(-50, 50, size=shape.sizes).astype(np.float64)
        basis = random_wavelet_packet_basis(shape, rng)
        ms = MaterializedSet.from_cube(data, basis)
        np.testing.assert_allclose(ms.reconstruct_cube(), data)

    def test_assemble_any_element_from_wavelet_basis(
        self, shape_4x4, cube_4x4
    ):
        ms = MaterializedSet.from_cube(cube_4x4, wavelet_basis(shape_4x4))
        graph = ViewElementGraph(shape_4x4)
        for element in list(graph.elements())[::5]:
            np.testing.assert_allclose(
                ms.assemble(element),
                _reference_element_value(cube_4x4, element),
            )

    def test_assemble_counts_match_cost_model(self, shape_4x4, cube_4x4, rng):
        """Actually-performed operations equal Procedure 3's prediction."""
        basis = random_wavelet_packet_basis(shape_4x4, rng)
        ms = MaterializedSet.from_cube(cube_4x4, basis)
        for view in shape_4x4.aggregated_views():
            counter = OpCounter()
            ms.assemble(view, counter=counter)
            predicted = generation_cost(view, ms.elements)
            assert counter.total == predicted

    def test_assemble_an_aggregated_view(self, shape_3d, cube_3d):
        ms = MaterializedSet.from_cube(cube_3d, [shape_3d.root()])
        values = ms.assemble(shape_3d.aggregated_view([0, 1]))
        np.testing.assert_array_equal(
            values, cube_3d.sum(axis=(0, 1), keepdims=True)
        )

    def test_incomplete_set_raises(self, shape_4x4, cube_4x4):
        p = shape_4x4.root().partial_child(0)
        ms = MaterializedSet.from_cube(cube_4x4, [p])
        assert not ms.can_assemble(shape_4x4.root())
        with pytest.raises(ValueError, match="not complete"):
            ms.reconstruct_cube()
        # ...but descendants of p are fine.
        assert ms.can_assemble(p.partial_child(1))

    def test_can_assemble_prices_through_the_persistent_memo(
        self, shape_4x4, cube_4x4
    ):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        view = shape_4x4.total_aggregation()
        assert ms.can_assemble(view)
        assert ms._cost_memo[view] == 15  # kept for the assembly that follows
        # A stale ``inf`` (a plan racing a store) is rechecked on a fresh
        # memo, exactly as ``assemble`` does, before it is believed.
        ms._cost_memo[view] = float("inf")
        assert ms.can_assemble(view)
        np.testing.assert_array_equal(ms.assemble(view), cube_4x4.sum(keepdims=True))

    def test_cross_shape_target_rejected(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        with pytest.raises(ValueError, match="different cube shape"):
            ms.assemble(CubeShape((8, 8)).root())

    def test_from_cube_reuses_ancestors(self, shape_4x4, cube_4x4):
        """Materializing a pyramid costs less than independent cascades."""
        from repro.core.bases import gaussian_pyramid

        pyramid = gaussian_pyramid(shape_4x4)
        counter = OpCounter()
        MaterializedSet.from_cube(cube_4x4, pyramid, counter=counter)
        independent = sum(shape_4x4.volume - e.volume for e in pyramid)
        assert counter.total < independent

    def test_assemble_prefers_cheap_route(self, shape_4x4, cube_4x4):
        """With the cube and a small view stored, the small view's
        descendants aggregate from the view, not the cube."""
        view = shape_4x4.aggregated_view([0])  # vol 4
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root(), view])
        total = shape_4x4.total_aggregation()
        counter = OpCounter()
        ms.assemble(total, counter=counter)
        assert counter.total == view.volume - total.volume  # 3, not 15


class TestIncrementalMaintenance:
    """A one-row batch propagates a single-cell delta into stored elements."""

    def test_update_matches_recompute(self, shape_4x4, cube_4x4, rng):
        from repro.core.bases import random_wavelet_packet_basis

        basis = random_wavelet_packet_basis(shape_4x4, rng)
        ms = MaterializedSet.from_cube(cube_4x4, basis)
        updated = cube_4x4.copy()
        for _ in range(10):
            coords = tuple(int(rng.integers(n)) for n in shape_4x4.sizes)
            delta = float(rng.integers(-5, 6))
            updated[coords] += delta
            ms.apply_updates(DeltaBatch(shape_4x4, [coords], [delta]))
        fresh = MaterializedSet.from_cube(updated, basis)
        for element in basis:
            np.testing.assert_allclose(
                ms.array(element), fresh.array(element)
            )

    def test_update_preserves_reconstruction(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(
            cube_4x4, wavelet_basis(shape_4x4)
        )
        ms.apply_updates(DeltaBatch(shape_4x4, [(1, 2)], [7.0]))
        expected = cube_4x4.copy()
        expected[1, 2] += 7.0
        np.testing.assert_allclose(ms.reconstruct_cube(), expected)

    def test_update_cost_is_one_op_per_element(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, wavelet_basis(shape_4x4))
        counter = OpCounter()
        ms.apply_updates(DeltaBatch(shape_4x4, [(0, 0)], [1.0]), counter=counter)
        assert counter.total == len(ms)

    def test_update_validation(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        with pytest.raises(ValueError, match="coordinates"):
            ms.apply_updates(DeltaBatch(shape_4x4, [(1,)], [1.0]))
        with pytest.raises(ValueError, match="outside"):
            ms.apply_updates(DeltaBatch(shape_4x4, [(4, 0)], [1.0]))

    def test_residual_sign_handling(self):
        """Updating an odd coordinate flips residual coefficients."""
        shape = CubeShape((2,))
        data = np.array([3.0, 1.0])
        p = shape.root().partial_child(0)
        r = shape.root().residual_child(0)
        ms = MaterializedSet.from_cube(data, [p, r])
        ms.apply_updates(DeltaBatch(shape, [(1,)], [5.0]))
        assert ms.array(p)[0] == 9.0  # 4 + 5
        assert ms.array(r)[0] == -3.0  # 2 - 5


class TestBatchUpdates:
    def test_batch_matches_sequential(self, shape_4x4, cube_4x4, rng):
        from repro.core.bases import random_wavelet_packet_basis

        basis = random_wavelet_packet_basis(shape_4x4, rng)
        a = MaterializedSet.from_cube(cube_4x4, basis)
        b = MaterializedSet.from_cube(cube_4x4, basis)
        coords = rng.integers(0, 4, size=(20, 2))
        deltas = rng.integers(-5, 6, size=20).astype(float)
        a.apply_updates(DeltaBatch(shape_4x4, coords, deltas))
        for (x, y), delta in zip(coords, deltas):
            b.apply_updates(DeltaBatch(shape_4x4, [(x, y)], [delta]))
        for element in basis:
            np.testing.assert_allclose(a.array(element), b.array(element))

    def test_batch_matches_recompute(self, shape_4x4, cube_4x4, rng):
        basis = wavelet_basis(shape_4x4)
        ms = MaterializedSet.from_cube(cube_4x4, basis)
        coords = rng.integers(0, 4, size=(15, 2))
        deltas = rng.integers(-9, 10, size=15).astype(float)
        ms.apply_updates(DeltaBatch(shape_4x4, coords, deltas))
        updated = cube_4x4.copy()
        np.add.at(updated, tuple(coords.T), deltas)
        np.testing.assert_allclose(ms.reconstruct_cube(), updated)

    def test_batch_validation(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        # A batch is validated where it is built; the set only refuses one
        # built for another cube.
        with pytest.raises(ValueError, match="coordinates must be"):
            DeltaBatch(ms.shape, np.zeros((2, 3), dtype=int), np.zeros(2))
        with pytest.raises(ValueError, match="deltas must be"):
            DeltaBatch(ms.shape, np.zeros((2, 2), dtype=int), np.zeros(3))
        with pytest.raises(ValueError, match="outside"):
            DeltaBatch(ms.shape, np.array([[9, 0]]), np.ones(1))
        with pytest.raises(ValueError, match="cube"):
            ms.apply_updates(DeltaBatch(CubeShape((4, 8)), [[0, 0]], [1.0]))

    def test_empty_batch_is_noop(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        before = ms.array(shape_4x4.root()).copy()
        ms.apply_updates(DeltaBatch(shape_4x4, np.empty((0, 2), dtype=int), []))
        np.testing.assert_array_equal(ms.array(shape_4x4.root()), before)

    def test_duplicate_coordinates_accumulate(self, shape_4x4, cube_4x4):
        ms = MaterializedSet.from_cube(cube_4x4, [shape_4x4.root()])
        ms.apply_updates(DeltaBatch(shape_4x4, [[0, 0], [0, 0]], [2.0, 3.0]))
        assert ms.array(shape_4x4.root())[0, 0] == cube_4x4[0, 0] + 5.0


class TestElementChecksum:
    """The seal hashes the array through the buffer protocol; it must be
    the CRC of ``tobytes()`` — the form every existing snapshot and cube
    file was sealed with — for any layout."""

    @staticmethod
    def _layouts(dtype):
        base = (np.arange(96) * 7 - 300).astype(dtype).reshape(4, 6, 4)
        return {
            "c_order": base,
            "fortran": np.asfortranarray(base),
            "strided": base[:, ::2, 1:],
            "transposed": base.transpose(2, 0, 1),
            "zero_d": np.asarray(base[1, 2, 3]),
            "empty": base[:, :0],
        }

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.float32, np.float64])
    def test_matches_the_tobytes_crc(self, dtype):
        for name, values in self._layouts(dtype).items():
            expected = zlib.crc32(np.ascontiguousarray(values).tobytes())
            assert element_checksum(values) == expected, name
