"""Unit and property tests for the partial aggregation operators (paper §3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.kernels import (
    fused_aggregate,
    fused_cascade,
    fused_partial_sum_k,
    fused_synthesize,
)
from repro.core.operators import (
    OpCounter,
    analyze,
    partial_residual,
    partial_sum,
    partial_sum_k,
    synthesize,
    total_aggregate,
    total_sum,
)
from repro.errors import InvalidQueryError


def _pow2_arrays(max_side: int = 8, max_dims: int = 3):
    """Hypothesis strategy: float arrays with power-of-two extents."""
    sides = st.sampled_from([2, 4, 8][: max(1, max_side // 4 + 1)])
    shapes = st.lists(sides, min_size=1, max_size=max_dims).map(tuple)
    return shapes.flatmap(
        lambda shp: hnp.arrays(
            dtype=np.float64,
            shape=shp,
            elements=st.integers(min_value=-1000, max_value=1000).map(float),
        )
    )


class TestPartialSum:
    def test_pairs_1d(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert partial_sum(a, 0).tolist() == [3.0, 7.0]

    def test_axis_selection_2d(self):
        a = np.arange(8, dtype=float).reshape(2, 4)
        np.testing.assert_array_equal(partial_sum(a, 0), (a[0] + a[1])[None, :])
        np.testing.assert_array_equal(
            partial_sum(a, 1), np.array([[1.0, 5.0], [9.0, 13.0]])
        )

    def test_negative_axis(self):
        a = np.arange(8, dtype=float).reshape(2, 4)
        np.testing.assert_array_equal(partial_sum(a, -1), partial_sum(a, 1))

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="even extent"):
            partial_sum(np.zeros((3, 2)), 0)

    def test_extent_one_rejected(self):
        with pytest.raises(ValueError, match="even extent"):
            partial_sum(np.zeros((1, 2)), 0)

    def test_counter_counts_output_size(self):
        counter = OpCounter()
        partial_sum(np.zeros((4, 4)), 0, counter=counter)
        assert counter.additions == 8
        assert counter.subtractions == 0


class TestArgumentValidation:
    """Regression: bad axes/extents fail with messages naming the problem."""

    @pytest.mark.parametrize("op", [partial_sum, partial_residual])
    def test_odd_extent_message_names_axis_and_extent(self, op):
        with pytest.raises(
            ValueError,
            match=r"axis 1 has extent 3; partial aggregation requires an "
            r"even extent of at least 2",
        ):
            op(np.zeros((4, 3)), 1)

    @pytest.mark.parametrize("op", [partial_sum, partial_residual])
    def test_odd_extent_on_negative_axis_reports_normalized_axis(self, op):
        with pytest.raises(ValueError, match=r"axis 1 has extent 5"):
            op(np.zeros((2, 5)), -1)

    @pytest.mark.parametrize("op", [partial_sum, partial_residual])
    def test_out_of_range_axis_rejected(self, op):
        # Previously axis 5 silently wrapped onto axis 1 (5 % ndim).
        with pytest.raises(
            ValueError, match=r"axis 5 is out of bounds for a 2-dimensional"
        ):
            op(np.zeros((4, 4)), 5)

    @pytest.mark.parametrize("op", [partial_sum, partial_residual])
    def test_zero_dimensional_rejected(self, op):
        with pytest.raises(ValueError, match="0-dimensional"):
            op(np.asarray(3.0), 0)


class TestPartialResidual:
    def test_differences_1d(self):
        a = np.array([5.0, 2.0, 7.0, 7.0])
        assert partial_residual(a, 0).tolist() == [3.0, 0.0]

    def test_counter_counts_subtractions(self):
        counter = OpCounter()
        partial_residual(np.zeros((4, 4)), 1, counter=counter)
        assert counter.subtractions == 8
        assert counter.additions == 0


class TestPerfectReconstruction:
    """Property 1 (Eqs 3-4)."""

    @settings(max_examples=50, deadline=None)
    @given(_pow2_arrays())
    def test_round_trip_each_axis(self, a):
        for axis in range(a.ndim):
            p, r = analyze(a, axis)
            np.testing.assert_allclose(synthesize(p, r, axis), a)

    def test_integer_exactness(self, rng):
        a = rng.integers(-(2**40), 2**40, size=(8, 4)).astype(np.float64)
        p, r = analyze(a, 0)
        np.testing.assert_array_equal(synthesize(p, r, 0), a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            synthesize(np.zeros(2), np.zeros(4), 0)

    def test_synthesize_counter(self):
        counter = OpCounter()
        synthesize(np.zeros((2, 4)), np.zeros((2, 4)), 0, counter=counter)
        # Volume of the output: 16 cells -> 8 additions + 8 subtractions.
        assert counter.additions == 8
        assert counter.subtractions == 8


class TestNonExpansiveness:
    """Property 3 (Eqs 11-13)."""

    @settings(max_examples=30, deadline=None)
    @given(_pow2_arrays())
    def test_volume_preserved(self, a):
        for axis in range(a.ndim):
            p, r = analyze(a, axis)
            assert p.size + r.size == a.size


class TestDistributivity:
    """Property 2 (Eqs 5-8): cascades compute the k-th partial sums."""

    def test_pk_equals_block_sums(self, rng):
        a = rng.integers(0, 50, size=(16,)).astype(float)
        for k in range(5):
            expected = a.reshape(-1, 2**k).sum(axis=1)
            np.testing.assert_array_equal(partial_sum_k(a, 0, k), expected)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            partial_sum_k(np.zeros(4), 0, -1)


class TestSeparability:
    """Property 4 (Eq 14): operators on different dimensions commute."""

    @settings(max_examples=30, deadline=None)
    @given(_pow2_arrays(max_dims=3))
    def test_axis_order_irrelevant(self, a):
        if a.ndim < 2:
            return
        ab = partial_sum(partial_sum(a, 0), 1)
        ba = partial_sum(partial_sum(a, 1), 0)
        np.testing.assert_allclose(ab, ba)

    def test_residual_partial_commute(self, rng):
        a = rng.integers(0, 9, size=(4, 8)).astype(float)
        pr = partial_residual(partial_sum(a, 0), 1)
        rp = partial_sum(partial_residual(a, 1), 0)
        np.testing.assert_array_equal(pr, rp)


class TestTotalAggregation:
    def test_total_sum_matches_numpy(self, rng):
        a = rng.integers(0, 9, size=(8, 4)).astype(float)
        np.testing.assert_allclose(
            total_sum(a, 0)[0], a.sum(axis=0), rtol=0, atol=0
        )

    def test_total_aggregate_grand_total(self, rng):
        a = rng.integers(0, 9, size=(8, 4, 2)).astype(float)
        out = total_aggregate(a, (0, 1, 2))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == a.sum()

    def test_total_sum_rejects_non_power_of_two(self):
        # A non-power-of-two extent cannot arise from CubeShape, but the
        # operator itself must reject it.
        a = np.zeros((6, 2))
        with pytest.raises(ValueError, match="not a power of two"):
            total_sum(a, 0)

    def test_total_aggregate_cost_matches_model(self, rng):
        """Aggregating A to a view costs Vol(A) - Vol(view) (Eq 28)."""
        a = rng.integers(0, 9, size=(8, 4, 2)).astype(float)
        counter = OpCounter()
        out = total_aggregate(a, (0, 2), counter=counter)
        assert counter.total == a.size - out.size


class TestOpCounter:
    def test_accumulates_and_resets(self):
        counter = OpCounter()
        counter.add(additions=3, subtractions=2, label="x")
        counter.add(additions=1)
        assert counter.total == 6
        assert counter.events == [("x", 3, 2)]
        counter.reset()
        assert counter.total == 0
        assert counter.events == []


class TestOutBuffers:
    """The ``out=`` surface added for the buffer-pool executor."""

    def test_partial_sum_writes_into_out(self, rng):
        a = rng.standard_normal((4, 4))
        out = np.empty((2, 4))
        result = partial_sum(a, 0, out=out)
        assert result is out
        np.testing.assert_array_equal(out, partial_sum(a, 0))

    def test_partial_residual_writes_into_out(self, rng):
        a = rng.standard_normal((4, 4))
        out = np.empty((4, 2))
        result = partial_residual(a, 1, out=out)
        assert result is out
        np.testing.assert_array_equal(out, partial_residual(a, 1))

    def test_out_shape_mismatch_rejected(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="does not match result shape"):
            partial_sum(a, 0, out=np.empty((4, 4)))

    def test_synthesize_writes_into_out(self, rng):
        a = rng.standard_normal((4, 4))
        p, r = analyze(a, 1)
        out = np.empty((4, 4))
        result = synthesize(p, r, 1, out=out)
        assert result is out
        np.testing.assert_array_equal(out, synthesize(p, r, 1))

    def test_synthesize_out_validation(self, rng):
        a = rng.standard_normal((4, 4))
        p, r = analyze(a, 1)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            synthesize(p, r, 1, out=np.empty((2, 4)))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            synthesize(p, r, 1, out=np.empty((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            synthesize(p, r, 1, out=np.empty((4, 8))[:, ::2])

    def test_noncontiguous_input_no_copy(self, rng):
        """Strided even/odd slicing handles transposed inputs without the
        intermediate copy a pair reshape would force — same answers."""
        base = rng.standard_normal((4, 8))
        a = base.T  # non-contiguous view
        np.testing.assert_array_equal(partial_sum(a, 0), (base[:, 0::2] + base[:, 1::2]).T)
        np.testing.assert_array_equal(partial_residual(a, 0), (base[:, 0::2] - base[:, 1::2]).T)

    def test_error_taxonomy_unchanged_with_out(self):
        """The pre-existing ValueError messages survive the out= addition."""
        with pytest.raises(ValueError, match="even extent"):
            partial_sum(np.zeros((3, 2)), 0, out=np.empty((1, 2)))
        with pytest.raises(ValueError, match="out of bounds"):
            partial_residual(np.zeros((2, 2)), 5, out=np.empty((1, 2)))


NARROW = [np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32]


def _near_max(dtype) -> np.ndarray:
    """A 4x4 block at the top of ``dtype``'s range, with a few minimum
    cells so residuals change sign."""
    info = np.iinfo(dtype)
    values = np.full((4, 4), info.max, dtype=dtype)
    values[::3, 1::2] = info.min
    values[1, 1] = info.max - 1
    return values


def _entry_points():
    """Every public operator and kernel entry point, as ``f(values)``."""
    return {
        "partial_sum": lambda a: partial_sum(a, 0),
        "partial_residual": lambda a: partial_residual(a, 1),
        "analyze": lambda a: np.stack(analyze(a, 0)),
        "synthesize": lambda a: synthesize(a, a[::-1], 1),
        "partial_sum_k": lambda a: partial_sum_k(a, 1, 2),
        "total_sum": lambda a: total_sum(a, 0),
        "total_aggregate": lambda a: total_aggregate(a, (0, 1)),
        "fused_cascade": lambda a: fused_cascade(
            a, ((0, False), (1, True), (0, True))
        ),
        "fused_partial_sum_k": lambda a: fused_partial_sum_k(a, 0, 2),
        "fused_aggregate": lambda a: fused_aggregate(a, (1, 2)),
        "fused_synthesize": lambda a: fused_synthesize(a, a.T, 0),
    }


class TestIntegerOperands:
    """Integer cells aggregate in int64: no entry point wraps a narrow
    dtype, and residuals of unsigned cells keep their sign."""

    def test_a_wrapping_pair_is_exact(self):
        pair = np.array([2**30, 2**30], dtype=np.int32)
        assert partial_sum(pair, 0).tolist() == [2**31]
        assert fused_cascade(pair, ((0, False),)).tolist() == [2**31]
        assert partial_residual(np.array([0, 1], np.uint8), 0).tolist() == [-1]

    @pytest.mark.parametrize("name", sorted(_entry_points()))
    @pytest.mark.parametrize("dtype", NARROW, ids=lambda d: d.__name__)
    def test_near_the_maximum_equals_the_int64_computation(self, dtype, name):
        values = _near_max(dtype)
        operator = _entry_points()[name]
        got = operator(values)
        expected = operator(values.astype(np.int64))
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(_entry_points()))
    def test_uint64_is_refused(self, name):
        with pytest.raises(InvalidQueryError, match="uint64"):
            _entry_points()[name](np.ones((4, 4), dtype=np.uint64))

    def test_float64_passes_through_bit_identical(self):
        values = np.random.default_rng(3).normal(size=(8, 4))
        assert fused_cascade(values, ()) is values
        assert partial_sum_k(values, 0, 0) is values
        pairs = values[0::2] + values[1::2]
        assert partial_sum(values, 0).tobytes() == pairs.tobytes()
        residuals = values[:, 0::2] - values[:, 1::2]
        assert partial_residual(values, 1).tobytes() == residuals.tobytes()
        steps = ((0, False), (1, True))
        expected = partial_residual(partial_sum(values, 0), 1)
        assert fused_cascade(values, steps).tobytes() == expected.tobytes()
