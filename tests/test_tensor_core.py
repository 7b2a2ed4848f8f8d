"""Forward semantics of the tensor building blocks against naive oracles."""

from unittest import mock

import numpy as np
import pytest

from evifuse import ops
from evifuse.tensor import NonFiniteError, ShapeError, Tape, Tensor, linear

from _oracles import (
    attention_naive, conv2d_naive, gap_naive, merge_heads, pool2d_naive, split_heads,
    token_map,
)


def t(arr, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype))


class TestTensorBasics:
    def test_shape_data_consistency(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        assert x.size == 24 and x.shape == (2, 3, 4)

    def test_rejects_nan_and_inf(self):
        for dtype in (np.float64, np.float32):
            for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf, 2.0]):
                with pytest.raises(NonFiniteError):
                    Tensor(np.array(bad, dtype=dtype))

    def test_float32_whose_sum_overflows_is_finite(self):
        # the float32 sum is Inf, yet every entry is finite: no NonFiniteError
        # and no overflow warning (the suite turns that warning into an error)
        x = Tensor(np.array([3e38, 3e38], dtype=np.float32))
        assert x.data.dtype == np.float32

    def test_float64_whose_sum_overflows_is_finite(self):
        x = Tensor(np.array([1.7e308, 1.7e308]))
        assert x.data.dtype == np.float64

    def test_item_reads_a_one_value_tensor(self):
        assert t([[2.5]]).item() == 2.5
        with pytest.raises(ShapeError):
            t([1.0, 2.0]).item()

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_linear_rejects_mismatched_operands(self):
        # a map of 3 channels against a weight for 4; tokens; a 3-D weight
        for x, w in (((1, 3, 2, 2), (4, 4)), ((1, 4, 3), (3, 4)), ((1, 3, 2, 2), (1, 3, 4))):
            with pytest.raises(ShapeError):
                linear(Tensor(np.ones(x)), Tensor(np.ones(w)))


class TestConv2d:
    def test_identity_1x1(self, rng):
        x = t(rng.standard_normal((2, 3, 5, 5)))
        w = t(np.eye(3).reshape(3, 3, 1, 1))
        out = ops.conv2d(x, w, t(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data)

    def test_all_ones_3x3_counts_taps(self):
        x = t(np.ones((1, 1, 5, 5)))
        w = t(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w, t(np.zeros(1)), stride=1, pad=1)
        assert out.data[0, 0, 2, 2] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 2] == 6.0

    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal((4, 3, 8, 8))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        out = ops.conv2d(t(x), t(w), t(b), stride=1, pad=0)
        np.testing.assert_allclose(out.data, conv2d_naive(x, w, b, 1, 0), atol=1e-6)

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 2, 1)])
    def test_non_contiguous_input_matches_oracle(self, rng, k, stride, pad):
        # a transposed view; at pad 0 there is no pad copy, so the window
        # view reads it in place
        x = rng.standard_normal((2, 7, 6, 3)).transpose(0, 3, 1, 2)
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        out = ops.conv2d(t(x), t(w), t(b), stride=stride, pad=pad)
        np.testing.assert_allclose(
            out.data, conv2d_naive(x, w, b, stride, pad), atol=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_shapes_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        k = int(rng.choice([1, 3]))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(k, 8))
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        if (h + 2 * pad - k) // stride + 1 < 1:
            return
        out = ops.conv2d(t(x), t(w), t(b), stride=stride, pad=pad)
        np.testing.assert_allclose(
            out.data, conv2d_naive(x, w, b, stride, pad), atol=1e-6)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            ops.conv2d(t(rng.standard_normal((1, 2, 4, 4))),
                       t(rng.standard_normal((1, 3, 3, 3))))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            ops.conv2d(t(rng.standard_normal((1, 1, 4, 4))),
                       t(rng.standard_normal((1, 1, 2, 2))))

    def test_nonpositive_output_rejected(self, rng):
        with pytest.raises(ShapeError):
            ops.conv2d(t(rng.standard_normal((1, 1, 2, 2))),
                       t(rng.standard_normal((1, 1, 5, 5))))


# (input, weight, stride, pad) pairs on each side of conv2d's rule: the
# shift-sum lowering when cout*Hp*Wp < cin*Ho*Wo, im2col otherwise
SHIFT_SUM_SHAPES = [
    ((2, 8, 6, 9), (2, 8, 7, 7), 1, 3),
    ((1, 6, 9, 7), (1, 6, 3, 3), 1, 0),
    ((2, 8, 5, 7), (1, 8, 3, 3), 2, 1),
    ((1, 16, 4, 6), (3, 16, 1, 1), 1, 0),
    ((2, 6, 7, 9), (2, 6, 3, 5), 1, 2),
]
IM2COL_SHAPES = [
    ((2, 2, 5, 7), (3, 2, 7, 7), 1, 3),
    ((1, 4, 6, 8), (4, 4, 3, 3), 1, 0),
    ((2, 3, 6, 6), (4, 3, 3, 3), 2, 1),
    ((1, 2, 6, 5), (3, 2, 5, 3), 1, 1),
]


class TestConv2dLowerings:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shift_sum, shapes", [
        *((True, s) for s in SHIFT_SUM_SHAPES), *((False, s) for s in IM2COL_SHAPES)])
    def test_float64_matches_oracle(self, rng, shift_sum, shapes, bias):
        x_shape, w_shape, stride, pad = shapes
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[0]) if bias else None
        with mock.patch.object(ops, "_conv_shift_sum", wraps=ops._conv_shift_sum) as spy:
            out = ops.conv2d(t(x), t(w), t(b) if bias else None, stride=stride, pad=pad)
        assert spy.called == shift_sum
        np.testing.assert_allclose(
            out.data, conv2d_naive(x, w, b, stride, pad), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shapes", [SHIFT_SUM_SHAPES[0], IM2COL_SHAPES[0]])
    def test_inf_input_raises(self, rng, shapes):
        x_shape, w_shape, stride, pad = shapes
        x = t(rng.standard_normal(x_shape))
        x.data[0, 0, 2, 3] = np.inf  # past the constructor's check
        w = t(rng.standard_normal(w_shape))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError):
            ops.conv2d(x, w, stride=stride, pad=pad)


class TestPool2d:
    def test_avg_2x2(self):
        out = ops.pool2d(t([[[[1.0, 2.0], [3.0, 4.0]]]]), 2)
        np.testing.assert_allclose(out.data, [[[[2.5]]]])

    @pytest.mark.parametrize("kind", ["avg"])  # the one pooling kind
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_oracle(self, kind, seed):
        rng = np.random.default_rng(seed + 100)
        kernel = int(rng.integers(1, 6))
        h, w = (int(v) for v in rng.integers(kernel, 4 * kernel + 1, 2))
        x = rng.standard_normal((2, 2, h, w))
        out = ops.pool2d(t(x), kernel)
        np.testing.assert_allclose(
            out.data, pool2d_naive(x, kernel, kernel, 0), atol=1e-6)


class TestGap:
    def test_constant(self):
        out = ops.gap(t(np.full((2, 3, 4, 4), 2.5)))
        np.testing.assert_allclose(out.data, np.full((2, 3, 1, 1), 2.5))

    def test_small_example(self):
        out = ops.gap(t([[[[1.0, 3.0], [5.0, 7.0]]]]))
        assert out.data[0, 0, 0, 0] == pytest.approx(4.0)

    def test_matches_direct_mean(self, rng):
        x = rng.standard_normal((3, 4, 5, 6))
        np.testing.assert_allclose(ops.gap(t(x)).data, gap_naive(x), atol=1e-6)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(t([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_extremes_stay_finite(self):
        out = ops.sigmoid(t([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[1] == pytest.approx(1.0)

    def test_relu(self):
        np.testing.assert_allclose(
            ops.relu(t([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])

    def test_softmax_uniform(self):
        out = ops.softmax(t([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_log3(self):
        out = ops.softmax(t([np.log(3.0), 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.75, 0.25], atol=1e-12)

    def test_softmax_sums_to_one_and_positive(self, rng):
        x = t(rng.standard_normal((3, 5, 7)))
        out = ops.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones((3, 7)), atol=1e-6)
        assert (out.data > 0).all()

    def test_softmax_bad_axis(self, rng):
        with pytest.raises(ShapeError):
            ops.softmax(t(rng.standard_normal((2, 2))), axis=5)

    def test_gelu_fixed_points(self):
        out = ops.gelu(t([0.0, 100.0, -100.0]))
        assert out.data[0] == 0.0
        assert out.data[1] == pytest.approx(100.0)
        assert out.data[2] == pytest.approx(0.0, abs=1e-6)


class TestNormalize:
    def test_constant_input_maps_to_shift(self, rng):
        x = t(np.full((2, 3, 4, 4), 7.0))
        g, b = t(np.ones(3)), t(np.zeros(3))
        np.testing.assert_allclose(ops.batchnorm2d(x, g, b).data, np.zeros((2, 3, 4, 4)))
        np.testing.assert_allclose(ops.layernorm_channels(x, g, b).data, np.zeros((2, 3, 4, 4)))

    def test_zero_variance_yields_affine_shift(self):
        # degenerate case: epsilon prevents the division from failing and the
        # output collapses to the shift
        x = t(np.full((2, 2, 3, 3), -4.2))
        g = t(np.array([3.0, -1.0]))
        b = t(np.array([0.7, -2.5]))
        out = ops.batchnorm2d(x, g, b)
        np.testing.assert_allclose(out.data[:, 0], 0.7)
        np.testing.assert_allclose(out.data[:, 1], -2.5)

    def test_symmetric_pm_one(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[-1.0, 1.0], [1.0, -1.0]]
        out = ops.batchnorm2d(t(x), t(np.ones(1)), t(np.zeros(1)))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(np.abs(out.data), np.full((1, 1, 2, 2), expected), rtol=1e-6)
        assert np.sign(out.data[0, 0, 0, 0]) == -1

    def test_statistical_identity(self, rng):
        x = t(rng.standard_normal((4, 3, 8, 8)) * 3 + 1)
        out = ops.batchnorm2d(x, t(np.ones(3)), t(np.zeros(3)))
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1).max() < 1e-4

    @pytest.mark.parametrize("op, shape", [(ops.batchnorm2d, (1, 1, 2, 2)),
                                           (ops.layernorm_channels, (1, 2, 2, 1))])
    def test_overflowing_variance_raises(self, op, shape):
        # (x - mean)^2 overflows float32; an Inf variance would return beta
        f32 = np.float32
        x = t(np.reshape([[1e20, -1e20], [3.0, 4.0]], shape), f32)
        g, b = t(np.ones(shape[1]), f32), t(np.full(shape[1], 0.25), f32)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            op(x, g, b)

    def test_layernorm_statistical_identity(self, rng):
        x = t(rng.standard_normal((2, 6, 4, 4)) * 2 - 1)
        out = ops.layernorm_channels(x, t(np.ones(6)), t(np.zeros(6)))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-6
        assert np.abs(out.data.var(axis=1) - 1).max() < 1e-4


class TestResample:
    def test_bilinear_constant_preserved(self):
        x = t(np.full((1, 2, 4, 4), 3.0))
        out = ops.resample(x, (16, 16))
        np.testing.assert_allclose(out.data, np.full((1, 2, 16, 16), 3.0), atol=1e-12)

    def test_bilinear_ramp_matches_closed_form(self):
        # source coordinate (j+0.5)*scale - 0.5, edge-clamped; a ramp stays
        # linear in that coordinate
        n, m = 8, 16
        ramp = np.arange(n, dtype=np.float64) * 2.0 + 1.0
        x = t(np.tile(ramp, (1, 1, n, 1)))
        out = ops.resample(x, (n, m))
        src = np.clip((np.arange(m) + 0.5) * (n / m) - 0.5, 0.0, n - 1.0)
        expected = src * 2.0 + 1.0
        np.testing.assert_allclose(out.data[0, 0, 0], expected, atol=1e-6)

    def test_same_size_returns_its_input_unrecorded(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 7)), requires_grad=True)
        with Tape() as tape:
            out = ops.resample(x, (5, 7))
        assert out is x and len(tape) == 0

    def test_cached_interp_matrix_is_read_only(self):
        m = ops._interp_matrix(4, 9, np.float64)
        before = m.copy()
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        np.testing.assert_array_equal(
            ops._interp_matrix(4, 9, np.float64), before)

    def test_interp_cache_is_bounded(self):
        first = ops._interp_matrix(4, 9, np.float64).copy()
        for size in range(2, 80):
            ops.resample(t(np.ones((1, 1, 3, 3))), (size, 5))
        assert ops._interp_matrix.cache_info().currsize <= 64
        np.testing.assert_array_equal(ops._interp_matrix(4, 9, np.float64), first)

    def test_downsample_shape(self, rng):
        out = ops.resample(t(rng.standard_normal((1, 1, 21, 21))), (16, 16))
        assert out.shape == (1, 1, 16, 16)


def _attend(q, k, v):
    """attention_core on [B,h,N,d] heads, passed as [B,h*d,N,1] maps and split back."""
    heads = q.shape[1]
    out = ops.attention_core(*(t(token_map(merge_heads(a))) for a in (q, k, v)), heads)
    return split_heads(token_map(out.data), heads)


class TestAttentionCore:
    def test_zero_queries_average_values(self, rng):
        q = np.zeros((1, 2, 4, 3))
        k = rng.standard_normal((1, 2, 5, 3))
        v = rng.standard_normal((1, 2, 5, 3))
        out = _attend(q, k, v)
        expected = np.broadcast_to(v.mean(axis=2, keepdims=True), out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_single_key_returns_value(self, rng):
        q = rng.standard_normal((1, 1, 3, 4))
        k = rng.standard_normal((1, 1, 1, 4))
        v = rng.standard_normal((1, 1, 1, 4))
        out = _attend(q, k, v)
        expected = np.broadcast_to(v, out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed + 50)
        b, h, n, nk, d = 2, 2, int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        q = rng.standard_normal((b, h, n, d))
        k = rng.standard_normal((b, h, nk, d))
        v = rng.standard_normal((b, h, nk, d))
        np.testing.assert_allclose(_attend(q, k, v), attention_naive(q, k, v), atol=1e-6)

    def test_mismatched_dims_rejected(self, rng):
        # (query, key, value) map shapes and the head count
        cases = [
            ((1, 6, 2, 1), (1, 8, 2, 1), (1, 8, 2, 1), 2),  # query and key widths differ
            ((1, 6, 2, 1), (1, 6, 3, 1), (1, 6, 3), 2),  # value as tokens
            ((1, 6, 2, 1), (2, 6, 3, 1), (2, 6, 3, 1), 2),  # batch differs
            ((1, 6, 2, 1), (1, 6, 3, 1), (1, 6, 4, 1), 2),  # key and value extents differ
            ((1, 6, 2, 1), (1, 6, 3, 1), (1, 4, 3, 1), 2),  # value width differs
            ((1, 6, 2, 1), (1, 6, 3, 1), (1, 6, 3, 1), 4),  # four heads do not divide 6
            ((1, 6, 2, 1), (1, 6, 3, 1), (1, 6, 3, 1), 0),  # no heads
        ]
        for *shapes, heads in cases:
            with pytest.raises(ShapeError):
                ops.attention_core(*(t(rng.standard_normal(s)) for s in shapes), heads)
        out = ops.attention_core(*(t(rng.standard_normal(s)) for s in cases[-1][:3]), 3)
        assert out.shape == (1, 6, 2, 1)


class TestConcurrency:
    def test_pure_ops_safe_across_threads(self, rng):
        # no tape active: forward ops share no state, so concurrent
        # evaluation must reproduce the serial results exactly
        from concurrent.futures import ThreadPoolExecutor

        xs = [rng.standard_normal((2, 3, 8, 8)) for _ in range(16)]
        w = t(rng.standard_normal((4, 3, 3, 3)))
        b = t(rng.standard_normal(4))

        def run(arr):
            out = ops.conv2d(t(arr), w, b, stride=1, pad=1)
            return ops.softmax(ops.gelu(out), axis=1).data

        serial = [run(x) for x in xs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, xs))
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s, p)
