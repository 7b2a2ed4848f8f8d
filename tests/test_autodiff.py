"""Tape semantics and finite-difference verification of every adjoint."""

import numpy as np
import pytest

from evifuse import ops
from evifuse.gradcheck import check_input, finite_difference_check
from evifuse.tensor import (
    ShapeError, Tape, TapeConsumedError, Tensor, backward, concat, matmul,
    narrow, tmax, tmean, transpose, tsum,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestTapeSemantics:
    def test_sum_gradient_is_ones(self, rng):
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        with Tape() as tape:
            y = tsum(x)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_sigmoid_gradient_at_zero(self):
        x = t64(np.zeros(5), requires_grad=True)
        with Tape() as tape:
            y = tsum(ops.sigmoid(x))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, np.full(5, 0.25))

    def test_backward_rejects_non_scalar(self, rng):
        x = t64(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_tape_single_use(self, rng):
        x = t64(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            y = tsum(x)
        tape.backward(y)
        with pytest.raises(TapeConsumedError):
            tape.backward(y)

    def test_unused_input_gets_zero_gradient(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        unused = t64(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = tsum(x * x)
        tape.backward(y)
        assert unused.grad is None
        np.testing.assert_allclose(unused.grad_array(), np.zeros(3))

    def test_detached_value_blocks_gradient(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = tsum(x.detach() * 3.0)
        tape.backward(y)
        assert x.grad is None

    def test_gradients_accumulate_across_passes(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                y = tsum(x)
            tape.backward(y)
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))

    def test_reused_input_sums_contributions(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = tsum(x + x)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))

    def test_no_recording_without_tape(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        y = tsum(x * x)
        assert y.requires_grad is False

    def test_astype_is_recorded(self):
        x = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            y = tsum(x.astype(np.float64) * 3.0)
        tape.backward(y)
        assert x.grad is not None and x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_float32_adjoints_stay_float32(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            tsum(ops.gelu(ops.gap(x) * 2.0) + tmean(x, axis=(2, 3), keepdims=True))
        for out, _, backward_fn in tape._records:
            grads = backward_fn(np.ones_like(out.data))
            assert all(g.dtype == np.float32 for g in grads if g is not None)

    def test_module_level_backward_alias(self, rng):
        x = t64(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = tsum(x * 4.0)
        backward(tape, y)
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        point = t64([1.0, 2.0])
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tsum(x * x)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        assert finite_difference_check(lambda v: tsum(v * v), point) < 1e-8

    def test_relu_away_from_kinks(self, rng):
        point = rng.standard_normal(20)
        point[np.abs(point) < 1e-3] = 0.5  # bounded away from the kink
        err = finite_difference_check(lambda v: tsum(ops.relu(v)), t64(point))
        assert err < 1e-8

    def test_rejects_non_scalar_target(self, rng):
        with pytest.raises(ShapeError):
            finite_difference_check(lambda v: v * 2.0, t64(rng.standard_normal(3)))


def _fd(f, point):
    return finite_difference_check(f, t64(point))


class TestOperatorAdjoints:
    """Every fused op's hand-written backward against central differences."""

    def test_add_mul_broadcast(self, rng):
        a = rng.standard_normal((3, 1, 4))
        b = t64(rng.standard_normal((1, 5, 4)))
        assert _fd(lambda v: tsum((v + b) * b), a) < 1e-6
        assert _fd(lambda v: tsum(v * 2.5 + 1.0), a) < 1e-6

    def test_matmul(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = t64(rng.standard_normal((4, 5)))
        assert _fd(lambda v: tsum(matmul(v, b)), a) < 1e-6
        c = t64(rng.standard_normal((2, 3, 4)))
        assert _fd(lambda v: tsum(matmul(c, v)), rng.standard_normal((4, 5))) < 1e-6

    def test_reshape_transpose_concat_narrow(self, rng):
        a = rng.standard_normal((2, 3, 4))
        w = t64(rng.standard_normal((4, 3, 2)))
        assert _fd(lambda v: tsum(transpose(v, (2, 1, 0)) * w), a) < 1e-6
        assert _fd(lambda v: tsum(v.reshape(6, 4) * 0.5), a) < 1e-6
        other = t64(rng.standard_normal((2, 2, 4)))
        assert _fd(lambda v: tsum(concat((v, other), axis=1)), a) < 1e-6
        assert _fd(lambda v: tsum(narrow(v, 1, 1, 2)), a) < 1e-6

    def test_reductions(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert _fd(lambda v: tsum(tmean(v, axis=1, keepdims=True) * 3.0), a) < 1e-6
        assert _fd(lambda v: tsum(tsum(v, axis=2) * 0.5), a) < 1e-6
        a_spread = a + np.arange(60).reshape(3, 4, 5)  # no ties
        assert _fd(lambda v: tsum(tmax(v, axis=1)), a_spread) < 1e-6

    def test_activations(self, rng):
        a = rng.standard_normal((3, 7))
        a[np.abs(a) < 1e-3] = 0.3
        assert _fd(lambda v: tsum(ops.sigmoid(v)), a) < 1e-6
        assert _fd(lambda v: tsum(ops.relu(v)), a) < 1e-6
        assert _fd(lambda v: tsum(ops.gelu(v)), a) < 1e-6
        probe = t64(rng.standard_normal((3, 7)))
        assert _fd(lambda v: tsum(ops.softmax(v, axis=1) * probe), a) < 1e-6

    def test_conv2d(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = t64(rng.standard_normal((4, 3, 3, 3)))
        b = t64(rng.standard_normal(4))
        probe = t64(rng.standard_normal((2, 4, 3, 3)))
        f_in = lambda v: tsum(ops.conv2d(v, w, b, stride=2, pad=1) * probe)
        assert _fd(f_in, x) < 1e-6
        xt = t64(x)
        f_w = lambda v: tsum(ops.conv2d(xt, v, b, stride=2, pad=1) * probe)
        assert _fd(f_w, w.data.copy()) < 1e-6
        f_b = lambda v: tsum(ops.conv2d(xt, w, v, stride=2, pad=1) * probe)
        assert _fd(f_b, b.data.copy()) < 1e-6

    def test_pool2d(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        probe = t64(rng.standard_normal((2, 2, 3, 3)))
        assert _fd(lambda v: tsum(ops.pool2d(v, "avg", 2, 2) * probe), x) < 1e-6
        assert _fd(lambda v: tsum(ops.pool2d(v, "max", 2, 2) * probe), x) < 1e-6
        assert _fd(lambda v: tsum(ops.pool2d(v, "avg", 3, 1, pad=1)), x) < 1e-6

    def test_normalization(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)) * 2 + 0.5
        g = t64(rng.standard_normal(3) + 1.0)
        b = t64(rng.standard_normal(3))
        probe = t64(rng.standard_normal((2, 3, 4, 4)))
        assert _fd(lambda v: tsum(ops.batchnorm2d(v, g, b) * probe), x) < 1e-6
        assert _fd(lambda v: tsum(ops.layernorm_channels(v, g, b) * probe), x) < 2e-6
        xt = t64(x)
        assert _fd(lambda v: tsum(ops.batchnorm2d(xt, v, b) * probe), g.data.copy()) < 1e-6
        assert _fd(lambda v: tsum(ops.layernorm_channels(xt, g, v) * probe), b.data.copy()) < 1e-6

    def test_resample(self, rng):
        x = rng.standard_normal((1, 2, 4, 6))
        probe_up = t64(rng.standard_normal((1, 2, 9, 8)))
        assert _fd(lambda v: tsum(ops.resample(v, (9, 8), "bilinear") * probe_up), x) < 1e-6
        probe_nn = t64(rng.standard_normal((1, 2, 8, 12)))
        assert _fd(lambda v: tsum(ops.resample(v, (8, 12), "nearest") * probe_nn), x) < 1e-6

    def test_attention_core(self, rng):
        q = rng.standard_normal((1, 2, 3, 4))
        k = t64(rng.standard_normal((1, 2, 5, 4)))
        v = t64(rng.standard_normal((1, 2, 5, 4)))
        probe = t64(rng.standard_normal((1, 2, 3, 4)))
        assert _fd(lambda x: tsum(ops.attention_core(x, k, v) * probe), q) < 1e-6
        qt = t64(q)
        assert _fd(lambda x: tsum(ops.attention_core(qt, x, v) * probe), k.data.copy()) < 1e-6
        assert _fd(lambda x: tsum(ops.attention_core(qt, k, x) * probe), v.data.copy()) < 1e-6

    def test_diff_attention(self, rng, monkeypatch):
        # two-row query blocks, so the adjoint's block loop runs three times
        monkeypatch.setattr(ops, "_ATTN_BLOCK_BYTES", 2 * 2 * 4 * 8)
        shapes = [(1, 2, 5, 3)] * 2 + [(1, 2, 4, 3)] * 3
        points = [rng.standard_normal(s) for s in shapes] + [rng.uniform(0.2, 0.9, 2)]
        probe = t64(rng.standard_normal((1, 2, 5, 3)))
        for i, point in enumerate(points):
            fixed = [t64(p) for p in points]

            def f(x, i=i, fixed=fixed):
                args = fixed[:i] + [x] + fixed[i + 1:]
                return tsum(ops.diff_attention(*args) * probe)

            assert _fd(f, point) < 1e-6, f"input {i}"

    def test_cross_entropy(self, rng):
        logits = rng.standard_normal((1, 3, 4, 4))
        labels = rng.integers(0, 3, size=(4, 4))
        assert _fd(lambda v: ops.cross_entropy(v, labels), logits) < 1e-6

    def test_check_input_helper(self, rng):
        x = t64(rng.standard_normal((2, 3)))
        err = check_input(lambda: tsum(x * x), x)
        assert err < 1e-8
        assert x.requires_grad is False
