"""Tape semantics and finite-difference verification of every adjoint."""

import threading
from unittest import mock

import numpy as np
import pytest

from evifuse import ops
from evifuse.gradcheck import check_input, check_param
from evifuse.network import Model, NetworkConfig, encode_scene, loss_ce
from evifuse.synth import synth_scene
from evifuse.tensor import (
    ShapeError, Tape, TapeConsumedError, Tensor, add, astype, concat, linear,
    narrow, rearrange, reshape, tmax, tmean, tsum,
)
from evifuse.verify import TOLERANCE


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
            y = tsum(Tensor(x.data) * 3.0)
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
            y = tsum(astype(x, np.float64) * 3.0)
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

    def test_float32_train_step_adjoints_stay_float32(self):
        cfg = NetworkConfig()
        scene = synth_scene(5, (cfg.height, cfg.width), 2, 1.0, 50000)
        model = Model(cfg)
        with Tape() as tape:
            logits = model.forward_encoded(scene.image, encode_scene(scene, cfg))
            loss = loss_ce(logits, scene.labels)
        dtypes = set()

        def recording(backward_fn):
            def run(g):
                grads = backward_fn(g)
                dtypes.update(gi.dtype for gi in grads if gi is not None)
                return grads
            return run

        tape._records[:] = [(out, inputs, recording(fn)) for out, inputs, fn in tape._records]
        tape.backward(loss)
        assert dtypes == {np.dtype(np.float32)}
        assert {t.grad_array().dtype for _, t in model.store.items()} == {np.dtype(np.float32)}

    def test_tape_is_per_thread(self):
        # A enters and leaves its tape while B is inside its own; B's ops
        # must still record on B's tape
        barrier = threading.Barrier(2, timeout=30)
        grads = {}

        def thread_a():
            with Tape():
                barrier.wait()  # 1: A is inside its tape
                barrier.wait()  # 2: B is inside its tape
            barrier.wait()  # 3: A has left

        def thread_b():
            x = t64(np.ones(3), requires_grad=True)
            barrier.wait()  # 1
            with Tape() as tape:
                barrier.wait()  # 2
                barrier.wait()  # 3
                y = tsum(x * 3.0)
            tape.backward(y)
            grads["b"] = x.grad

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert grads["b"] is not None
        np.testing.assert_array_equal(grads["b"], [3.0, 3.0, 3.0])


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tsum(x * x)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        assert _fd(lambda v: tsum(v * v), [1.0, 2.0]) < 1e-8

    def test_relu_away_from_kinks(self, rng):
        point = rng.standard_normal(20)
        point[np.abs(point) < 1e-3] = 0.5  # bounded away from the kink
        err = _fd(lambda v: tsum(ops.relu(v)), point)
        assert err < 1e-8

    def test_rejects_non_scalar_target(self, rng):
        with pytest.raises(ShapeError):
            _fd(lambda v: v * 2.0, rng.standard_normal(3))

    # tsum(y * Tensor(y.data)) treats the second factor as a constant, so its
    # analytic gradient is half the true one: a wrong backward the checks
    # must catch
    def test_halved_gradient_fails_finite_difference_check(self, rng):
        err = _fd(lambda v: tsum(v * Tensor(v.data)), rng.uniform(0.5, 2.0, 6))
        assert err >= 0.1

    def test_halved_gradient_fails_check_param(self, rng):
        w = t64(rng.uniform(0.5, 2.0, 6), requires_grad=True)
        x = t64(rng.standard_normal(6))

        def forward():
            y = ops.sigmoid(w * x)
            return tsum(y * Tensor(y.data))

        assert check_param(forward, w) >= 0.1
        assert check_param(lambda: tsum(ops.sigmoid(w * x)), w) < 1e-6


def _fd(f, point):
    """check_param for a function of one tensor, probed at ``point`` in float64."""
    x = t64(point, requires_grad=True)
    return check_param(lambda: f(x), x)


class TestOperatorAdjoints:
    """Every fused op's hand-written backward against central differences."""

    def test_add_mul_broadcast(self, rng):
        a = rng.standard_normal((3, 1, 4))
        b = t64(rng.standard_normal((1, 5, 4)))
        assert _fd(lambda v: tsum((v + b) * b), a) < 1e-6
        assert _fd(lambda v: tsum(v * 2.5 + 1.0), a) < 1e-6

    def test_matmul(self, rng):
        # linear without a bias is a plain batched matrix product
        a = rng.standard_normal((2, 3, 4))
        b = t64(rng.standard_normal((4, 5)))
        assert _fd(lambda v: tsum(linear(v, b)), a) < 1e-6
        c = t64(rng.standard_normal((2, 3, 4)))
        assert _fd(lambda v: tsum(linear(c, v)), rng.standard_normal((4, 5))) < 1e-6

    def test_reshape_transpose_concat_narrow(self, rng):
        a = rng.standard_normal((2, 3, 4))
        w = t64(rng.standard_normal((4, 3, 2)))
        assert _fd(lambda v: tsum(rearrange(v, (2, 1, 0), (4, 3, 2)) * w), a) < 1e-6
        assert _fd(lambda v: tsum(reshape(v, (6, 4)) * 0.5), a) < 1e-6
        other = t64(rng.standard_normal((2, 2, 4)))
        assert _fd(lambda v: tsum(concat((v, other), axis=1)), a) < 1e-6
        assert _fd(lambda v: tsum(narrow(v, 1, 1, 2)), a) < 1e-6

    def test_rearrange(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        w = t64(rng.standard_normal((2, 20, 3)))
        assert _fd(lambda v: tsum(rearrange(v, (0, 2, 3, 1), (2, 20, 3)) * w), a) < 1e-6
        w = t64(rng.standard_normal((2, 2, 3, 10)))
        split = lambda v: rearrange(v, (0, 2, 1, 3), (2, 2, 3, 10), split=(2, 3, 2, 10))
        assert _fd(lambda v: tsum(split(v) * w), a) < 1e-6

    def test_linear(self, rng):
        x = rng.standard_normal((2, 5, 3))
        w = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal(4))
        probe = t64(rng.standard_normal((2, 5, 4)))
        assert _fd(lambda v: tsum(linear(v, w, b) * probe), x) < 1e-6
        xt = t64(x)
        assert _fd(lambda v: tsum(linear(xt, v, b) * probe), w.data.copy()) < 1e-6
        assert _fd(lambda v: tsum(linear(xt, w, v) * probe), b.data.copy()) < 1e-6

    def test_fused_layout_ops_equal_their_compositions(self, rng):
        # one record each, bitwise the same values and gradients as the
        # reshape/transpose and product/add chains they replace
        def run(fn, *arrays):
            ts = [t64(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = fn(*ts)
                y = tsum(out * t64(np.linspace(-1.0, 1.0, out.size).reshape(out.shape)))
            tape.backward(y)
            return out.data, [t.grad for t in ts], len(tape)

        x = rng.standard_normal((2, 6, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        pairs = [
            ((lambda v: rearrange(v, (0, 2, 1, 3), (2, 2, 6, 2), split=(2, 6, 2, 2)),
              lambda v: rearrange(reshape(v, (2, 6, 2, 2)), (0, 2, 1, 3), (2, 2, 6, 2))),
             (x,)),
            ((lambda v: rearrange(v, (0, 2, 1), (2, 24)),
              lambda v: reshape(rearrange(v, (0, 2, 1), (2, 4, 6)), (2, 24))), (x,)),
            ((linear, lambda v, m, c: add(linear(v, m), c)), (x, w, b)),
        ]
        for (fused, composed), arrays in pairs:
            out_f, grads_f, records_f = run(fused, *arrays)
            out_c, grads_c, records_c = run(composed, *arrays)
            assert np.array_equal(out_f, out_c)
            for g_f, g_c in zip(grads_f, grads_c):
                assert np.array_equal(g_f, g_c)
            assert records_f == records_c - 1

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

    @pytest.mark.parametrize("x_shape, w_shape, stride, pad", [
        ((1, 8, 8, 8), (2, 8, 7, 7), 1, 3),
        ((2, 8, 5, 7), (1, 8, 3, 3), 2, 1),
    ])
    def test_conv2d_shift_sum(self, rng, x_shape, w_shape, stride, pad):
        # shapes with cout*Hp*Wp < cin*Ho*Wo take the shift-sum lowering
        x = t64(rng.standard_normal(x_shape), requires_grad=True)
        w = t64(rng.standard_normal(w_shape), requires_grad=True)
        b = t64(rng.standard_normal(w_shape[0]), requires_grad=True)
        out_shape = ops.conv2d(x, w, b, stride=stride, pad=pad).shape
        probe = t64(rng.standard_normal(out_shape))
        conv = lambda xv, wv, bv: tsum(ops.conv2d(xv, wv, bv, stride=stride, pad=pad) * probe)
        with mock.patch.object(ops, "_conv_shift_sum", wraps=ops._conv_shift_sum) as spy:
            # with hundreds of coordinates some gradients fall near 1e-4, where
            # the 1e-6 step's rounding alone reads as ~1e-5 relative error on
            # either lowering; the stage checks' tolerance covers that, and the
            # comparison below holds the adjoint to rounding
            assert _fd(lambda v: conv(v, w, b), x.data) < TOLERANCE
            assert _fd(lambda v: conv(x, v, b), w.data) < TOLERANCE
            assert _fd(lambda v: conv(x, w, v), b.data) < TOLERANCE
        assert spy.called

        # the same adjoint as the im2col lowering, to rounding
        def grads():
            for v in (x, w, b):
                v.grad = None
            with Tape() as tape:
                y = conv(x, w, b)
            tape.backward(y)
            return [v.grad_array() for v in (x, w, b)]

        shift_sum = grads()
        with mock.patch.object(ops, "_conv_shift_sum", ops._conv_im2col):
            im2col = grads()
        for got, ref in zip(shift_sum, im2col):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_pool2d(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        probe = t64(rng.standard_normal((2, 2, 3, 3)))
        assert _fd(lambda v: tsum(ops.pool2d(v, 2, 2) * probe), x) < 1e-6
        assert _fd(lambda v: tsum(ops.pool2d(v, 3, 1, pad=1)), x) < 1e-6

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
        assert _fd(lambda v: tsum(ops.resample(v, (9, 8)) * probe_up), x) < 1e-6

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
