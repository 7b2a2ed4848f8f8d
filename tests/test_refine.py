"""Activity-guided event refinement: pyramid, gates, mask, residual."""

import numpy as np
import pytest

from evifuse import ops
from evifuse.params import ParamStore, make_rng
from evifuse.refine import (
    attention_mask, build_activity_pyramid, channel_weights,
    init_refine_params, refine, refine_forward,
)
from evifuse.tensor import ShapeError, Tensor


def make_params(seed=1, width=4):
    store = ParamStore()
    p = init_refine_params(store, make_rng(seed), width)
    return p, store


def rand_t(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape), dtype=dtype)


class TestActivityPyramid:
    def test_zero_activity_zero_biases_gives_zeros(self):
        p, _ = make_params()
        a_cm = Tensor(np.zeros((1, 2, 16, 16)), dtype=np.float64)
        out = build_activity_pyramid(a_cm, p)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_shape_contract(self, rng):
        p, _ = make_params(width=4)
        a_cm = Tensor(np.abs(rng.standard_normal((2, 3, 32, 24))), dtype=np.float64)
        out = build_activity_pyramid(a_cm, p)
        assert out.shape == (6, 4, 8, 6)

    def test_requires_divisible_dims(self, rng):
        p, _ = make_params()
        with pytest.raises(ShapeError):
            build_activity_pyramid(rand_t(rng, (1, 1, 30, 32)), p)

    def test_constant_activity_constant_interior(self):
        # all-ones kernels, zero biases: interior of the pre-normalization sum
        # is 49c (stem) + 9c + 9c (pooled branches)
        p, _ = make_params(width=1)
        c = 0.37
        for t in (p.stem.w, p.p1.w, p.p2.w):
            t.data = np.ones_like(t.data)
        a_cm = Tensor(np.full((1, 1, 32, 32), c), dtype=np.float64)
        x = Tensor(a_cm.data.reshape(1, 1, 32, 32))
        f_s = ops.conv2d(x, p.stem.w, p.stem.b, stride=4, pad=3)
        f_p1 = ops.conv2d(ops.pool2d(x, 3, 3), p.p1.w, p.p1.b, pad=1)
        f_p2 = ops.conv2d(ops.pool2d(x, 5, 5), p.p2.w, p.p2.b, pad=1)
        merged = (f_s + ops.resample(f_p1, (8, 8)) + ops.resample(f_p2, (8, 8))).data
        np.testing.assert_allclose(merged[0, 0, 2:6, 2:6], 67 * c, rtol=1e-6)


class TestChannelWeights:
    def test_zero_conv_gives_half(self, rng):
        p, _ = make_params()
        p.attn.w.data = np.zeros_like(p.attn.w.data)
        p.attn.b.data = np.zeros_like(p.attn.b.data)
        feat = rand_t(rng, (2, 4, 8, 8))
        w = channel_weights(feat, p)
        np.testing.assert_allclose(w.data, 0.5)

    def test_strictly_in_unit_interval(self, rng):
        p, _ = make_params()
        w = channel_weights(rand_t(rng, (3, 4, 8, 8)), p)
        assert (w.data > 0).all() and (w.data < 1).all()

    def test_identity_conv_on_constant_features(self):
        p, _ = make_params()
        p.attn.w.data = np.eye(4).reshape(4, 4, 1, 1)
        p.attn.b.data = np.zeros_like(p.attn.b.data)
        v = -0.83
        feat = Tensor(np.full((2, 4, 8, 8), v), dtype=np.float64)
        w = channel_weights(feat, p)
        np.testing.assert_allclose(w.data, 1.0 / (1.0 + np.exp(-v)), rtol=1e-12)

    def test_matches_hand_rolled_oracle(self, rng):
        p, _ = make_params()
        feat = rand_t(rng, (2, 4, 6, 6))
        got = channel_weights(feat, p).data
        pooled = feat.data.mean(axis=(2, 3))  # [B, C]
        wm = p.attn.w.data.reshape(4, 4)
        logits = pooled @ wm.T + p.attn.b.data
        expected = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(got[:, :, 0, 0], expected, atol=1e-6)


class TestAttentionMask:
    def test_zero_mask_conv_gives_zero(self, rng):
        p, _ = make_params()
        p.mask.w.data = np.zeros_like(p.mask.w.data)
        p.mask.b.data = np.zeros_like(p.mask.b.data)
        feat = rand_t(rng, (2, 4, 4, 4))
        w = channel_weights(feat, p)
        m = attention_mask(feat, w, (16, 16), 1, 2, p)
        assert m.shape == (1, 2, 16, 16)
        np.testing.assert_allclose(m.data, 0.0, atol=1e-12)

    def test_unit_weights_identity_conv_resamples_features(self, rng):
        # single-channel width with a pass-through 1x1 conv: the mask is just
        # the resampled pyramid features
        p, _ = make_params(width=1)
        p.mask.w.data = np.ones_like(p.mask.w.data)
        p.mask.b.data = np.zeros_like(p.mask.b.data)
        feat = rand_t(rng, (2, 1, 4, 4))
        ones = Tensor(np.ones((2, 1, 1, 1)), dtype=np.float64)
        m = attention_mask(feat, ones, (16, 16), 2, 1, p)
        expected = ops.resample(feat, (16, 16)).data.reshape(2, 1, 16, 16)
        np.testing.assert_allclose(m.data, expected, atol=1e-12)

    def test_matches_step_by_step_oracle(self, rng):
        p, _ = make_params(width=3)
        feat = rand_t(rng, (2, 3, 4, 4))
        w = channel_weights(feat, p)
        got = attention_mask(feat, w, (8, 8), 2, 1, p).data
        gated = feat.data * w.data
        conv = np.einsum("ok,bkhw->bohw", p.mask.w.data[:, :, 0, 0], gated)
        conv = conv + p.mask.b.data.reshape(1, 1, 1, 1)
        up = ops.resample(Tensor(conv), (8, 8)).data
        np.testing.assert_allclose(got, up.reshape(2, 1, 8, 8), atol=1e-6)


class TestRefine:
    def test_zero_mask_is_identity(self, rng):
        e_vt = rand_t(rng, (1, 3, 8, 8))
        m = Tensor(np.zeros((1, 3, 8, 8)), dtype=np.float64)
        out = refine(e_vt, m)
        np.testing.assert_array_equal(out.data, e_vt.data)

    def test_unit_mask_doubles(self, rng):
        e_vt = rand_t(rng, (1, 3, 8, 8))
        m = Tensor(np.ones((1, 3, 8, 8)), dtype=np.float64)
        np.testing.assert_allclose(refine(e_vt, m).data, 2 * e_vt.data)

    def test_zeros_stay_zero_for_any_mask(self, rng):
        e_vt = rand_t(rng, (1, 2, 8, 8))
        e_vt.data[0, 0, 2:4] = 0.0
        m = rand_t(rng, (1, 2, 8, 8))
        out = refine(e_vt, m)
        assert not out.data[0, 0, 2:4].any()

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            refine(rand_t(rng, (1, 2, 8, 8)), rand_t(rng, (1, 2, 8, 4)))


class TestRefineForward:
    def test_zeroed_mask_conv_is_identity_on_events(self, rng):
        p, _ = make_params()
        p.mask.w.data = np.zeros_like(p.mask.w.data)
        p.mask.b.data = np.zeros_like(p.mask.b.data)
        e_vt = rand_t(rng, (1, 3, 32, 32))
        a_cm = Tensor(np.abs(rng.standard_normal((1, 3, 32, 32))), dtype=np.float64)
        out = refine_forward(e_vt, a_cm, p)
        np.testing.assert_array_equal(out.data, e_vt.data)

    def test_residual_guarantee(self, rng):
        p, _ = make_params()
        e_vt = rand_t(rng, (1, 2, 16, 16))
        a_cm = Tensor(np.abs(rng.standard_normal((1, 2, 16, 16))), dtype=np.float64)
        feat = build_activity_pyramid(a_cm, p)
        w = channel_weights(feat, p)
        m = attention_mask(feat, w, (16, 16), 1, 2, p)
        out = refine_forward(e_vt, a_cm, p)
        np.testing.assert_allclose(out.data - e_vt.data, e_vt.data * m.data,
                                   atol=1e-6)

    def test_doubling_activity_keeps_shape_and_finiteness(self, rng):
        p, _ = make_params()
        e_vt = rand_t(rng, (1, 2, 16, 16))
        a_cm = Tensor(np.abs(rng.standard_normal((1, 2, 16, 16))), dtype=np.float64)
        out1 = refine_forward(e_vt, a_cm, p)
        out2 = refine_forward(e_vt, a_cm * 2.0, p)
        assert out1.shape == out2.shape == e_vt.shape
        assert np.isfinite(out2.data).all()
