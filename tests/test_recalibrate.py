"""Modality recalibration: channel gates, spatial stats/masks, residual."""

import numpy as np
import pytest

from evifuse.params import ParamStore, make_rng
from evifuse.recalibrate import (
    channel_recalibrate, init_recal_params, recalibrate, spatial_masks,
    spatial_stats,
)
from evifuse.tensor import ShapeError, Tensor

from _oracles import conv2d_naive


def make_params(seed=1, c_event=3, c_image=4):
    store = ParamStore()
    return init_recal_params(store, make_rng(seed), c_event, c_image), store


def rand_t(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _zero(t):
    t.data = np.zeros_like(t.data)


class TestInitContracts:
    def test_gammas_start_at_zero(self):
        p, _ = make_params()
        assert float(p.gamma_e.data) == 0.0
        assert float(p.gamma_i.data) == 0.0

    def test_spatial_conv_shape(self):
        p, _ = make_params()
        assert p.spatial.w.shape == (2, 4, 7, 7)


class TestChannelRecalibrate:
    def test_zero_conv_halves_both_streams(self, rng):
        p, _ = make_params()
        for t in (p.ce.w, p.ce.b, p.ci.w, p.ci.b):
            _zero(t)
        ev, im = rand_t(rng, (1, 3, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        ev_c, im_c = channel_recalibrate(ev, im, p)
        np.testing.assert_allclose(ev_c.data, ev.data / 2, atol=1e-12)
        np.testing.assert_allclose(im_c.data, im.data / 2, atol=1e-12)

    def test_zero_input_stays_zero(self, rng):
        p, _ = make_params()
        ev = Tensor(np.zeros((1, 3, 8, 8)), dtype=np.float64)
        im = rand_t(rng, (1, 4, 8, 8))
        ev_c, _ = channel_recalibrate(ev, im, p)
        assert not ev_c.data.any()

    def test_matches_gap_conv_sigmoid_oracle(self, rng):
        p, _ = make_params()
        ev, im = rand_t(rng, (2, 3, 6, 6)), rand_t(rng, (2, 4, 6, 6))
        ev_c, im_c = channel_recalibrate(ev, im, p)
        for stream, (w, b, c) in ((ev, (p.ce.w, p.ce.b, 3)), (im, (p.ci.w, p.ci.b, 4))):
            pooled = stream.data.mean(axis=(2, 3))
            logits = pooled @ w.data.reshape(c, c).T + b.data
            gates = 1.0 / (1.0 + np.exp(-logits))
            expected = stream.data * gates[:, :, None, None]
            got = ev_c.data if stream is ev else im_c.data
            np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_spatial_mismatch_rejected(self, rng):
        p, _ = make_params()
        with pytest.raises(ShapeError):
            channel_recalibrate(rand_t(rng, (1, 3, 8, 8)), rand_t(rng, (1, 4, 4, 4)), p)


class TestSpatialStats:
    def test_single_channel_avg_equals_max(self, rng):
        ev = rand_t(rng, (1, 1, 5, 5))
        im = rand_t(rng, (1, 1, 5, 5))
        s = spatial_stats(ev, im)
        np.testing.assert_allclose(s.data[:, 0], s.data[:, 1])
        np.testing.assert_allclose(s.data[:, 2], s.data[:, 3])

    def test_two_channel_example(self):
        ev = Tensor(np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)])[None],
                    dtype=np.float64)
        s = spatial_stats(ev, ev)
        assert s.data[0, 0, 0, 0] == pytest.approx(2.0)  # avg {1,3}
        assert s.data[0, 1, 0, 0] == pytest.approx(3.0)  # max {1,3}

    def test_matches_per_pixel_loop(self, rng):
        ev, im = rand_t(rng, (2, 3, 4, 4)), rand_t(rng, (2, 5, 4, 4))
        s = spatial_stats(ev, im).data
        for b in range(2):
            for y in range(4):
                for x in range(4):
                    assert s[b, 0, y, x] == pytest.approx(ev.data[b, :, y, x].mean())
                    assert s[b, 1, y, x] == pytest.approx(ev.data[b, :, y, x].max())
                    assert s[b, 2, y, x] == pytest.approx(im.data[b, :, y, x].mean())
                    assert s[b, 3, y, x] == pytest.approx(im.data[b, :, y, x].max())


class TestSpatialMasks:
    def test_zero_conv_gives_half(self, rng):
        p, _ = make_params()
        _zero(p.spatial.w)
        _zero(p.spatial.b)
        masks = spatial_masks(rand_t(rng, (1, 4, 8, 8)), p)
        np.testing.assert_allclose(masks.data, 0.5)

    def test_bounded_in_unit_interval(self, rng):
        p, _ = make_params()
        masks = spatial_masks(rand_t(rng, (2, 4, 8, 8)) * 5, p)
        assert (masks.data > 0).all() and (masks.data < 1).all()
        assert masks.shape == (2, 2, 8, 8)

    def test_matches_conv_sigmoid_oracle(self, rng):
        p, _ = make_params()
        stats = rand_t(rng, (1, 4, 6, 6))
        got = spatial_masks(stats, p).data
        conv = conv2d_naive(stats.data, p.spatial.w.data, p.spatial.b.data, 1, 3)
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-conv)), atol=1e-6)

    def test_needs_four_stat_channels(self, rng):
        p, _ = make_params()
        with pytest.raises(ShapeError):
            spatial_masks(rand_t(rng, (1, 3, 8, 8)), p)


class TestRecalibrate:
    def test_identity_at_gamma_zero_bitwise(self, rng):
        p, _ = make_params()  # gammas init to zero
        ev, im = rand_t(rng, (1, 3, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        ev_rec, im_rec = recalibrate(ev, im, p)
        assert np.array_equal(ev_rec.data, ev.data)
        assert np.array_equal(im_rec.data, im.data)

    def test_unit_gamma_forced_masks_gives_one_and_a_half(self, rng):
        # E_c = E/2 (zeroed channel conv), mask forced to 1, gamma 1:
        # E/2 * 1 * 1 + E = 1.5 E
        p, _ = make_params()
        for t in (p.ce.w, p.ce.b, p.ci.w, p.ci.b):
            _zero(t)
        ev, im = rand_t(rng, (1, 3, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        ev_c, _ = channel_recalibrate(ev, im, p)
        forced = Tensor(np.ones_like(ev_c.data))
        out = ev_c * forced * Tensor(np.asarray(1.0)) + ev
        np.testing.assert_allclose(out.data, 1.5 * ev.data, atol=1e-12)

    def test_saturated_mask_approaches_one_and_a_half(self, rng):
        p, _ = make_params()
        for t in (p.ce.w, p.ce.b, p.ci.w, p.ci.b, p.spatial.w):
            _zero(t)
        p.spatial.b.data = np.full_like(p.spatial.b.data, 40.0)  # sigmoid -> 1
        p.gamma_e.data = np.asarray(1.0)
        ev, im = rand_t(rng, (1, 3, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        ev_rec, _ = recalibrate(ev, im, p)
        np.testing.assert_allclose(ev_rec.data, 1.5 * ev.data, rtol=1e-6)

    def test_modality_separation(self, rng):
        # zero the spatial conv taps reading the image statistics channels:
        # the event output must become independent of the image stream
        p, _ = make_params()
        p.gamma_e.data = np.asarray(0.8)
        p.spatial.w.data[:, 2:4] = 0.0
        ev = rand_t(rng, (1, 3, 8, 8))
        im_a, im_b = rand_t(rng, (1, 4, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        ev_rec_a, _ = recalibrate(ev, im_a, p)
        ev_rec_b, _ = recalibrate(ev, im_b, p)
        np.testing.assert_allclose(ev_rec_a.data, ev_rec_b.data, atol=1e-12)

    def test_outputs_finite_and_shaped(self, rng):
        p, _ = make_params()
        p.gamma_e.data = np.asarray(2.0)
        p.gamma_i.data = np.asarray(-1.0)
        ev, im = rand_t(rng, (2, 3, 8, 8)), rand_t(rng, (2, 4, 8, 8))
        ev_rec, im_rec = recalibrate(ev, im, p)
        assert ev_rec.shape == ev.shape and im_rec.shape == im.shape
        assert np.isfinite(ev_rec.data).all() and np.isfinite(im_rec.data).all()
