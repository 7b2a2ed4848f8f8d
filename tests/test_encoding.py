"""Projection/activity encoding: kernel, time normalization, accumulation."""

import numpy as np
import pytest

from evifuse.encoding import encode, encode_empty, kernel_k, normalize_time
from evifuse.events import Events, EventWindow

from _oracles import encode_naive, rows

DIMS = (16, 16)
NO_EVENTS = Events([], [], [], [])


def make_window(events, t_start=0, t_end=50000, dims=DIMS):
    return EventWindow(events.t_us, events.x, events.y, events.p,
                       t_start, t_end, dims[0], dims[1])


def random_events(rng, n, t_start=0, t_end=50000, dims=DIMS):
    return Events(
        rng.integers(t_start, t_end, n),
        rng.integers(0, dims[1], n),
        rng.integers(0, dims[0], n),
        rng.choice([-1, 1], n),
    )


class TestKernel:
    def test_peak_is_one(self):
        assert kernel_k(0.0) == 1.0

    def test_support_boundary(self):
        assert kernel_k(1.0) == 0.0
        assert kernel_k(-1.0) == 0.0
        assert kernel_k(2.5) == 0.0

    def test_quarter(self):
        assert kernel_k(0.25) == pytest.approx(0.75)
        assert kernel_k(-0.25) == pytest.approx(0.75)


class TestNormalizeTime:
    def test_midpoint_three_bins(self):
        win = make_window(NO_EVENTS, 0, 50000)
        assert normalize_time(25000, win, 3) == pytest.approx(1.0)

    def test_window_start(self):
        win = make_window(NO_EVENTS, 0, 50000)
        assert normalize_time(0, win, 3) == 0.0

    def test_just_before_end(self):
        d = 50000
        win = make_window(NO_EVENTS, 0, d)
        expected = 2 * (d - 1) / d
        assert normalize_time(d - 1, win, 3) == pytest.approx(expected)
        assert normalize_time(d - 1, win, 3) < 2.0

    def test_single_bin_is_zero(self):
        win = make_window(NO_EVENTS, 0, 50000)
        assert normalize_time(49999, win, 1) == 0.0

    def test_outside_window_rejected(self):
        win = make_window(NO_EVENTS, 1000, 2000)
        with pytest.raises(ValueError):
            normalize_time(2000, win, 3)
        with pytest.raises(ValueError):
            normalize_time(999, win, 3)


class TestEncode:
    def test_event_at_bin_center(self):
        # t* = 1.0 exactly: all mass lands in bin 1
        win = make_window(Events([25000], [4], [7], [1]), 0, 50000)
        enc = encode(win, 3)
        assert enc.e_vt.data[1, 7, 4] == 1.0
        assert enc.e_vt.data[0, 7, 4] == 0.0
        assert enc.e_vt.data[2, 7, 4] == 0.0
        np.testing.assert_array_equal(enc.e_vt.data, enc.a_cm.data)

    def test_event_between_bins_splits_mass(self):
        # t* = 0.5: half to bin 0, half to bin 1
        win = make_window(Events([12500], [3], [2], [1]), 0, 50000)
        enc = encode(win, 3)
        assert enc.e_vt.data[0, 2, 3] == pytest.approx(0.5)
        assert enc.e_vt.data[1, 2, 3] == pytest.approx(0.5)
        assert enc.e_vt.data[2, 2, 3] == 0.0

    def test_opposite_polarities_cancel_in_projection(self):
        events = Events([25000, 25000], [5, 5], [5, 5], [1, -1])
        enc = encode(make_window(events), 3)
        assert enc.e_vt.data[:, 5, 5] == pytest.approx([0.0, 0.0, 0.0])
        assert enc.a_cm.data[1, 5, 5] == pytest.approx(2.0)

    def test_empty_window_is_all_zeros(self):
        enc = encode(make_window(NO_EVENTS), 3)
        assert enc.e_vt.data.shape == (3, 16, 16)
        assert not enc.e_vt.data.any()
        assert not enc.a_cm.data.any()

    def test_encode_empty_helper(self):
        enc = encode_empty((8, 12), 4)
        assert enc.e_vt.data.shape == (4, 8, 12)
        assert not enc.a_cm.data.any()

    def test_matches_naive_oracle_10k(self, rng):
        events = random_events(rng, 10000)
        win = make_window(events)
        enc = encode(win, 3)
        e_ref, a_ref = encode_naive(events, 0, 50000, 3, *DIMS)
        np.testing.assert_allclose(enc.e_vt.data, e_ref, atol=1e-6)
        np.testing.assert_allclose(enc.a_cm.data, a_ref, atol=1e-6)

    @pytest.mark.parametrize("bins", [1, 2, 5])
    def test_matches_naive_oracle_other_bins(self, rng, bins):
        events = random_events(rng, 500)
        enc = encode(make_window(events), bins)
        e_ref, a_ref = encode_naive(events, 0, 50000, bins, *DIMS)
        np.testing.assert_allclose(enc.e_vt.data, e_ref, atol=1e-6)
        np.testing.assert_allclose(enc.a_cm.data, a_ref, atol=1e-6)


class TestEncodingInvariants:
    def test_polarity_antisymmetry(self, rng):
        events = random_events(rng, 2000)
        flipped = Events(events.t_us, events.x, events.y, -events.p)
        a = encode(make_window(events), 3)
        b = encode(make_window(flipped), 3)
        np.testing.assert_array_equal(a.e_vt.data, -b.e_vt.data)
        np.testing.assert_array_equal(a.a_cm.data, b.a_cm.data)

    def test_permutation_invariance(self, rng):
        # the shuffled window is handed to encode out of time order
        events = random_events(rng, 2000)
        perm = rng.permutation(len(events))
        shuffled = EventWindow(events.t_us[perm], events.x[perm], events.y[perm],
                               events.p[perm], 0, 50000, *DIMS)
        a = encode(make_window(events), 3)
        b = encode(shuffled, 3)
        np.testing.assert_array_equal(a.e_vt.data, b.e_vt.data)
        np.testing.assert_array_equal(a.a_cm.data, b.a_cm.data)

    def test_mass_conservation(self, rng):
        events = random_events(rng, 3000)
        win = make_window(events)
        enc = encode(win, 3)
        direct = sum(
            kernel_k(c - normalize_time(e.t_us, win, 3))
            for e in rows(events)
            for c in range(3)
        )
        assert float(enc.a_cm.data.sum()) == pytest.approx(direct, rel=1e-5)
        # interior t* splits sum to exactly 1 per event
        assert float(enc.a_cm.data.sum()) == pytest.approx(len(events), rel=1e-5)

    def test_projection_bounded_by_activity(self, rng):
        events = random_events(rng, 5000)
        enc = encode(make_window(events), 3)
        assert (np.abs(enc.e_vt.data) <= enc.a_cm.data + 1e-6).all()
        assert (enc.a_cm.data >= 0).all()

    def test_single_bin_degenerates_to_signed_counts(self, rng):
        events = random_events(rng, 1000)
        enc = encode(make_window(events), 1)
        counts = np.zeros((1, *DIMS))
        signed = np.zeros((1, *DIMS))
        for e in rows(events):
            counts[0, e.y, e.x] += 1
            signed[0, e.y, e.x] += e.p
        np.testing.assert_allclose(enc.a_cm.data, counts, atol=1e-6)
        np.testing.assert_allclose(enc.e_vt.data, signed, atol=1e-6)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            encode(make_window(NO_EVENTS), 0)
