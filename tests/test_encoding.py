"""Projection/activity encoding: kernel, time normalization, accumulation."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse.encoding import encode
from evifuse.events import Events, EventWindow, window

from _oracles import encode_global_bincount, encode_naive, rows

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


def one_event_mass(t_us, bins, t_start=0, t_end=50000):
    """Per-bin activity of a single event, read through ``encode``."""
    enc = encode(make_window(Events([t_us], [4], [7], [1]), t_start, t_end), bins)
    return enc.a_cm.data[:, 7, 4].tolist()


class TestKernel:
    """The triangular kernel max(0, 1 - |bin - t*|), as encode applies it."""

    def test_peak_is_one(self):
        assert one_event_mass(25000, 3) == [0.0, 1.0, 0.0]  # t* = 1
        assert one_event_mass(12500, 5) == [0.0, 1.0, 0.0, 0.0, 0.0]  # t* = 1

    def test_support_boundary(self):
        # bins at distance >= 1 from t* get nothing: 1.5 and 2.5 away here
        assert one_event_mass(12500, 3)[2] == 0.0  # t* = 0.5
        mass = one_event_mass(31250, 5)  # t* = 2.5
        assert mass[0] == mass[1] == mass[4] == 0.0
        assert mass[2] == mass[3] == 0.5

    def test_quarter(self):
        assert one_event_mass(6250, 3) == [0.75, 0.25, 0.0]  # t* = 0.25
        assert one_event_mass(43750, 3) == [0.0, 0.25, 0.75]  # t* = 1.75


class TestNormalizeTime:
    """t* = (bins - 1) * (t - t_start) / (t_end - t_start), as encode applies it."""

    def test_midpoint_three_bins(self):
        assert one_event_mass(26000, 3, 1000, 51000) == [0.0, 1.0, 0.0]

    def test_window_start(self):
        assert one_event_mass(1000, 3, 1000, 51000) == [1.0, 0.0, 0.0]

    def test_just_before_end(self):
        # the last microsecond stays below bin 2: t* = 2 * (d - 1) / d
        d = 50000
        mass = one_event_mass(d - 1, 3, 0, d)
        assert mass[0] == 0.0
        assert 0.0 < mass[2] < 1.0
        assert mass[2] == pytest.approx(1.0 - 2.0 / d, abs=1e-7)
        assert sum(mass) == pytest.approx(1.0)

    def test_single_bin_is_zero(self):
        assert one_event_mass(49999, 1) == [1.0]
        assert one_event_mass(0, 1) == [1.0]


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
        for dims, bins in ((DIMS, 3), ((8, 12), 4), ((8, 12), 1)):
            enc = encode(make_window(NO_EVENTS, dims=dims), bins)
            assert enc.e_vt.data.shape == enc.a_cm.data.shape == (bins, *dims)
            assert not enc.e_vt.data.any()
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


SENSOR = (260, 346)  # height, width
GOLDEN_SPAN = (1_000_000, 1_050_000)
# sha256 over the e_vt then a_cm bytes. The oracles compare at 1e-6; these
# pin the exact bits, so a change in accumulation order shows here.
GOLDEN_SHA256 = {
    1: "8439115e11fdf0109615555a73bf6a9174af73a34526bd2253580b10ade4492e",
    2: "9eb40e106fef1d14cdc5969e9dbf2c28fba4d2cedae9bfd74213553e1c7a271f",
    3: "14cf5c24d2624c7fecdca592a81137d90f47addaf2f06dd8ea0e4c7947507ffe",
    5: "abfb20de4496fa4f48b078c7432e08ec7c1a2ea401521e430297996dff55ff5a",
}
GOLDEN_EMPTY_SHA256 = "683c1e8044d7c310d0d674309f9ea832d068e2bd6f9d2309bf9bc928d38fbb17"


def encoding_sha256(enc):
    h = hashlib.sha256()
    h.update(enc.e_vt.data.tobytes())
    h.update(enc.a_cm.data.tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("bins", sorted(GOLDEN_SHA256))
    def test_seeded_sensor_window(self, bins):
        # 20k random events plus one at the window start and one in its last
        # microsecond
        rng = np.random.default_rng(7)
        t0, t1 = GOLDEN_SPAN
        n = 20002
        t = np.concatenate([[t0, t1 - 1], rng.integers(t0, t1, n - 2)])
        events = Events(t, rng.integers(0, SENSOR[1], n), rng.integers(0, SENSOR[0], n),
                        rng.choice([-1, 1], n))
        enc = encode(make_window(events, t0, t1, SENSOR), bins)
        assert encoding_sha256(enc) == GOLDEN_SHA256[bins]

    def test_empty_sensor_window(self):
        enc = encode(make_window(NO_EVENTS, *GOLDEN_SPAN, SENSOR), 3)
        assert encoding_sha256(enc) == GOLDEN_EMPTY_SHA256


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
        direct = encode_naive(events, 0, 50000, 3, *DIMS)[1].sum()
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


def column_window(t_us, x, y, p, t_start, t_end, dims):
    """A hand-built window over the columns as given, in their order."""
    cols = (np.asarray(c, dtype=np.int64) for c in (t_us, x, y, p))
    return EventWindow(*cols, t_start, t_end, *dims)


@st.composite
def windows(draw, distinct_stamps=False):
    """Small hand-built windows, time-sorted, with stamps that favour bin
    edges (integral t*), t_start, t_end - 1 and t_end, and repeat them."""
    bins = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    t_start = draw(st.integers(0, 10**12))
    gaps = max(bins - 1, 1)
    span = draw(st.one_of(st.integers(1, 10**5).map(lambda m: m * gaps),
                          st.integers(1, 10**7)))
    t_end = t_start + span
    edges = [t_start + k * span // gaps for k in range(bins)]
    stamp = st.one_of(st.sampled_from([*edges, t_start, t_end - 1, t_end]),
                      st.integers(t_start, t_end))
    t_us = sorted(draw(st.lists(stamp, max_size=40, unique=distinct_stamps)))
    n = len(t_us)
    x, y, p = (draw(st.lists(values, min_size=n, max_size=n))
               for values in (st.integers(0, dims[1] - 1), st.integers(0, dims[0] - 1),
                              st.sampled_from([-1, 1])))
    return column_window(t_us, x, y, p, t_start, t_end, dims), bins


def encoding_bytes(e_vt, a_cm):
    return e_vt.tobytes(), a_cm.tobytes()


class TestBitwiseOracle:
    """encode reproduces ``encode_global_bincount`` byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(windows())
    def test_sorted_window_matches(self, case):
        win, bins = case
        enc = encode(win, bins)
        assert encoding_bytes(enc.e_vt.data, enc.a_cm.data) == \
            encoding_bytes(*encode_global_bincount(win, bins))

    @settings(max_examples=200, deadline=None)
    @given(windows(distinct_stamps=True), st.randoms(use_true_random=False))
    def test_shuffled_window_matches_sorted(self, case, random):
        win, bins = case
        perm = list(range(win.count))
        random.shuffle(perm)
        shuffled = EventWindow(win.t_us[perm], win.x[perm], win.y[perm], win.p[perm],
                               win.t_start_us, win.t_end_us, win.height, win.width)
        a, b = encode(win, bins), encode(shuffled, bins)
        assert encoding_bytes(a.e_vt.data, a.a_cm.data) == \
            encoding_bytes(b.e_vt.data, b.a_cm.data)

    def test_empty_bins_between_runs(self):
        # events only in bins 0 and 4 of 6: runs 1-3 are empty
        win = column_window([0, 5, 40, 41], [0, 1, 2, 3], [1, 1, 0, 0], [1, -1, 1, 1],
                            0, 50, (2, 4))
        enc = encode(win, 6)
        assert encoding_bytes(enc.e_vt.data, enc.a_cm.data) == \
            encoding_bytes(*encode_global_bincount(win, 6))
        assert not enc.a_cm.data[2:4].any()


SMALL_SENSOR = (8, 10)  # height, width


class TestRejectsMalformedWindows:
    @pytest.mark.parametrize("x, y, message", [
        (10, 3, "x outside"),  # x = width
        (-1, 3, "x outside"),
        (4, 8, "y outside"),  # y = height
        (4, -1, "y outside"),
    ])
    def test_off_sensor_event(self, x, y, message):
        win = column_window([10, 20], [2, x], [2, y], [1, 1], 0, 100, SMALL_SENSOR)
        with pytest.raises(ValueError, match=message):
            encode(win, 3)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint16])
    def test_off_sensor_check_reads_values_of_any_integer_dtype(self, dtype):
        # odd and even lengths: a check through a uint64 view of the bytes
        # misreads narrow columns
        def win(x, y):
            n = len(x)
            return EventWindow(np.arange(10, 10 + n), np.array(x, dtype), np.array(y, dtype),
                               np.ones(n, np.int8), 0, 100, *SMALL_SENSOR)

        for x, y in (([1, 2], [3, 4]), ([0, 4, 9], [0, 3, 7])):
            enc = encode(win(x, y), 3)
            assert enc.a_cm.data[:, y, x].sum(axis=0).tolist() == [1.0] * len(x)
        bad = [([1, 10], [3, 4], "x outside [0, 10)"), ([0, 4, 9], [0, 8, 7], "y outside [0, 8)")]
        if np.dtype(dtype).kind == "i":
            bad += [([1, -1], [3, 4], "x outside [0, 10)"), ([0, 4, 9], [0, 3, -5], "y outside [0, 8)")]
        for x, y, message in bad:
            with pytest.raises(ValueError, match=f"^event {re.escape(message)}$"):
                encode(win(x, y), 3)

    @pytest.mark.parametrize("t_us", [[-1, 50], [50, 101], [101, 50], [50, -1]])
    def test_stamp_outside_window(self, t_us):
        # sorted and unsorted columns alike
        win = column_window(t_us, [1, 2], [1, 2], [1, 1], 0, 100, SMALL_SENSOR)
        with pytest.raises(ValueError, match="stamp outside"):
            encode(win, 3)

    def test_stamp_at_window_end_is_accepted(self):
        win = column_window([0, 100], [1, 2], [1, 2], [1, -1], 0, 100, SMALL_SENSOR)
        enc = encode(win, 3)
        assert enc.a_cm.data[:, 2, 2].tolist() == [0.0, 0.0, 1.0]
        assert enc.e_vt.data[:, 2, 2].tolist() == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("t_end", [100, 99])
    def test_non_positive_span(self, t_end):
        win = column_window([100], [1], [1], [1], 100, t_end, SMALL_SENSOR)
        with pytest.raises(ValueError, match="span"):
            encode(win, 3)


ENCODE_PEAK_BUDGET = 14 * 2**20  # bytes


def test_encode_tracemalloc_peak_within_budget():
    # a seeded 240k-event 50 ms window on the 346x260 sensor at 3 bins;
    # encode_global_bincount peaks at 21 MiB here
    rng = np.random.default_rng(0)
    n = 240_000
    events = Events(rng.integers(0, 50_000, n), rng.integers(0, SENSOR[1], n),
                    rng.integers(0, SENSOR[0], n), rng.choice([-1, 1], n))
    win = window(events, 50_000, 50_000, SENSOR)
    tracemalloc.start()
    try:
        encode(win, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ENCODE_PEAK_BUDGET, f"peak {peak / 2**20:.2f} MiB"
