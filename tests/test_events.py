"""Event parsing, windowing and the binary tensor dump format."""

import io
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import events as events_module
from evifuse.events import (
    EventParseError, Events, EventWindow, parse_events, serialize_events, window,
)
from evifuse.tensor import Tensor
from evifuse.tensorio import TensorFormatError, read_tensor, write_tensor

from _oracles import Event, eift_bytes, parse_events_naive, rows, window_naive

DIMS = (10, 10)
NO_EVENTS = Events([], [], [], [])
COLUMN_DTYPES = {"t_us": np.int64, "x": np.int16, "y": np.int16, "p": np.int8}


def parse(text, dims=DIMS):
    return parse_events(io.StringIO(text), dims)


def csv_text(events):
    return "".join(f"{e.t_us},{e.x},{e.y},{e.p}\n" for e in events)


def assert_column_dtypes(events):
    assert {c: getattr(events, c).dtype for c in COLUMN_DTYPES} == COLUMN_DTYPES


def assert_matches_oracle(text, dims=DIMS):
    """parse() gives the oracle's rows, or its error with the same line and message."""
    try:
        expected = parse_events_naive(io.StringIO(text), dims)
    except EventParseError as exc:
        with pytest.raises(EventParseError) as got:
            parse(text, dims)
        assert got.value.line_no == exc.line_no
        assert str(got.value) == str(exc)
    else:
        assert rows(parse(text, dims)) == expected


class TestEvents:
    def test_columns_are_stably_sorted_read_only_narrow(self):
        events = Events([30, 10, 30, 10], [1, 2, 3, 4], [5, 6, 7, 8], [1, -1, -1, 1])
        assert len(events) == 4
        assert rows(events) == [Event(10, 2, 6, -1), Event(10, 4, 8, 1),
                                Event(30, 1, 5, 1), Event(30, 3, 7, -1)]
        assert_column_dtypes(events)
        assert_column_dtypes(NO_EVENTS)
        wide = Events([2**63 - 1], [2**15 - 1], [-2**15], [-128])  # the extremes fit
        assert rows(wide) == [Event(2**63 - 1, 2**15 - 1, -2**15, -128)]
        for col in (events.t_us, events.x, events.y, events.p):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0

    @pytest.mark.parametrize("column, value", [
        ("t_us", 2**63), ("t_us", 0.5), ("x", 2**15), ("x", -2**15 - 1),
        ("y", 40_000), ("p", 128), ("p", -129),
    ])
    def test_value_that_does_not_fit_its_column_rejected(self, column, value):
        cols = {"t_us": [5, 6], "x": [1, 2], "y": [1, 2], "p": [1, -1]}
        cols[column] = [cols[column][0], value]
        with pytest.raises(ValueError, match=f"event {column} holds a value that does not fit"):
            Events(**cols)

    def test_caller_arrays_are_not_aliased(self):
        t = np.array([20, 10], dtype=np.int64)
        events = Events(t, [0, 1], [0, 1], [1, 1])
        t[0] = 99
        assert events.t_us.tolist() == [10, 20]
        assert t.flags.writeable
        # columns already in time order are copied too
        events = Events(t[::-1], [0, 1], [0, 1], [1, 1])
        t[1] = 5
        assert events.t_us.tolist() == [10, 99] and t.flags.writeable

    @pytest.mark.parametrize("cols", [
        ([1, 2], [0], [0, 0], [1, 1]),
        ([1, 2], [0, 0], [0, 0], [1, 1, 1]),
        ([[1, 2]], [[0, 0]], [[0, 0]], [[1, 1]]),
    ])
    def test_ragged_or_2d_columns_rejected(self, cols):
        with pytest.raises(ValueError, match="equal length"):
            Events(*cols)


class TestParse:
    def test_single_line(self):
        events = parse("1000,2,3,1\n")
        assert rows(events) == [Event(1000, 2, 3, 1)]
        assert_column_dtypes(events)

    def test_zero_polarity_maps_to_minus_one(self):
        assert parse("5,0,0,0\n").p[0] == -1

    def test_skips_blanks_and_comments(self):
        events = parse("# header\n\n10,1,1,1\n   \n20,2,2,-1\n")
        assert events.t_us.tolist() == [10, 20]

    def test_sorts_by_timestamp(self):
        events = parse("30,1,1,1\n10,2,2,1\n20,3,3,1\n")
        assert events.t_us.tolist() == [10, 20, 30]

    def test_shuffled_equals_presorted(self, rng):
        # unique stamps: the canonical order is stable-by-timestamp only
        stamps = rng.choice(500000, size=1000, replace=False)
        base = [
            Event(int(t), int(x), int(y), int(p))
            for t, x, y, p in zip(
                stamps,
                rng.integers(0, 10, 1000),
                rng.integers(0, 10, 1000),
                rng.choice([-1, 1], 1000),
            )
        ]
        shuffled = list(base)
        rng.shuffle(shuffled)
        sorted_events = parse(csv_text(sorted(base, key=lambda e: e.t_us)))
        shuffled_events = parse(csv_text(shuffled))
        assert rows(sorted_events) == rows(shuffled_events)

    def test_parse_serialize_roundtrip(self, rng):
        events = parse("10,1,1,1\n20,2,2,-1\n20,3,3,1\n")
        assert rows(parse(serialize_events(events))) == rows(events)

    def test_bad_field_count_reports_line(self):
        with pytest.raises(EventParseError, match="line 2"):
            parse("10,1,1,1\n20,2,2\n")

    def test_non_numeric_reports_line(self):
        with pytest.raises(EventParseError, match="line 1"):
            parse("abc,1,1,1\n")

    def test_out_of_bounds_reports_line(self):
        with pytest.raises(EventParseError, match="line 3"):
            parse("10,1,1,1\n20,2,2,1\n30,10,2,1\n")
        with pytest.raises(EventParseError, match="y=11"):
            parse("10,1,11,1\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(EventParseError, match="negative"):
            parse("-5,1,1,1\n")

    def test_bad_polarity_rejected(self):
        with pytest.raises(EventParseError, match="polarity"):
            parse("5,1,1,3\n")

    def test_timestamp_beyond_int64_rejected(self):
        parse(f"{2**63 - 1},1,1,1\n")
        with pytest.raises(EventParseError, match="line 2: timestamp .* int64"):
            parse(f"10,1,1,1\n{2**63},1,1,1\n")


# Canonical event lines, which the numpy path accepts (as it does "#" lines
# at column 0): valid events whose fields have at most 18 characters.
CANONICAL = "".join(f"{t},{t % 10},{t % 7},{t % 3 - 1}\n" for t in range(0, 400, 13))


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 24 characters, so that blocks cut through lines."""
    monkeypatch.setattr(events_module, "_PARSE_BLOCK_BYTES", 24)


def no_line_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("the line scan ran on canonical text")
    monkeypatch.setattr(events_module, "_scan_lines", fail)


class TestParseBlocks:
    @pytest.mark.parametrize("bad", [
        "500,10,1,1", "500,1,1,2", "-500,1,1,1", "5x0,1,1,1", "500,1,1", "500,1,1,1,1",
        "500,1,1,1\u00e9", "500,1,1,1,", "500,1,1,1 # note", "500,1,1,-2",
        "500,1,1,1,1\n500,1,1",  # 5 + 3 fields: four commas per line on average
        "500,1#c\n,1,1",  # a "#" off column 0 is no comment
    ])
    def test_error_in_later_block_matches_oracle(self, small_blocks, bad):
        text = CANONICAL + f"{bad}\n" + CANONICAL
        with pytest.raises(EventParseError) as got:
            parse(text)
        assert got.value.line_no == CANONICAL.count("\n") + 1
        assert_matches_oracle(text)

    def test_int64_overflow_in_later_block(self, small_blocks):
        line_no = CANONICAL.count("\n") + 1
        with pytest.raises(EventParseError, match=f"^line {line_no}: timestamp {2**63} does"):
            parse(CANONICAL + f"{2**63},1,1,1\n" + CANONICAL)

    def test_first_bad_line_wins_across_blocks(self, small_blocks):
        text = CANONICAL + "1,1,1,1,1\n" + CANONICAL + "1,99,1,1\n"
        with pytest.raises(EventParseError, match="expected 4 fields"):
            parse(text)
        assert_matches_oracle(text)

    @pytest.mark.parametrize("odd", [
        "+5,1,1,1", " 5 ,1,1,1", "1_000,1,1,1", "", "   ", "  # indented", "7,2,2,+1",
        "\t7,2,2,0", "7,2,2,1\r", "0007,02,2,-0", f"{2**63 - 1},3,3,1", "-0,1,1,1",
    ])
    def test_non_canonical_line_in_middle_block_matches_oracle(self, small_blocks, odd):
        text = CANONICAL + f"{odd}\n" + CANONICAL
        assert_matches_oracle(text)
        assert len(parse(text)) == 2 * len(CANONICAL.splitlines()) + (
            0 if not odd.strip() or odd.strip().startswith("#") else 1)

    @pytest.mark.parametrize("block", [24, 1 << 18])
    def test_final_line_without_newline(self, monkeypatch, block):
        monkeypatch.setattr(events_module, "_PARSE_BLOCK_BYTES", block)
        for last in ("999,4,5,0", f"{2**63 - 1},4,5,1", "# trailing comment"):
            text = CANONICAL + last
            assert_matches_oracle(text)
        events = parse(CANONICAL + f"{2**63 - 1},4,5,1")
        assert events.t_us[-1] == 2**63 - 1 and events.t_us.dtype == np.int64

    @pytest.mark.parametrize("block", [24, 1 << 18])
    def test_fast_path_parses_canonical_text(self, monkeypatch, block):
        monkeypatch.setattr(events_module, "_PARSE_BLOCK_BYTES", block)
        text = "# t_us,x,y,p header\n" + CANONICAL + "#c\n# caf\u00e9\n" + CANONICAL + "1,1,1,-1\n"
        expected = parse_events_naive(io.StringIO(text), DIMS)
        no_line_scan(monkeypatch)
        assert rows(parse(text)) == expected
        assert len(parse("# only a comment\n")) == 0
        assert len(parse("")) == 0

    @pytest.mark.parametrize("block", [24, 1 << 18])
    def test_bounds_on_a_non_square_sensor(self, monkeypatch, block):
        monkeypatch.setattr(events_module, "_PARSE_BLOCK_BYTES", block)
        dims = (4, 7)  # height, width
        corner = "".join(f"{t},{t % 7},{t % 4},1\n" for t in range(0, 400, 13)) + "9,6,3,1\n"
        for text in (corner, corner + "9,3,6,1\n", corner + "9,7,3,1\n", corner + "9,6,4,1\n"):
            assert_matches_oracle(text, dims)
        with pytest.raises(EventParseError, match="y=6 outside"):
            parse(corner + "9,3,6,1\n", dims)

    def test_fast_path_rejects_what_it_must(self, monkeypatch):
        no_line_scan(monkeypatch)
        for line in ("+5,1,1,1", "5,1,1,1 ", "", "1234567890123456789,1,1,1", "5,1,1,1\r",
                     " # c", "5,-,1,1", "5,1-1,1,1", "5,--1,1,1", "5,1,1,3", "5,1,1,-2",
                     "5,10,1,1", "5,1,1,1,1\n5,1,1", "5,1#c\n,1,1"):
            with pytest.raises(AssertionError, match="line scan"):
                parse(CANONICAL + f"{line}\n")

    @pytest.mark.parametrize("block", [24, 1 << 18])
    @pytest.mark.parametrize("text", [
        "1,2,3,1\n4,5,6,0\n",  # canonical
        " 1,2,3,1\n4,5,6,0\n",  # line scan
        "# only a comment\n", "",
        "# a comment\n" + CANONICAL + "7, 2,2,1\n" + CANONICAL,  # every kind of block
    ])
    def test_every_parse_path_yields_the_column_dtypes(self, monkeypatch, block, text):
        monkeypatch.setattr(events_module, "_PARSE_BLOCK_BYTES", block)
        assert_column_dtypes(parse(text))

    @pytest.mark.parametrize("dims", [(2**15 + 1, 10), (10, 2**15 + 1)])
    def test_dims_beyond_the_pixel_columns_rejected(self, dims):
        with pytest.raises(ValueError, match="exceed the int16 pixel columns"):
            parse("1,2,3,1\n", dims)
        assert rows(parse("1,32767,3,1\n", (10, 2**15))) == [Event(1, 2**15 - 1, 3, 1)]

    def test_parse_peak_memory_is_one_copy_of_the_columns(self, tmp_path):
        # the columns take 13 bytes an event; the blocks, joining the 8-byte
        # stamps and the sort check may hold 15 more at the peak
        n = 500_000
        rng = np.random.default_rng(11)
        cols = (np.sort(rng.integers(0, 1_000_000, n)), rng.integers(0, 346, n),
                rng.integers(0, 260, n), rng.integers(0, 2, n))
        path = tmp_path / "events.csv"
        path.write_text("".join(map("{},{},{},{}\n".format, *(c.tolist() for c in cols))))
        tracemalloc.start()
        try:
            with open(path) as fh:
                events = parse_events(fh, (260, 346))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(events.t_us, cols[0]) and np.array_equal(events.y, cols[2])
        assert peak <= 28 * n, f"{peak / n:.1f} bytes per event"


# CSV lines for the differential parser test: valid events (a narrow stamp
# range makes ties common), skipped lines, and lines with one odd field or
# with 3 or 5 fields, which the grammar must accept or reject exactly as the
# line-scan oracle does.
_FIELDS = st.tuples(
    st.integers(0, 40), st.integers(0, 9), st.integers(0, 9), st.sampled_from([-1, 0, 1]),
).map(lambda row: [str(v) for v in row])
_VALID_LINE = st.builds(lambda fields, pad: f"{pad}{','.join(fields)}{pad}",
                        _FIELDS, st.sampled_from(["", " ", "\t"]))
_SKIPPED_LINE = st.sampled_from(["", "   ", "# header", "  # indented", "#1,2,3,4"])
_ODD_FIELD = st.sampled_from([
    "-1", "-5", "10", "12", "0", "2",  # negative stamps, x/y out of range, polarity 0 and 2
    "+5", " 5 ", "1_000", "1.0", "1 # c", "", "abc", "-0",
])


def _odd_line(fields, i, odd, n_fields):
    fields = fields[:i] + [odd] + fields[i + 1:]
    return ",".join(fields[:3] if n_fields == 3 else fields + [odd] * (n_fields - 4))


_ODD_LINE = st.builds(_odd_line, _FIELDS, st.integers(0, 3), _ODD_FIELD,
                      st.sampled_from([4, 4, 4, 4, 4, 4, 3, 5]))
_LINE = st.integers(0, 5).flatmap(  # one line in six is odd, so many texts parse
    lambda k: _ODD_LINE if k == 0 else _SKIPPED_LINE if k == 1 else _VALID_LINE)
_CSV_TEXT = st.lists(_LINE, max_size=12).map(lambda lines: "".join(f"{ln}\n" for ln in lines))

# Fully canonical texts: "#" lines at column 0 and unpadded valid events with
# stamps of up to 18 digits (narrow ones too, for ties).
_CANONICAL_LINE = st.one_of(
    st.builds(lambda *row: ",".join(map(str, row)),
              st.one_of(st.integers(0, 40), st.integers(0, 10**18 - 1)),
              st.integers(0, 9), st.integers(0, 9), st.sampled_from([-1, 0, 1])),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map(
        lambda comment: f"#{comment}"),
)
_CANONICAL_TEXT = st.lists(_CANONICAL_LINE, max_size=24).map(
    lambda lines: "".join(f"{ln}\n" for ln in lines))


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_CSV_TEXT)
    def test_matches_line_scan_oracle(self, text):
        assert_matches_oracle(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_CANONICAL_TEXT, _CSV_TEXT), st.integers(1, 48))
    def test_matches_line_scan_oracle_in_small_blocks(self, text, block):
        with mock.patch.object(events_module, "_PARSE_BLOCK_BYTES", block):
            assert_matches_oracle(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 9),
                              st.integers(0, 9), st.sampled_from([-1, 1]))))
    def test_serialize_parse_roundtrip(self, table):
        events = Events(*(np.array(table, dtype=np.int64).reshape(-1, 4).T))
        text = serialize_events(events)
        assert text == csv_text(rows(events))
        assert rows(parse(text)) == rows(events)


class TestWindow:
    def test_half_open_boundaries(self):
        events = parse("10,1,1,1\n60,2,2,1\n110,3,3,1\n")
        win = window(events, t_end_us=100, duration_us=50, dims=DIMS)
        assert win.t_us.tolist() == [60]
        assert win.t_start_us == 50 and win.t_end_us == 100

    def test_start_included_end_excluded(self):
        events = parse("50,1,1,1\n100,2,2,1\n")
        win = window(events, 100, 50, DIMS)
        assert win.t_us.tolist() == [50]

    def test_covers_everything(self):
        events = parse("10,1,1,1\n60,2,2,1\n110,3,3,1\n")
        win = window(events, 200, 200, DIMS)
        assert win.count == 3

    def test_empty_window_is_valid(self):
        win = window(NO_EVENTS, 100, 50, DIMS)
        assert win.count == 0

    def test_columns_are_views(self):
        events = parse("10,1,1,1\n60,2,2,1\n110,3,3,1\n")
        win = window(events, 100, 50, DIMS)
        for name in Event._fields:
            assert np.shares_memory(getattr(win, name), getattr(events, name))

    def test_matches_linear_scan(self, rng):
        n = 10000
        events = Events(rng.integers(0, 100000, n), np.zeros(n), np.zeros(n), np.ones(n))
        for _ in range(25):
            t_end = int(rng.integers(1, 120000))
            duration = int(rng.integers(1, 60000))
            win = window(events, t_end, duration, DIMS)
            assert rows(win) == window_naive(events, t_end, duration)

    def test_idempotent(self, rng):
        events = parse("10,1,1,1\n60,2,2,1\n90,3,3,1\n")
        win = window(events, 100, 80, DIMS)
        again = window(win, win.t_end_us, win.t_end_us - win.t_start_us, DIMS)
        assert rows(again) == rows(win)
        bounds = ("t_start_us", "t_end_us", "height", "width")
        assert [getattr(again, b) for b in bounds] == [getattr(win, b) for b in bounds]

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            window(NO_EVENTS, 100, 0, DIMS)

    def test_is_events_sharing_the_stream_columns(self):
        events = parse("10,1,1,1\n60,2,2,1\n110,3,3,1\n")
        win = window(events, 100, 80, DIMS)
        assert isinstance(win, Events)
        assert np.shares_memory(window(win, 100, 50, DIMS).t_us, events.t_us)

    @pytest.mark.parametrize("t_end, duration", [
        (10**20, 5), (2**63, 5), (0, 2**63 + 1), (float("nan"), 5),
    ])
    def test_bound_beyond_int64_rejected(self, t_end, duration):
        with pytest.raises(ValueError, match="do not all fit int64"):
            window(NO_EVENTS, t_end, duration, DIMS)

    def test_window_of_shuffled_hand_built_window(self, rng):
        # a hand-built window is time-sorted however its columns come
        stamps, x = [10, 20, 40, 50, 30], [0, 1, 2, 3, 4]
        shuffled = EventWindow(stamps, x, x, [1] * 5, 0, 60, *DIMS)
        assert window(shuffled, 35, 20, DIMS).t_us.tolist() == [20, 30]
        t = rng.integers(0, 1000, 300)
        cols = t, rng.integers(0, 10, 300), rng.integers(0, 10, 300), rng.choice([-1, 1], 300)
        order = np.argsort(t, kind="stable")
        built_sorted = EventWindow(*(c[order] for c in cols), 0, 1000, *DIMS)
        built_shuffled = EventWindow(*cols, 0, 1000, *DIMS)
        for t_end, duration in ((1000, 1000), (700, 250), (10, 3)):
            assert rows(window(built_shuffled, t_end, duration, DIMS)) == \
                rows(window(built_sorted, t_end, duration, DIMS))


class TestEventWindow:
    def test_shuffled_columns_held_sorted_and_read_only(self):
        win = EventWindow([30, 10, 20, 10], [1, 2, 3, 4], [5, 6, 7, 8], [1, -1, 1, 1],
                          0, 40, 10, 10)
        assert rows(win) == [Event(10, 2, 6, -1), Event(10, 4, 8, 1),
                             Event(20, 3, 7, 1), Event(30, 1, 5, 1)]
        assert_column_dtypes(win)
        for name in Event._fields:
            assert not getattr(win, name).flags.writeable
        assert (win.t_start_us, win.t_end_us, win.height, win.width, win.count) == \
            (0, 40, 10, 10, 4)

    @pytest.mark.parametrize("t_start, t_end", [(0, 2**63), (-2**63 - 1, 0), (0, 10**20)])
    def test_bound_beyond_int64_rejected(self, t_start, t_end):
        with pytest.raises(ValueError, match="do not all fit int64"):
            EventWindow([], [], [], [], t_start, t_end, *DIMS)


class TestTensorDump:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        x = Tensor(rng.standard_normal((3, 5, 7)).astype(np.float32))
        path = tmp_path / "x.eift"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.shape == x.shape
        assert np.array_equal(back.data, x.data)

    def test_scalar_roundtrip(self, tmp_path):
        x = Tensor(np.float32(2.5))
        path = tmp_path / "s.eift"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.shape == ()
        assert back.data == np.float32(2.5)

    def test_header_layout(self, rng, tmp_path):
        path = tmp_path / "h.eift"
        write_tensor(path, Tensor(np.ones((2, 3), dtype=np.float32)))
        raw = path.read_bytes()
        assert raw[:4] == b"EIFT"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 2
        assert int.from_bytes(raw[20:28], "little") == 3
        assert len(raw) == 28 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.eift"
        path.write_bytes(b"NOPE" + bytes(24))
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_unsupported_version_rejected(self, tmp_path):
        import struct

        path = tmp_path / "v9.eift"
        path.write_bytes(b"EIFT" + struct.pack("<II", 9, 0) + struct.pack("<f", 1.0))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(path)

    def test_truncated_payload_rejected(self, rng, tmp_path):
        path = tmp_path / "trunc.eift"
        write_tensor(path, Tensor(rng.standard_normal((4, 4)).astype(np.float32)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TensorFormatError, match="payload"):
            read_tensor(path)

    def test_dim_overflow_rejected(self, tmp_path):
        import struct

        path = tmp_path / "huge.eift"
        payload = b"EIFT" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 1 << 62, 8)
        path.write_bytes(payload)
        with pytest.raises(TensorFormatError, match="overflow"):
            read_tensor(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        data = np.zeros((2, 3, 4), dtype=np.float32)
        data[1, 2, 0] = bad
        path = tmp_path / "nf.eift"
        path.write_bytes(eift_bytes(data))
        with pytest.raises(TensorFormatError,
                           match=r"nf\.eift: non-finite value .*at index \(1, 2, 0\)"):
            read_tensor(path)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39])
    def test_non_finite_float32_refused_before_open(self, tmp_path, bad):
        # 1e39 is finite in float64 but overflows the float32 payload
        path = tmp_path / "nf.eift"
        with pytest.raises(TensorFormatError,
                           match=r"nf\.eift: value .* at index \(1,\) is not finite in float32"):
            write_tensor(path, np.array([1.0, bad]))
        assert not path.exists()

    def test_zero_extent_rejected(self, tmp_path):
        import struct

        path = tmp_path / "zero.eift"
        path.write_bytes(b"EIFT" + struct.pack("<II", 1, 1) + struct.pack("<Q", 0))
        with pytest.raises(TensorFormatError, match="extent"):
            read_tensor(path)


# A valid EIFT file of shape (2, 3), and what a damaged copy may look like:
# truncated, extended, bytes overwritten, a header word replaced, or random.
_EIFT = (b"EIFT" + struct.pack("<II2Q", 1, 2, 2, 3)
         + np.linspace(-1.5, 2.5, 6, dtype="<f4").tobytes())


def _overwrite(edits):
    raw = bytearray(_EIFT)
    for at, value in edits:
        raw[at] = value
    return bytes(raw)


def _replace_word(field, value):
    at, fmt = field
    return _EIFT[:at] + struct.pack(fmt, value % 2 ** (8 * struct.calcsize(fmt))) \
        + _EIFT[at + struct.calcsize(fmt):]


_DAMAGED_EIFT = st.one_of(
    st.integers(0, len(_EIFT) - 1).map(lambda n: _EIFT[:n]),
    st.binary(min_size=1, max_size=16).map(lambda tail: _EIFT + tail),
    st.lists(st.tuples(st.integers(0, len(_EIFT) - 1), st.integers(0, 255)),
             min_size=1, max_size=4).map(_overwrite),
    st.builds(_replace_word, st.sampled_from([(4, "<I"), (8, "<I"), (12, "<Q"), (20, "<Q")]),
              st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1))),
    st.binary(max_size=64),
)


class TestTensorDumpFuzz:
    def test_base_file_is_what_write_tensor_writes(self, tmp_path):
        write_tensor(tmp_path / "x.eift", np.linspace(-1.5, 2.5, 6, dtype=np.float32).reshape(2, 3))
        assert (tmp_path / "x.eift").read_bytes() == _EIFT

    @settings(max_examples=400, deadline=None)
    @given(_DAMAGED_EIFT)
    def test_damaged_file_round_trips_or_raises_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("eift") / "x.eift"
        path.write_bytes(raw)
        try:
            tensor = read_tensor(path)
        except TensorFormatError:
            return
        assert tensor.data.dtype == np.float32 and np.isfinite(tensor.data).all()
        write_tensor(path, tensor)
        assert path.read_bytes() == raw
