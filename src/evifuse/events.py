"""Event stream parsing, validation and windowing.

The on-disk format is plain CSV, one event per line: ``t_us,x,y,p`` with
microsecond integer timestamps. Polarity may be written {-1,1} or {0,1};
0 maps to -1 so both public conventions parse. Blank lines and lines
starting with '#' are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# each column's dtype: microsecond stamps need int64; pixel coordinates and
# polarity fit int16 and int8, 13 bytes an event in all
_COLUMNS = {"t_us": np.dtype(np.int64), "x": np.dtype(np.int16),
            "y": np.dtype(np.int16), "p": np.dtype(np.int8)}


class EventParseError(ValueError):
    """Malformed or out-of-bounds event line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Events:
    """An event stream as four columns: ``t_us`` int64, ``x`` and ``y`` int16,
    ``p`` (+-1) int8.

    The constructor copies the columns into those dtypes, stable-sorts them
    by timestamp (input order breaks ties) and makes them read-only, because
    windows are views into them. It raises ``ValueError`` for a value its
    column cannot hold instead of wrapping it.
    """

    __slots__ = tuple(_COLUMNS)

    def __init__(self, t_us, x, y, p):
        cols = [np.asarray(c) for c in (t_us, x, y, p)]
        if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
            raise ValueError("event columns must be 1-D and of equal length")
        for i, (name, dtype) in enumerate(_COLUMNS.items()):
            with np.errstate(invalid="ignore"):  # a value cast out of range fails below
                narrow = cols[i].astype(dtype)  # a copy, also when the dtype matches
            if not np.array_equal(narrow, cols[i]):
                raise ValueError(f"event {name} holds a value that does not fit {dtype}")
            cols[i] = narrow
        self._own(cols)

    def _own(self, cols):
        """Hold the list of columns, which no one else references, as its own.

        Out-of-order stamps are stable-sorted one column at a time; sorted
        columns are kept without a copy.
        """
        if (cols[0][1:] < cols[0][:-1]).any():
            order = np.argsort(cols[0], kind="stable")
            for i in range(len(cols)):
                cols[i] = cols[i][order]
        for name, col in zip(_COLUMNS, cols):
            col.flags.writeable = False
            setattr(self, name, col)
        return self

    def __len__(self):
        return len(self.t_us)


@dataclass(frozen=True, eq=False)
class EventWindow:
    """Column views of the events with t_start_us <= t_us < t_end_us."""

    t_us: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    t_start_us: int
    t_end_us: int
    height: int
    width: int

    @property
    def count(self):
        return len(self.t_us)


def parse_events(stream, dims):
    """Parse and validate a CSV event stream into time-sorted ``Events``.

    ``stream`` is a text stream with ``\\n`` line ends (an open text file or a
    ``StringIO``); ``dims`` is (height, width). It is read in blocks of whole
    lines. numpy checks and converts a block of canonical lines (``#`` at
    column 0, or four ``-?[0-9]+`` fields of at most 18 characters); any other
    block goes through the line scan, which defines the grammar and reports
    the first bad line. The stable sort by timestamp is the canonical event
    order. ``ValueError`` if ``dims`` exceed what the int16 pixel columns hold.
    """
    height, width = dims
    if max(height, width) > _PIXEL_LIMIT:
        raise ValueError(f"dims {dims} exceed the int16 pixel columns")
    parts, line_no = [[empty] for empty in _NO_EVENTS], 1
    for text in _line_blocks(stream):
        cols = _parse_canonical(text, dims)
        for part, col in zip(parts, _scan_lines(text, line_no, dims) if cols is None else cols):
            part.append(col)
        line_no += text.count("\n")
    columns = []  # joined one column at a time, freeing its blocks as it goes
    for part, dtype in zip(parts, _COLUMNS.values()):
        columns.append(np.concatenate(part, dtype=dtype, casting="no"))
        part.clear()
    return Events.__new__(Events)._own(columns)


_PARSE_BLOCK_BYTES = 256 * 1024  # characters read per block; peak memory scales with it
_NO_EVENTS = tuple(np.empty(0, dtype) for dtype in _COLUMNS.values())
_PIXEL_LIMIT = np.iinfo(_COLUMNS["x"]).max + 1  # so x < width and y < height fit
_COMMENT_LINE = re.compile(r"^#.*\n", re.MULTILINE)
_DIGIT, _MINUS, _COMMA, _NEWLINE = 1, 2, 3, 4  # separators last: class >= _COMMA
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)  # 0: a byte no canonical event line holds
_BYTE_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_BYTE_CLASS[[ord("-"), ord(","), ord("\n")]] = _MINUS, _COMMA, _NEWLINE


def _line_blocks(stream):
    """Texts of whole lines read from ``stream``, the last one possibly unended."""
    pending = []
    while chunk := stream.read(_PARSE_BLOCK_BYTES):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(pending) + chunk[:cut]
            pending = []
        pending.append(chunk[cut:])
    if tail := "".join(pending):
        yield tail


def _parse_canonical(text, dims):
    """Columns of a block of canonical, valid lines, or None for the line scan.

    A canonical event line is four ``-?[0-9]+`` fields of at most 18
    characters, which cannot overflow int64, joined by "," and ended by
    "\\n". Any other form of a line, and any value out of range, returns None.
    """
    if not text.endswith("\n"):
        text += "\n"
    if "#" in text:  # drop the "#" lines; any other "#" fails the byte classes
        text = _COMMENT_LINE.sub("", text)
        if not text:
            return _NO_EVENTS
    try:
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    cls = np.take(_BYTE_CLASS, buf)
    seps = np.flatnonzero(cls >= _COMMA)
    newlines = np.flatnonzero(cls == _NEWLINE)
    if not cls.all() or len(seps) != 4 * len(newlines) \
            or not np.array_equal(seps[3::4], newlines):
        return None  # a byte outside the classes, or not three commas per line
    widths = np.diff(seps, prepend=-1) - 1
    minus = np.flatnonzero(cls == _MINUS)  # cls[-1], a newline, stands before byte 0
    if widths.min() < 1 or widths.max() > 18 or (cls[minus - 1] < _COMMA).any() \
            or (cls[minus + 1] != _DIGIT).any():
        return None  # an empty or long field, or a minus sign not leading a number
    joined = buf.copy()
    joined[newlines] = ord(",")
    values = np.fromstring(joined[:-1].tobytes(), dtype=np.int64, sep=",").reshape(-1, 4)
    height, width = dims
    if (values.min(axis=0) < (0, 0, 0, -1)).any() \
            or (values.max(axis=0)[1:] > (width - 1, height - 1, 1)).any():
        return None  # a negative stamp, x or y off the sensor, or p not in {-1, 0, 1}
    t_us, x, y, p = values.T  # contiguous copies, so the rows go with the block
    p = p.astype(_COLUMNS["p"])
    p[p == 0] = -1
    return t_us.copy(), x.astype(_COLUMNS["x"]), y.astype(_COLUMNS["y"]), p


def _scan_lines(block, line_no, dims):
    """Line-by-line parse of ``block``, whose first line is number ``line_no``."""
    height, width = dims
    ts, xs, ys, ps = cols = ([], [], [], [])
    for line_no, line in enumerate(block.split("\n"), start=line_no):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",")
        if len(fields) != 4:
            raise EventParseError(line_no, f"expected 4 fields, got {len(fields)}")
        try:
            t_us, x, y, p = (int(f.strip()) for f in fields)
        except ValueError:
            raise EventParseError(line_no, f"non-numeric field in {text!r}") from None
        if t_us < 0:
            raise EventParseError(line_no, f"negative timestamp {t_us}")
        if t_us >= 2**63:
            raise EventParseError(line_no, f"timestamp {t_us} does not fit in int64")
        if not 0 <= x < width:
            raise EventParseError(line_no, f"x={x} outside [0, {width})")
        if not 0 <= y < height:
            raise EventParseError(line_no, f"y={y} outside [0, {height})")
        if p == 0:
            p = -1
        if p not in (-1, 1):
            raise EventParseError(line_no, f"polarity {p} not in {{-1, 0, 1}}")
        ts.append(t_us)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    return [np.array(c, dtype=dtype) for c, dtype in zip(cols, _COLUMNS.values())]


def serialize_events(events):
    """Inverse of parse_events: one ``t_us,x,y,p`` line per event, in order."""
    rows = zip(*(getattr(events, name).tolist() for name in _COLUMNS))
    return "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in rows)


def window(events, t_end_us, duration_us, dims):
    """Events in the half-open interval [t_end_us - duration_us, t_end_us).

    ``events`` holds time-sorted columns (``Events`` or an ``EventWindow``);
    the window's columns are views into them.
    """
    if duration_us <= 0:
        raise ValueError("window duration must be positive")
    t_start = t_end_us - duration_us
    lo, hi = np.searchsorted(events.t_us, [t_start, t_end_us], side="left")
    return EventWindow(*(getattr(events, name)[lo:hi] for name in _COLUMNS),
                       t_start, t_end_us, *dims)
