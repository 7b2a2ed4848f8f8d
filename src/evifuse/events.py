"""Event stream parsing, validation and windowing.

The on-disk format is plain CSV, one event per line: ``t_us,x,y,p`` with
microsecond integer timestamps. Polarity may be written {-1,1} or {0,1};
0 maps to -1 so both public conventions parse. Blank lines and lines
starting with '#' are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COLUMNS = ("t_us", "x", "y", "p")


class EventParseError(ValueError):
    """Malformed or out-of-bounds event line; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Events:
    """An event stream as four int64 columns ``t_us``, ``x``, ``y``, ``p`` (+-1).

    The constructor stable-sorts the columns by timestamp (input order breaks
    ties) and makes them read-only, because windows are views into them.
    """

    __slots__ = _COLUMNS

    def __init__(self, t_us, x, y, p):
        cols = [np.asarray(c, dtype=np.int64) for c in (t_us, x, y, p)]
        if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
            raise ValueError("event columns must be 1-D and of equal length")
        order = np.argsort(cols[0], kind="stable")
        for name, col in zip(_COLUMNS, cols):
            col = col[order]
            col.flags.writeable = False
            setattr(self, name, col)

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

    @property
    def duration_us(self):
        return self.t_end_us - self.t_start_us


def parse_events(stream, dims):
    """Parse and validate a CSV event stream into time-sorted ``Events``.

    ``stream`` is an iterable of text lines; ``dims`` is (height, width).
    The stable sort by timestamp is the canonical event order.
    """
    height, width = dims
    ts, xs, ys, ps = cols = ([], [], [], [])
    for line_no, line in enumerate(stream, start=1):
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
    return Events(*cols)


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
