"""Polarity-aware event projection and activity maps.

A window of events becomes two [bins, H, W] tensors: a signed projection
(polarities accumulate with sign) and a non-negative activity map (same
accumulation without sign). Each event's unit mass is split between its
two nearest temporal bins by the triangular kernel, so |projection| <=
activity holds everywhere and total activity equals the summed kernel
mass of all events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventWindow
from .tensor import Tensor


def kernel_k(z):
    """Triangular kernel max(0, 1 - |z|); splits mass between adjacent bins."""
    return max(0.0, 1.0 - abs(z))


def normalize_time(t_us, win, bins):
    """Map a timestamp inside the window onto the bin axis [0, bins-1]."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not win.t_start_us <= t_us < win.t_end_us:
        raise ValueError(
            f"timestamp {t_us} outside window [{win.t_start_us}, {win.t_end_us})"
        )
    if bins == 1:
        return 0.0
    return (bins - 1) * (t_us - win.t_start_us) / (win.t_end_us - win.t_start_us)


@dataclass(frozen=True)
class EncodedEvents:
    """Signed projection and activity map for one window."""

    e_vt: Tensor  # [bins, H, W], signed
    a_cm: Tensor  # [bins, H, W], non-negative
    bins: int
    t_start_us: int
    t_end_us: int


def encode(win, bins):
    """Accumulate a window into projection/activity tensors.

    Vectorized over events: the normalized timestamp t* lands between two
    integer bin centers; the triangular kernel weights k(bin - t*) are
    nonzero only for floor(t*) and floor(t*)+1.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    h, w = win.height, win.width
    e_vt = np.zeros(bins * h * w, dtype=np.float64)
    a_cm = np.zeros(bins * h * w, dtype=np.float64)

    if win.count:
        if bins == 1:
            tstar = np.zeros(win.count, dtype=np.float64)
        else:
            tstar = (
                (bins - 1)
                * (win.t_us - win.t_start_us).astype(np.float64)
                / float(win.t_end_us - win.t_start_us)
            )
        lo = np.floor(tstar).astype(np.int64)
        frac = tstar - lo
        w_lo = 1.0 - frac
        w_hi = frac
        base = win.y * w + win.x
        n = bins * h * w
        idx_lo = lo * (h * w) + base
        e_vt += np.bincount(idx_lo, weights=win.p * w_lo, minlength=n)
        a_cm += np.bincount(idx_lo, weights=w_lo, minlength=n)
        hi_valid = lo + 1 <= bins - 1
        if hi_valid.any():
            idx_hi = (lo[hi_valid] + 1) * (h * w) + base[hi_valid]
            e_vt += np.bincount(idx_hi, weights=(win.p * w_hi)[hi_valid], minlength=n)
            a_cm += np.bincount(idx_hi, weights=w_hi[hi_valid], minlength=n)

    shape = (bins, h, w)
    return EncodedEvents(
        e_vt=Tensor(e_vt.reshape(shape).astype(np.float32)),
        a_cm=Tensor(a_cm.reshape(shape).astype(np.float32)),
        bins=bins,
        t_start_us=win.t_start_us,
        t_end_us=win.t_end_us,
    )


def encode_empty(dims, bins, t_start_us=0, t_end_us=1):
    """All-zero encoding with the right shape, for streams with no events."""
    empty = np.zeros(0, dtype=np.int64)
    return encode(EventWindow(empty, empty, empty, empty, t_start_us, t_end_us, *dims), bins)
