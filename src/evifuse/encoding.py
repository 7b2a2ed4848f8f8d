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

from .tensor import Tensor


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

    Vectorized over events: the normalized timestamp
    t* = (bins - 1) * (t - t_start) / (t_end - t_start) lands between two
    integer bin centers; the triangular kernel weights k(bin - t*) are
    nonzero only for floor(t*) and floor(t*)+1.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    h, w = win.height, win.width
    n = bins * h * w
    tstar = (
        (bins - 1)
        * (win.t_us - win.t_start_us).astype(np.float64)
        / float(win.t_end_us - win.t_start_us)
    )
    lo = np.floor(tstar).astype(np.int64)
    w_hi = tstar - lo
    w_lo = 1.0 - w_hi
    base = win.y * w + win.x
    idx_lo = lo * (h * w) + base
    hi = lo + 1 <= bins - 1
    idx_hi = idx_lo[hi] + h * w
    e_vt = np.bincount(idx_lo, weights=win.p * w_lo, minlength=n)
    e_vt += np.bincount(idx_hi, weights=(win.p * w_hi)[hi], minlength=n)
    a_cm = np.bincount(idx_lo, weights=w_lo, minlength=n)
    a_cm += np.bincount(idx_hi, weights=w_hi[hi], minlength=n)

    shape = (bins, h, w)
    return EncodedEvents(
        e_vt=Tensor(e_vt.reshape(shape).astype(np.float32)),
        a_cm=Tensor(a_cm.reshape(shape).astype(np.float32)),
        bins=bins,
        t_start_us=win.t_start_us,
        t_end_us=win.t_end_us,
    )
