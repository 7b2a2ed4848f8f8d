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


def encode(win, bins):
    """Accumulate an ``EventWindow`` into projection/activity tensors.

    The normalized timestamp t* = (bins - 1) * (t - t_start) / (t_end -
    t_start) lands between two integer bin centers; the triangular kernel
    gives bin k = floor(t*) the weight 1 - (t* - k) and bin k + 1 the
    weight t* - k.

    The window rules are ``EventWindow``'s: its columns are time-sorted,
    its stamps lie in [t_start_us, t_end_us], its events on the sensor
    and its span is positive. So floor(t*) never decreases and the events
    of each k form one contiguous run, found by one ``searchsorted``. Each
    run adds its low weights to plane k and its high weights to plane
    k + 1. Every pixel sums its low terms, then its high terms, in event
    order in float64, and the two sums are added and cast to float32 once.

    Raises ``ValueError`` if ``bins < 1``.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    h, w = win.height, win.width
    t, x, y, p = win.t_us, win.x, win.y, win.p
    tstar = (t - win.t_start_us).astype(np.float64)
    tstar *= bins - 1
    tstar /= float(win.t_end_us - win.t_start_us)
    cuts = [0, *np.searchsorted(tstar, np.arange(1, bins)).tolist(), len(t)]

    e_vt = np.empty((bins, h * w), dtype=np.float32)
    a_cm = np.empty((bins, h * w), dtype=np.float32)
    prev = None  # pixels, p * w_hi and w_hi of the run whose high terms go to plane k
    for k in range(bins):
        run = slice(cuts[k], cuts[k + 1])
        base = y[run] * np.intp(w)  # in intp: a narrow y times the width can overflow
        base += x[run]
        w_hi = tstar[run]
        w_hi -= k  # in place: each run is read once
        w_lo = 1.0 - w_hi
        pk = p[run].astype(np.float64)
        for out, w_run, side in ((e_vt[k], pk * w_lo, 1), (a_cm[k], w_lo, 2)):
            # the low and high sums are made back to back, still in cache when added
            lo = np.bincount(base, weights=w_run, minlength=h * w)
            hi = 0.0 if prev is None else np.bincount(prev[0], weights=prev[side],
                                                      minlength=h * w)
            np.add(lo, hi, out=out, casting="unsafe")
        prev = base, np.multiply(pk, w_hi, out=pk), w_hi

    shape = (bins, h, w)
    return EncodedEvents(e_vt=Tensor(e_vt.reshape(shape)),
                         a_cm=Tensor(a_cm.reshape(shape)))
