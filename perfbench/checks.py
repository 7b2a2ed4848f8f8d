"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks take plain arrays and numbers, never evifuse objects, so the
self-test can feed them perturbed values without touching the program.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import sha256

# |logit - reference| <= LOGIT_ATOL + LOGIT_RTOL * |reference|. Float32
# logits of order 1 from a network whose reductions may be reordered by a
# later change; differences of that kind stay near 1e-6.
LOGIT_ATOL = 1e-4
LOGIT_RTOL = 1e-4
# relative tolerance on the final training loss after TRAIN_STEPS of
# float32 gradient descent
LOSS_RTOL = 1e-3
# total activity against the event count: each event has kernel mass 1,
# summed in float64 and stored as float32
MASS_RTOL = 1e-6
MASS_ATOL = 1e-3
# |projection| <= activity, with the float32 slack the acceptance suite uses
ENVELOPE_SLACK = 1e-6


def encoding_digest(e_vt, a_cm):
    return sha256(np.asarray(e_vt), np.asarray(a_cm))


def check_encoding(e_vt, a_cm, count, expected_digest):
    """Mass conservation, the |e_vt| <= a_cm envelope, and bitwise identity."""
    problems = []
    e_vt = np.asarray(e_vt)
    a_cm = np.asarray(a_cm)
    if e_vt.shape != a_cm.shape:
        return [f"projection shape {e_vt.shape} != activity shape {a_cm.shape}"]
    mass = float(a_cm.sum(dtype=np.float64))
    if not abs(mass - count) <= MASS_ATOL + MASS_RTOL * count:
        problems.append(f"total activity {mass!r} != event count {count}")
    if not (np.abs(e_vt) <= a_cm + ENVELOPE_SLACK).all():
        problems.append("|projection| exceeds activity")
    digest = encoding_digest(e_vt, a_cm)
    if digest != expected_digest:
        problems.append(f"encoding digest {digest[:16]} != recorded {expected_digest[:16]}")
    return problems


def logit_sample(logits):
    """The checked part of a [1, K, H, W] logits array: an 8-pixel-stride grid
    plus the per-class mean over every pixel."""
    arr = np.asarray(logits, dtype=np.float64)
    return {
        "grid": arr[0, :, ::8, ::8].reshape(-1),
        "class_mean": arr[0].mean(axis=(1, 2)),
    }


def check_logits(logits, reference):
    """Logits against a stored reference sample within the float32 tolerance."""
    arr = np.asarray(logits)
    if arr.shape != tuple(reference["shape"]):
        return [f"logits shape {arr.shape} != {tuple(reference['shape'])}"]
    if not np.isfinite(arr).all():
        return ["non-finite logits"]
    problems = []
    sample = logit_sample(arr)
    for key, values in sample.items():
        ref = np.asarray(reference[key], dtype=np.float64)
        err = np.abs(values - ref) - (LOGIT_ATOL + LOGIT_RTOL * np.abs(ref))
        if (err > 0).any():
            i = int(np.argmax(err))
            problems.append(f"logits {key}[{i}] = {values[i]!r}, reference {ref[i]!r}")
    return problems


def check_loss(history, steps, reference_loss):
    """Training history length, finiteness and final loss against the reference."""
    if len(history) != steps:
        return [f"{len(history)} losses for {steps} steps"]
    if not all(math.isfinite(v) for v in history):
        return ["non-finite loss"]
    final = history[-1]
    if not abs(final - reference_loss) <= LOSS_RTOL * abs(reference_loss):
        return [f"final loss {final!r} != reference {reference_loss!r}"]
    return []


def check_grad_rows(rows, tolerance):
    """Every (group, worst relative error) row must be finite and under tolerance."""
    if not rows:
        return ["no gradient rows"]
    return [
        f"{group}: worst relative error {err!r} >= {tolerance}"
        for group, err in rows
        if not (math.isfinite(err) and err < tolerance)
    ]


def check_count(name, got, expected):
    return [] if got == expected else [f"{name}: {got} != expected {expected}"]
