"""Modality-adaptive recalibration (stage id: ``marm``).

Each stream is first rescaled per channel by gates computed from its own
global statistics, then both streams share a spatial mask derived from
their pooled per-pixel statistics. Learnable scalars gate the residual,
initialized to zero so the whole stage starts as an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .params import Weights, conv_params
from .tensor import ShapeError, Tensor, concat, narrow, tmax, tmean


@dataclass
class RecalParams:
    ce: Weights
    ci: Weights
    spatial: Weights
    gamma_e: Tensor
    gamma_i: Tensor


def init_recal_params(store, rng, c_event, c_image, prefix="marm"):
    return RecalParams(
        ce=conv_params(store, f"{prefix}.ce", rng, c_event, c_event, 1, 1),
        ci=conv_params(store, f"{prefix}.ci", rng, c_image, c_image, 1, 1),
        spatial=conv_params(store, f"{prefix}.spatial", rng, 2, 4, 7, 7),
        gamma_e=store.add(f"{prefix}.gamma_e", np.zeros(())),
        gamma_i=store.add(f"{prefix}.gamma_i", np.zeros(())),
    )


def channel_recalibrate(ev, im, p):
    """Rescale each stream by sigmoid gates over its pooled channels."""
    if ev.shape[2:] != im.shape[2:]:
        raise ShapeError(f"spatial dims differ: {ev.shape} vs {im.shape}")
    w_e = ops.sigmoid(ops.conv2d(ops.gap(ev), *p.ce))
    w_i = ops.sigmoid(ops.conv2d(ops.gap(im), *p.ci))
    return ev * w_e, im * w_i


def spatial_stats(ev_c, im_c):
    """Per-pixel channel statistics [B,4,H,W]: avg/max of each stream."""
    return concat(
        (
            tmean(ev_c, axis=1, keepdims=True),
            tmax(ev_c, axis=1, keepdims=True),
            tmean(im_c, axis=1, keepdims=True),
            tmax(im_c, axis=1, keepdims=True),
        ),
        axis=1,
    )


def spatial_masks(stats, p):
    """Two masks in (0,1): channel 0 gates events, channel 1 gates the image."""
    if stats.shape[1] != 4:
        raise ShapeError("spatial statistics tensor must have 4 channels")
    return ops.sigmoid(ops.conv2d(stats, *p.spatial, pad=3))


def recalibrate(ev, im, p):
    """Residual recalibration; exact identity at gamma = 0."""
    ev_c, im_c = channel_recalibrate(ev, im, p)
    masks = spatial_masks(spatial_stats(ev_c, im_c), p)
    mask_e = narrow(masks, 1, 0, 1)
    mask_i = narrow(masks, 1, 1, 1)
    ev_rec = ev_c * mask_e * p.gamma_e + ev
    im_rec = im_c * mask_i * p.gamma_i + im
    return ev_rec, im_rec
