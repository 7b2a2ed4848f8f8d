"""Activity-guided event refinement (stage id: ``aefrm``).

The activity map drives a multi-scale pyramid whose output gates the
signed event projection through a residual multiplicative mask: each bin
of the activity tensor is treated as an independent single-channel image,
pushed through a stride-4 stem plus two pooled branches, recombined, and
reduced to a per-pixel mask that rescales the event tensor without ever
moving its zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .params import Norm, Weights, conv_params, norm_params
from .tensor import ShapeError, reshape


@dataclass
class RefineParams:
    stem: Weights
    p1: Weights
    p2: Weights
    cbr: Weights
    cbr_bn: Norm
    attn: Weights
    mask: Weights


def init_refine_params(store, rng, width=8, prefix="aefrm"):
    if width < 1:
        raise ValueError("refinement width must be >= 1")
    return RefineParams(
        stem=conv_params(store, f"{prefix}.stem", rng, width, 1, 7, 7),
        p1=conv_params(store, f"{prefix}.p1", rng, width, 1, 3, 3),
        p2=conv_params(store, f"{prefix}.p2", rng, width, 1, 3, 3),
        cbr=conv_params(store, f"{prefix}.cbr", rng, width, width, 3, 3, bias=False),
        cbr_bn=norm_params(store, f"{prefix}.cbr_bn", width),
        attn=conv_params(store, f"{prefix}.attn", rng, width, width, 1, 1),
        mask=conv_params(store, f"{prefix}.mask", rng, 1, width, 1, 1),
    )


def build_activity_pyramid(a_cm, p):
    """Multi-scale features [(B*C), width, H/4, W/4] from the activity map."""
    b, c, h, w = a_cm.shape
    if h % 4 or w % 4:
        raise ShapeError(f"spatial dims {h}x{w} must be divisible by 4")
    x = reshape(a_cm, (b * c, 1, h, w))
    target = (h // 4, w // 4)
    f_s = ops.conv2d(x, *p.stem, stride=4, pad=3)
    f_p1 = ops.conv2d(ops.pool2d(x, 3, 3), *p.p1, pad=1)
    f_p2 = ops.conv2d(ops.pool2d(x, 5, 5), *p.p2, pad=1)
    merged = f_s + ops.resample(f_p1, target) + ops.resample(f_p2, target)
    return ops.relu(ops.batchnorm2d(ops.conv2d(merged, *p.cbr, pad=1), *p.cbr_bn))


def channel_weights(feat, p):
    """Per-channel gates in (0,1) from globally pooled pyramid features."""
    return ops.sigmoid(ops.conv2d(ops.gap(feat), *p.attn))


def attention_mask(feat, weights, target_hw, batch, channels, p):
    """Single-channel mask resampled to the event grid, [B,C,H,W]."""
    m = ops.conv2d(feat * weights, *p.mask)
    m = ops.resample(m, target_hw)
    return reshape(m, (batch, channels, *target_hw))


def refine(e_vt, mask):
    """Residual gating e_vt * (1 + mask); zeros of e_vt stay zero."""
    if e_vt.shape != mask.shape:
        raise ShapeError(f"mask shape {mask.shape} != events {e_vt.shape}")
    return e_vt + e_vt * mask


def refine_forward(e_vt, a_cm, p):
    b, c, h, w = e_vt.shape
    feat = build_activity_pyramid(a_cm, p)
    weights = channel_weights(feat, p)
    mask = attention_mask(feat, weights, (h, w), b, c, p)
    return refine(e_vt, mask)
