"""Attention-gated fusion of the two streams (stage id: ``mgfm``).

The event stream queries the image stream through dual-softmax
differential attention (the second softmax, scaled by a learnable
per-head factor, subtracts common-mode responses). The image stream
queries the event stream through cross-attention whose keys/values are
average-pooled to cut token count. A two-channel softmax gate then mixes
the streams per pixel, and a channelwise-normalized feed-forward block
with a residual finishes the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .params import Norm, Weights, conv_params, linear_params, norm_params
from .tensor import ShapeError, Tensor, concat, linear, narrow, rearrange


@dataclass
class FusionParams:
    # differential attention (event stream queries image stream)
    q1: Weights
    q2: Weights
    k1: Weights
    k2: Weights
    v: Weights
    eo: Weights
    lam: Tensor  # per-head subtraction scale
    # reduced cross-attention (image stream queries pooled event stream)
    cq: Weights
    ck: Weights
    cv: Weights
    co: Weights
    # gate
    gate_c: Weights
    gate_c_bn: Norm
    gate_s: Weights
    gate_s_bn: Norm
    gate_g: Weights
    # enhancement
    ln: Norm
    ffn1: Weights
    ffn2: Weights
    heads: int
    reduction: int


LAMBDA_INIT = 0.8


def init_fusion_params(store, rng, channels, heads, reduction, prefix="mgfm"):
    if channels % heads:
        raise ValueError(f"channels {channels} not divisible by heads {heads}")
    c = channels
    return FusionParams(
        q1=linear_params(store, f"{prefix}.q1", rng, c, c),
        q2=linear_params(store, f"{prefix}.q2", rng, c, c),
        # key projections carry no bias: softmax rows are invariant to the
        # per-query constant shift a key bias induces, so it could never train
        k1=linear_params(store, f"{prefix}.k1", rng, c, c, bias=False),
        k2=linear_params(store, f"{prefix}.k2", rng, c, c, bias=False),
        v=linear_params(store, f"{prefix}.v", rng, c, c),
        eo=linear_params(store, f"{prefix}.eo", rng, c, c),
        lam=store.add(f"{prefix}.lam", np.full(heads, LAMBDA_INIT)),
        cq=linear_params(store, f"{prefix}.cq", rng, c, c),
        ck=linear_params(store, f"{prefix}.ck", rng, c, c, bias=False),
        cv=linear_params(store, f"{prefix}.cv", rng, c, c),
        co=linear_params(store, f"{prefix}.co", rng, c, c),
        gate_c=conv_params(store, f"{prefix}.gate_c", rng, 2, 2 * c, 1, 1, bias=False),
        gate_c_bn=norm_params(store, f"{prefix}.gate_c_bn", 2),
        gate_s=conv_params(store, f"{prefix}.gate_s", rng, 2, 2 * c, 7, 7, bias=False),
        gate_s_bn=norm_params(store, f"{prefix}.gate_s_bn", 2),
        # gate logits conv starts as identity so initial gates follow the maps
        gate_g=Weights(w=store.add(f"{prefix}.gate_g.w", np.eye(2).reshape(2, 2, 1, 1)),
                       b=store.add(f"{prefix}.gate_g.b", np.zeros(2))),
        ln=norm_params(store, f"{prefix}.ln", c),
        ffn1=linear_params(store, f"{prefix}.ffn1", rng, c, 4 * c),
        ffn2=linear_params(store, f"{prefix}.ffn2", rng, 4 * c, c),
        heads=heads, reduction=reduction,
    )


def _to_tokens(x):
    b, c, h, w = x.shape
    return rearrange(x, (0, 2, 3, 1), (b, h * w, c))


def _to_map(tokens, h, w):
    b, _, c = tokens.shape
    return rearrange(tokens, (0, 3, 1, 2), (b, c, h, w), split=(b, h, w, c))


def _split_heads(tokens, heads):
    b, n, c = tokens.shape
    d = c // heads
    return rearrange(tokens, (0, 2, 1, 3), (b, heads, n, d), split=(b, n, heads, d))


def _merge_heads(x):
    b, heads, n, d = x.shape
    return rearrange(x, (0, 2, 1, 3), (b, n, heads * d))


def differential_attention(x, y, p):
    """Event stream x attends to image stream y; dual-softmax difference.

    Per head: A = softmax(Q1.K1^T/sqrt(d)) - lam * softmax(Q2.K2^T/sqrt(d)),
    output A.V plus the residual x. lam = 0 collapses to plain
    cross-attention; Q1=Q2, K1=K2 with lam = 1 cancels to the residual.
    """
    b, c, h, w = x.shape
    if c % p.heads:
        raise ShapeError(f"channels {c} not divisible by heads {p.heads}")
    xt = _to_tokens(x)
    yt = _to_tokens(y)
    q1 = _split_heads(linear(xt, *p.q1), p.heads)
    q2 = _split_heads(linear(xt, *p.q2), p.heads)
    k1 = _split_heads(linear(yt, *p.k1), p.heads)
    k2 = _split_heads(linear(yt, *p.k2), p.heads)
    v = _split_heads(linear(yt, *p.v), p.heads)
    attended = ops.diff_attention(q1, q2, k1, k2, v, p.lam)
    out = linear(_merge_heads(attended), *p.eo)
    return _to_map(out, h, w) + x


def efficient_cross_attention(x, y, p):
    """Image stream x attends to event stream y pooled by the reduction ratio."""
    b, c, h, w = x.shape
    if c % p.heads:
        raise ShapeError(f"channels {c} not divisible by heads {p.heads}")
    r = p.reduction
    if r < 1:
        raise ValueError("reduction ratio must be >= 1")
    yh, yw = y.shape[2:]
    if yh % r or yw % r:
        raise ShapeError(f"source dims {yh}x{yw} not divisible by reduction {r}")
    y_red = ops.pool2d(y, r, r) if r > 1 else y
    q = _split_heads(linear(_to_tokens(x), *p.cq), p.heads)
    yt = _to_tokens(y_red)
    k = _split_heads(linear(yt, *p.ck), p.heads)
    v = _split_heads(linear(yt, *p.cv), p.heads)
    attended = ops.attention_core(q, k, v)
    out = linear(_merge_heads(attended), *p.co)
    return _to_map(out, h, w) + x


def gate(ev_att, im_att, p):
    """Per-pixel two-channel softmax gate; channels sum to one everywhere."""
    if ev_att.shape != im_att.shape:
        raise ShapeError(f"stream shapes differ: {ev_att.shape} vs {im_att.shape}")
    fused = concat((ev_att, im_att), axis=1)
    a_c = ops.relu(ops.batchnorm2d(
        ops.conv2d(ops.gap(fused), *p.gate_c), *p.gate_c_bn))
    a_s = ops.relu(ops.batchnorm2d(
        ops.conv2d(fused, *p.gate_s, pad=3), *p.gate_s_bn))
    logits = ops.conv2d(a_c + a_s, *p.gate_g)
    return ops.softmax(logits, axis=1)


def fuse(ev_att, im_att, gates):
    """Convex per-pixel combination of the two streams."""
    return ev_att * narrow(gates, 1, 0, 1) + im_att * narrow(gates, 1, 1, 1)


def enhance(fused, p):
    """Channel layernorm + feed-forward (1x1 expand, GELU, 1x1 contract) + residual."""
    normed = ops.layernorm_channels(fused, *p.ln)
    b, c, h, w = fused.shape
    tokens = _to_tokens(normed)
    hidden = ops.gelu(linear(tokens, *p.ffn1))
    out = linear(hidden, *p.ffn2)
    return _to_map(out, h, w) + fused


def fusion_forward(ev_rec, im_rec, p):
    ev_att = differential_attention(ev_rec, im_rec, p)
    im_att = efficient_cross_attention(im_rec, ev_rec, p)
    gates = gate(ev_att, im_att, p)
    return enhance(fuse(ev_att, im_att, gates), p)
