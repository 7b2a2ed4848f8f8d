"""Neural building-block operations on tensors.

Convolution, pooling, global average pooling, activations, normalization,
resampling, attention and cross-entropy. Each fused op carries a
hand-written adjoint; all adjoints are covered by the finite difference
suite.

Conventions fixed here:
  - avg pooling divides by the full kernel area (zero padding counts as
    zeros); max pooling pads with -inf so padding never wins
  - batchnorm uses current-batch statistics, gradients flow through them
  - bilinear resampling maps dst -> (dst + 0.5) * scale - 0.5, edge-clamped
    (align-corners=false); nearest maps dst -> floor(dst * scale)
  - attention (plain and dual-softmax differential) walks query blocks and
    recomputes probabilities in backward (FlashAttention, Dao et al. 2022)
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, _make, tmean

EPS_NORM = 1e-5


# ---------------------------------------------------------------------------
# convolution / pooling


def _out_extent(size, kernel, stride, pad):
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"non-positive output extent for size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _pad2d(x, pad, fill=0.0):
    if pad == 0:
        return x
    b, c, h, w = x.shape
    if fill == 0.0:
        out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    else:
        out = np.full((b, c, h + 2 * pad, w + 2 * pad), fill, dtype=x.dtype)
    out[:, :, pad:-pad, pad:-pad] = x
    return out


def _window_view(xp, kh, kw, stride, out_h, out_w):
    """Strided [B, C, kh, kw, Ho, Wo] view over a padded input."""
    b, c, _, _ = xp.shape
    sb, sc, sh, sw = xp.strides
    shape = (b, c, kh, kw, out_h, out_w)
    strides = (sb, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def _scatter_windows(grad_cols, in_shape, kh, kw, stride, pad):
    """Adjoint of _window_view: scatter-add window gradients back."""
    b, c, h, w = in_shape
    out_h, out_w = grad_cols.shape[-2:]
    gxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=grad_cols.dtype)
    for i in range(kh):
        hi = i + (out_h - 1) * stride + 1
        for j in range(kw):
            wj = j + (out_w - 1) * stride + 1
            gxp[:, :, i:hi:stride, j:wj:stride] += grad_cols[:, :, i, j]
    if pad:
        return gxp[:, :, pad:-pad, pad:-pad]
    return gxp


def conv2d(x, weight, bias=None, stride=1, pad=0):
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] kernels."""
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"input has {cin} channels, weight expects {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d kernels must be odd-sized")
    out_h = _out_extent(h, kh, stride, pad)
    out_w = _out_extent(w, kw, stride, pad)

    xp = _pad2d(x.data, pad)
    cols = _window_view(xp, kh, kw, stride, out_h, out_w)
    colm = cols.reshape(b, cin * kh * kw, out_h * out_w)
    wm = weight.data.reshape(cout, cin * kh * kw)
    out = np.matmul(wm, colm).reshape(b, cout, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        gm = g.reshape(b, cout, out_h * out_w)
        gw = np.einsum("bon,bkn->ok", gm, colm).reshape(weight.shape)
        gcols = np.matmul(wm.T, gm).reshape(b, cin, kh, kw, out_h, out_w)
        gx = _scatter_windows(gcols, x.shape, kh, kw, stride, pad)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None else None
        return gx, gw, gb

    inputs = (x, weight, bias) if bias is not None else (x, weight)
    if bias is None:
        return _make(out, inputs, lambda g: bwd(g)[:2])
    return _make(out, inputs, bwd)


def pool2d(x, kind, kernel, stride, pad=0):
    """Per-window average or maximum over [B,C,H,W]."""
    if kind not in ("avg", "max"):
        raise ValueError(f"unknown pooling kind {kind!r}")
    if pad >= kernel:
        raise ShapeError("pooling pad must be smaller than the kernel")
    b, c, h, w = x.shape
    out_h = _out_extent(h, kernel, stride, pad)
    out_w = _out_extent(w, kernel, stride, pad)

    fill = 0.0 if kind == "avg" else -np.inf
    xp = _pad2d(x.data, pad, fill)
    cols = _window_view(xp, kernel, kernel, stride, out_h, out_w)
    flat = cols.reshape(b, c, kernel * kernel, out_h, out_w)

    if kind == "avg":
        area = kernel * kernel
        out = flat.sum(axis=2) / area

        def bwd(g):
            gcols = np.broadcast_to(
                (g / area)[:, :, None, None, :, :],
                (b, c, kernel, kernel, out_h, out_w),
            )
            return (_scatter_windows(gcols, x.shape, kernel, kernel, stride, pad),)

        return _make(out, (x,), bwd)

    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

    def bwd(g):
        gflat = np.zeros((b, c, kernel * kernel, out_h, out_w), dtype=g.dtype)
        np.put_along_axis(gflat, arg[:, :, None], g[:, :, None], axis=2)
        gcols = gflat.reshape(b, c, kernel, kernel, out_h, out_w)
        return (_scatter_windows(gcols, x.shape, kernel, kernel, stride, pad),)

    return _make(out, (x,), bwd)


def gap(x):
    """Global average pooling: spatial mean per (batch, channel)."""
    if x.ndim != 4:
        raise ShapeError("gap expects a [B,C,H,W] tensor")
    return tmean(x, axis=(2, 3), keepdims=True)


# ---------------------------------------------------------------------------
# activations


def sigmoid(x):
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), bwd)


def relu(x):
    d = x.data
    out = np.maximum(d, 0.0)

    def bwd(g):
        return (g * (d > 0),)

    return _make(out, (x,), bwd)


# Python floats, so float32 inputs stay float32 (a numpy float64 scalar
# would promote them)
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x):
    """GELU, tanh form: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    d = x.data
    inner = _GELU_C * (d + _GELU_A * (d * d * d))
    th = np.tanh(inner)
    out = 0.5 * d * (1.0 + th)

    def bwd(g):
        sech2 = 1.0 - th * th
        local = 0.5 * (1.0 + th) + 0.5 * d * sech2 * _GELU_C * (1.0 + 3 * _GELU_A * d * d)
        return (g * local,)

    return _make(out, (x,), bwd)


def softmax(x, axis):
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# normalization


def batchnorm2d(x, gamma, beta, eps=EPS_NORM):
    """Per-channel normalization over (B,H,W) using current-batch statistics."""
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects [B,C,H,W]")
    d = x.data
    n = d.shape[0] * d.shape[2] * d.shape[3]
    mu = d.mean(axis=(0, 2, 3), keepdims=True)
    var = d.var(axis=(0, 2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * inv_std
    gm = gamma.data.reshape(1, -1, 1, 1)
    out = gm * xhat + beta.data.reshape(1, -1, 1, 1)

    def bwd(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * gm
        dx = (
            inv_std
            / n
            * (
                n * dxhat
                - dxhat.sum(axis=(0, 2, 3), keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
            )
        )
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), bwd)


def layernorm_channels(x, gamma, beta, eps=EPS_NORM):
    """Normalize across the channel axis per spatial position."""
    if x.ndim != 4:
        raise ShapeError("layernorm_channels expects [B,C,H,W]")
    d = x.data
    c = d.shape[1]
    mu = d.mean(axis=1, keepdims=True)
    var = d.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * inv_std
    gm = gamma.data.reshape(1, -1, 1, 1)
    out = gm * xhat + beta.data.reshape(1, -1, 1, 1)

    def bwd(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * gm
        dx = (
            inv_std
            / c
            * (
                c * dxhat
                - dxhat.sum(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
            )
        )
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# resampling


_INTERP_CACHE = {}


def _interp_matrix(src, dst, mode, dtype):
    """[dst, src] row-stochastic interpolation matrix along one axis."""
    key = (src, dst, mode, dtype)
    cached = _INTERP_CACHE.get(key)
    if cached is not None:
        return cached
    m = np.zeros((dst, src), dtype=dtype)
    scale = src / dst
    if mode == "nearest":
        idx = np.minimum((np.arange(dst) * scale).astype(np.int64), src - 1)
        m[np.arange(dst), idx] = 1.0
    else:
        # bilinear, align-corners=false, edge-clamped
        centers = np.clip((np.arange(dst) + 0.5) * scale - 0.5, 0.0, src - 1.0)
        lo = np.floor(centers).astype(np.int64)
        hi = np.minimum(lo + 1, src - 1)
        frac = centers - lo
        rows = np.arange(dst)
        np.add.at(m, (rows, lo), 1.0 - frac)
        np.add.at(m, (rows, hi), frac)
    m.setflags(write=False)  # shared by every caller
    _INTERP_CACHE[key] = m
    return m


def resample(x, target, mode="bilinear"):
    """Resize [B,C,H,W] to target (H2,W2); constant inputs stay constant."""
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resample mode {mode!r}")
    h2, w2 = target
    if h2 < 1 or w2 < 1:
        raise ShapeError("target extents must be >= 1")
    b, c, h, w = x.shape
    if (h, w) == (h2, w2):
        return _make(x.data.copy(), (x,), lambda g: (g,))
    ry = _interp_matrix(h, h2, mode, x.data.dtype.type)
    rx = _interp_matrix(w, w2, mode, x.data.dtype.type)
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def bwd(g):
        return (np.matmul(np.matmul(ry.T, g), rx),)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# attention

# Bytes of one query block's scores, summed over batch and heads. The block
# height follows from the key count, so the kernel never materialises an
# N x Nk matrix and stays cache-sized whatever the token count.
_ATTN_BLOCK_BYTES = 1 << 19


def _block_rows(batch_heads, keys, itemsize):
    return max(1, _ATTN_BLOCK_BYTES // (batch_heads * keys * itemsize))


def _exp_scores(q, kt, scale, rowmax=None):
    """exp(scale * (q.k^T - rowmax)) for one query block, plus the row max.

    The row max (and the block min) double as the finiteness check of the
    raw scores: a NaN row has a NaN max, +Inf shows in the max, -Inf in the
    min. With ``rowmax`` given (backward) the scores were checked already.
    """
    s = np.matmul(q, kt)
    if rowmax is None:
        rowmax = s.max(axis=-1, keepdims=True)
        if not (np.isfinite(rowmax).all() and math.isfinite(s.min())):
            raise NonFiniteError("attention scores hold NaN/Inf values")
    s -= rowmax
    s *= scale
    np.exp(s, out=s)
    return s, rowmax


def _check_heads(q, k, v):
    if q.ndim != 4 or k.ndim != 4 or v.ndim != 4:
        raise ShapeError("attention operands must be [B, heads, tokens, dim]")
    d = q.shape[-1]
    if d == 0:
        raise ShapeError("attention head dimension must be positive")
    if k.shape[-1] != d or v.shape[:3] != k.shape[:3] or q.shape[:2] != k.shape[:2]:
        raise ShapeError(
            "query/key/value batch, heads, token counts and head dims must agree")


def _attention(qs, ks, v, coef):
    """sum_i coef_i * softmax(q_i.k_i^T / sqrt(d)) . v over query blocks.

    ``coef`` holds one factor per branch: 1.0 for the first, a float or an
    array broadcasting against [B,h,1,1] for the others. Returns the output
    data and the adjoint. The adjoint recomputes each block's probabilities
    from the saved row max and row sum, so only O(N*d) arrays outlive the
    forward pass; it returns the per-branch query and key gradients, the
    value gradient and each branch's rowsum(g * softmax . v).
    """
    b, h, n, d = qs[0].shape
    nk, dv = v.shape[2:]
    dtype = np.result_type(*qs, *ks, v)
    scale = 1.0 / math.sqrt(d)
    rows = _block_rows(b * h, nk, dtype.itemsize)
    kts = [np.swapaxes(k, -1, -2) for k in ks]
    outs = [np.empty((b, h, n, dv), dtype=dtype) for _ in qs]
    maxs = [np.empty((b, h, n, 1), dtype=dtype) for _ in qs]
    sums = [np.empty((b, h, n, 1), dtype=dtype) for _ in qs]
    for r0 in range(0, n, rows):
        blk = np.s_[..., r0:r0 + rows, :]
        for q, kt, o, m, z in zip(qs, kts, outs, maxs, sums):
            e, m[blk] = _exp_scores(q[blk], kt, scale)
            z[blk] = e.sum(axis=-1, keepdims=True)
            o[blk] = np.matmul(e, v) / z[blk]
    out = outs[0]
    for c, o in zip(coef[1:], outs[1:]):
        out = out + c * o

    def bwd(g):
        vt = np.swapaxes(v, -1, -2)
        gv = np.zeros_like(v)
        gqs = [np.empty_like(q) for q in qs]
        gks = [np.zeros_like(k) for k in ks]
        # rowsum(dP * P) of each branch, FlashAttention's D term
        dots = [(g * o).sum(axis=-1, keepdims=True) for o in outs]
        for r0 in range(0, n, rows):
            blk = np.s_[..., r0:r0 + rows, :]
            gb = g[blk]
            gp = np.matmul(gb, vt)
            for q, k, kt, m, z, c, dot, gq, gk in zip(
                    qs, ks, kts, maxs, sums, coef, dots, gqs, gks):
                p, _ = _exp_scores(q[blk], kt, scale, m[blk])
                p /= z[blk]
                gv += c * np.matmul(np.swapaxes(p, -1, -2), gb)
                p *= gp - dot[blk]
                p *= c * scale
                gq[blk] = np.matmul(p, k)
                gk += np.matmul(np.swapaxes(p, -1, -2), q[blk])
        return gqs, gks, gv, dots

    return out, bwd


def attention_core(q, k, v):
    """softmax(Q.K^T / sqrt(d)) . V over [B,h,N,d] / [B,h,Nk,d] heads."""
    _check_heads(q, k, v)
    out, core = _attention((q.data,), (k.data,), v.data, (1.0,))

    def bwd(g):
        (gq,), (gk,), gv, _ = core(g)
        return gq, gk, gv

    return _make(out, (q, k, v), bwd)


def diff_attention(q1, q2, k1, k2, v, lam):
    """(softmax(Q1.K1^T/sqrt(d)) - lam * softmax(Q2.K2^T/sqrt(d))) . V.

    Dual-softmax differential attention over [B,h,N,d] queries and
    [B,h,Nk,d] keys/values, with one subtraction factor per head in lam [h].
    """
    _check_heads(q1, k1, v)
    if q1.shape != q2.shape or k1.shape != k2.shape:
        raise ShapeError("the two query/key branches must have equal shapes")
    if lam.shape != (q1.shape[1],):
        raise ShapeError(f"lam must hold one value per head, got {lam.shape}")
    lam_h = lam.data.reshape(1, -1, 1, 1)
    out, core = _attention(
        (q1.data, q2.data), (k1.data, k2.data), v.data, (1.0, -lam_h))

    def bwd(g):
        (gq1, gq2), (gk1, gk2), gv, (_, dot2) = core(g)
        return gq1, gq2, gk1, gk2, gv, -dot2.sum(axis=(0, 2, 3))

    return _make(out, (q1, q2, k1, k2, v, lam), bwd)


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits, labels, ignore_id=None):
    """Mean softmax cross-entropy over non-ignored pixels.

    logits: [B,K,H,W]; labels: integer array-like [H,W] or [B,H,W].
    """
    lab = np.asarray(labels.data if isinstance(labels, Tensor) else labels)
    lab = np.rint(lab).astype(np.int64)
    b, k, h, w = logits.shape
    if lab.ndim == 2:
        lab = np.broadcast_to(lab, (b, h, w))
    if lab.shape != (b, h, w):
        raise ShapeError(f"labels shape {lab.shape} does not match logits {logits.shape}")
    mask = np.ones(lab.shape, dtype=bool) if ignore_id is None else lab != ignore_id
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross_entropy: every pixel is ignored")
    safe_lab = np.where(mask, lab, 0)
    if safe_lab.min() < 0 or safe_lab.max() >= k:
        raise ValueError("label id outside [0, classes)")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - zmax - np.log(sez)
    picked = np.take_along_axis(logp, safe_lab[:, None], axis=1)[:, 0]
    out = np.asarray(-(picked * mask).sum() / count, dtype=z.dtype)

    def bwd(g):
        prob = ez / sez
        onehot = np.zeros_like(z)
        np.put_along_axis(onehot, safe_lab[:, None], 1.0, axis=1)
        dz = (prob - onehot) * mask[:, None] / count
        return (g * dz,)

    return _make(out, (logits,), bwd)
