"""Neural building-block operations on tensors.

Convolution, pooling, global average pooling, activations, normalization,
resampling, attention and cross-entropy. Each fused op carries a
hand-written adjoint; all adjoints are covered by the finite difference
suite.

Conventions fixed here:
  - conv2d has two lowerings and picks by shape alone: a GEMM over an
    im2col window copy (Cin*kh*kw*Ho*Wo values), or, when that holds more
    values than Cout*kh*kw*Hp*Wp, one GEMM over the padded input followed
    by a strided shift-sum over the kernel taps (kn2row)
  - pooling averages and divides by the full kernel area (zero padding
    counts as zeros)
  - batchnorm uses current-batch statistics, gradients flow through them
  - bilinear resampling maps dst -> (dst + 0.5) * scale - 0.5, edge-clamped
    (align-corners=false)
  - attention (plain and dual-softmax differential) walks query blocks and
    recomputes probabilities in backward (FlashAttention, Dao et al. 2022);
    the queries are scaled by 1/sqrt(d) once, before the score GEMMs
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, _check_finite, _make, tmean

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


def _pad2d(x, pad):
    if pad == 0:
        return x
    b, c, h, w = x.shape
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
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


def _conv_im2col(xp, wt, stride, out_h, out_w, x_shape, pad):
    """Lowering with one [Cin*kh*kw, Ho*Wo] window copy and one GEMM."""
    b, cin = xp.shape[:2]
    cout, _, kh, kw = wt.shape
    colm = _window_view(xp, kh, kw, stride, out_h, out_w).reshape(
        b, cin * kh * kw, out_h * out_w)
    wm = wt.reshape(cout, cin * kh * kw)
    out = np.matmul(wm, colm).reshape(b, cout, out_h, out_w)

    def adjoint(g):
        gm = g.reshape(b, cout, out_h * out_w)
        gw = np.einsum("bon,bkn->ok", gm, colm).reshape(wt.shape)
        gcols = np.matmul(wm.T, gm).reshape(b, cin, kh, kw, out_h, out_w)
        return _scatter_windows(gcols, x_shape, kh, kw, stride, pad), gw

    return out, adjoint


def _tap_view(y, cout, kh, kw, wp, stride, out_h, out_w):
    """[B, Cout, kh, kw, Ho, Wo] view of Y = W'.xp of shape [B, Cout*kh*kw, N].

    Row (o, i, j) of Y is tap (i, j) of output channel o applied at every
    padded pixel; output (y, x) takes it from pixel (y*s + i, x*s + j), so
    the taps of one output lie at a fixed stride from each other.
    """
    b, _, n = y.shape
    e = y.itemsize
    strides = (y.strides[0], kh * kw * n * e, (kw * n + wp) * e, (n + 1) * e,
               stride * wp * e, stride * e)
    # the constructor, unlike as_strided, also checks the view against y's
    # buffer (y is always a fresh contiguous array here)
    return np.ndarray((b, cout, kh, kw, out_h, out_w), y.dtype, y, 0, strides)


def _conv_shift_sum(xp, wt, stride, out_h, out_w, x_shape, pad):
    """Lowering with one [Cout*kh*kw, Hp*Wp] GEMM and a strided shift-sum.

    The kn2row family of GEMM convolutions (Vasudevan, Anderson and Gregg
    2017): no window copy of the input, at the price of computing every
    tap at every padded pixel.
    """
    b, cin, hp, wp = xp.shape
    cout, _, kh, kw = wt.shape
    xf = xp.reshape(b, cin, hp * wp)
    wk = wt.transpose(0, 2, 3, 1).reshape(cout * kh * kw, cin)
    y = np.matmul(wk, xf)
    out = _tap_view(y, cout, kh, kw, wp, stride, out_h, out_w).sum(axis=(2, 3))

    def adjoint(g):
        # built afresh, so the tape holds no Y-sized array between passes
        gy = np.zeros((b, cout * kh * kw, hp * wp), dtype=g.dtype)
        # the taps of distinct (output, tap) pairs never share an element
        _tap_view(gy, cout, kh, kw, wp, stride, out_h, out_w)[...] = g[:, :, None, None]
        gw = np.tensordot(gy, xf, axes=((0, 2), (0, 2)))
        gxp = np.matmul(wk.T, gy).reshape(xp.shape)
        h, w = x_shape[2:]
        return (gxp[:, :, pad:pad + h, pad:pad + w],
                gw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))

    return out, adjoint


def conv2d(x, weight, bias=None, stride=1, pad=0):
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] kernels."""
    _, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"input has {cin} channels, weight expects {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d kernels must be odd-sized")
    out_h = _out_extent(h, kh, stride, pad)
    out_w = _out_extent(w, kw, stride, pad)

    xp = _pad2d(x.data, pad)
    # the lowering that materialises fewer values: kh*kw*Cout*Hp*Wp GEMM
    # outputs or kh*kw*Cin*Ho*Wo window copies
    hp, wp = xp.shape[2:]
    lower = _conv_shift_sum if cout * hp * wp < cin * out_h * out_w else _conv_im2col
    out, adjoint = lower(xp, weight.data, stride, out_h, out_w, x.shape, pad)
    if bias is None:
        return _make(out, (x, weight), adjoint)
    out = out + bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        return (*adjoint(g), g.sum(axis=(0, 2, 3)))

    return _make(out, (x, weight, bias), bwd)


def pool2d(x, kernel, stride, pad=0):
    """Per-window average over [B,C,H,W]."""
    if pad >= kernel:
        raise ShapeError("pooling pad must be smaller than the kernel")
    b, c, h, w = x.shape
    out_h = _out_extent(h, kernel, stride, pad)
    out_w = _out_extent(w, kernel, stride, pad)

    cols = _window_view(_pad2d(x.data, pad), kernel, kernel, stride, out_h, out_w)
    area = kernel * kernel
    out = cols.reshape(b, c, area, out_h, out_w).sum(axis=2) / area

    def bwd(g):
        gcols = np.broadcast_to(
            (g / area)[:, :, None, None, :, :],
            (b, c, kernel, kernel, out_h, out_w),
        )
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
    # exp(-|d|) never overflows: 1/(1+e^-d) for d >= 0, e^d/(1+e^d) below
    ex = np.exp(-np.abs(d))
    den = 1.0 + ex
    out = np.where(d >= 0, 1.0 / den, ex / den)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), bwd)


def relu(x):
    d = x.data
    out = np.maximum(d, 0.0)

    def bwd(g):
        return (g * (d > 0),)

    return _make(out, (x,), bwd, check_finite=False)


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


def _normalize(x, gamma, beta, axes):
    """gamma * (x - mean) / sqrt(var + EPS_NORM) + beta, statistics over ``axes``.

    gamma and beta hold one value per channel (axis 1). The gradient flows
    through the statistics.
    """
    d = x.data
    n = math.prod(d.shape[a] for a in axes)
    # the same reductions as ndarray.mean and ndarray.var, with the
    # centering reused below
    mu = np.add.reduce(d, axis=axes, keepdims=True) / n
    centered = d - mu
    var = np.add.reduce(centered * centered, axis=axes, keepdims=True) / n
    _check_finite(var)  # an overflowed variance would zero xhat silently
    inv_std = 1.0 / np.sqrt(var + EPS_NORM)
    xhat = centered * inv_std
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
                - dxhat.sum(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
            )
        )
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), bwd)


def batchnorm2d(x, gamma, beta):
    """Per-channel normalization over (B,H,W) using current-batch statistics."""
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects [B,C,H,W]")
    return _normalize(x, gamma, beta, (0, 2, 3))


def layernorm_channels(x, gamma, beta):
    """Normalize across the channel axis per spatial position."""
    if x.ndim != 4:
        raise ShapeError("layernorm_channels expects [B,C,H,W]")
    return _normalize(x, gamma, beta, (1,))


# ---------------------------------------------------------------------------
# resampling


@functools.lru_cache(maxsize=64)
def _interp_matrix(src, dst, dtype):
    """[dst, src] row-stochastic interpolation matrix along one axis."""
    m = np.zeros((dst, src), dtype=dtype)
    scale = src / dst
    # bilinear, align-corners=false, edge-clamped
    centers = np.clip((np.arange(dst) + 0.5) * scale - 0.5, 0.0, src - 1.0)
    lo = np.floor(centers).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    frac = centers - lo
    rows = np.arange(dst)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    m.setflags(write=False)  # shared by every caller
    return m


def resample(x, target):
    """Bilinear resize of [B,C,H,W] to target (H2,W2); constants stay constant."""
    h2, w2 = target
    if h2 < 1 or w2 < 1:
        raise ShapeError("target extents must be >= 1")
    b, c, h, w = x.shape
    if (h, w) == (h2, w2):
        return _make(x.data.copy(), (x,), lambda g: (g,), check_finite=False)
    ry = _interp_matrix(h, h2, x.data.dtype.type)
    rx = _interp_matrix(w, w2, x.data.dtype.type)
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


def _exp_scores(q, kt, rowmax=None):
    """exp(q.k^T - rowmax) for one block of pre-scaled queries, plus the row max.

    The row max (and the block min) double as the finiteness check of the
    scores: a NaN row has a NaN max, +Inf shows in the max, -Inf in the
    min. With ``rowmax`` given (backward) the scores were checked already.
    """
    s = np.matmul(q, kt)
    if rowmax is None:
        rowmax = s.max(axis=-1, keepdims=True)
        if not (np.isfinite(rowmax).all() and math.isfinite(s.min())):
            raise NonFiniteError("attention scores hold NaN/Inf values")
    s -= rowmax
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
    # scaling the queries once replaces a pass over every block of scores;
    # a contiguous k^T keeps the block score GEMM off a transposed operand
    qs = [q * scale for q in qs]
    kts = [np.ascontiguousarray(np.swapaxes(k, -1, -2)) for k in ks]
    outs = [np.empty((b, h, n, dv), dtype=dtype) for _ in qs]
    maxs = [np.empty((b, h, n, 1), dtype=dtype) for _ in qs]
    sums = [np.empty((b, h, n, 1), dtype=dtype) for _ in qs]
    for r0 in range(0, n, rows):
        blk = np.s_[..., r0:r0 + rows, :]
        for q, kt, o, m, z in zip(qs, kts, outs, maxs, sums):
            e, m[blk] = _exp_scores(q[blk], kt)
            z[blk] = e.sum(axis=-1, keepdims=True)
            o[blk] = np.matmul(e, v) / z[blk]
    out = outs[0]
    for c, o in zip(coef[1:], outs[1:]):
        out = out + c * o

    def bwd(g):
        vt = np.ascontiguousarray(np.swapaxes(v, -1, -2))
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
                p, _ = _exp_scores(q[blk], kt, m[blk])
                p /= z[blk]
                gv += c * np.matmul(np.swapaxes(p, -1, -2), gb)
                p *= gp - dot[blk]
                gq[blk] = np.matmul(p, k)
                gk += np.matmul(np.swapaxes(p, -1, -2), q[blk])
        # each branch's factor, and for the queries the pre-scaling, applied
        # once to the O(N*d) gradients rather than to every block of scores
        for c, gq, gk in zip(coef, gqs, gks):
            gq *= c * scale
            gk *= c
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


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy over all pixels.

    logits: [B,K,H,W]; labels: integer array-like [H,W] or [B,H,W].
    """
    lab = np.asarray(labels.data if isinstance(labels, Tensor) else labels)
    lab = np.rint(lab).astype(np.int64)
    b, k, h, w = logits.shape
    if lab.ndim == 2:
        lab = np.broadcast_to(lab, (b, h, w))
    if lab.shape != (b, h, w):
        raise ShapeError(f"labels shape {lab.shape} does not match logits {logits.shape}")
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError("label id outside [0, classes)")
    count = lab.size

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - zmax - np.log(sez)
    picked = np.take_along_axis(logp, lab[:, None], axis=1)[:, 0]
    out = np.asarray(-picked.sum() / count, dtype=z.dtype)

    def bwd(g):
        prob = ez / sez
        onehot = np.zeros_like(z)
        np.put_along_axis(onehot, lab[:, None], 1.0, axis=1)
        dz = (prob - onehot) / count
        return (g * dz,)

    return _make(out, (logits,), bwd)
