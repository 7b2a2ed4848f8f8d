"""Independent brute-force reference implementations.

Everything here is deliberately written as plain loops over numpy scalars,
sharing no code with the package, so the vectorized implementations are
checked against a genuinely different computation path. The one exception,
``encode_global_bincount``, is an earlier vectorized form kept to pin bytes.
"""

import math
import struct
from collections import namedtuple

import numpy as np

from evifuse.events import EventParseError

Event = namedtuple("Event", "t_us x y p")


def rows(events):
    """Per-event ``Event`` tuples of anything holding the four event columns."""
    return [Event(*row) for row in zip(events.t_us.tolist(), events.x.tolist(),
                                       events.y.tolist(), events.p.tolist())]


def conv2d_naive(x, w, b, stride, pad):
    bs, cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((bs, cout, out_h, out_w), dtype=np.float64)
    for n in range(bs):
        for co in range(cout):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - pad
                                ix = ox * stride + kx - pad
                                if 0 <= iy < h and 0 <= ix < width:
                                    acc += float(x[n, ci, iy, ix]) * float(w[co, ci, ky, kx])
                    out[n, co, oy, ox] = acc + (float(b[co]) if b is not None else 0.0)
    return out


def pool2d_naive(x, kernel, stride, pad):
    bs, c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    out = np.zeros((bs, c, out_h, out_w), dtype=np.float64)
    for n in range(bs):
        for ci in range(c):
            for oy in range(out_h):
                for ox in range(out_w):
                    vals = []
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - pad
                            ix = ox * stride + kx - pad
                            if 0 <= iy < h and 0 <= ix < w:
                                vals.append(float(x[n, ci, iy, ix]))
                    # padded taps count as zeros: divide by the full area
                    out[n, ci, oy, ox] = sum(vals) / (kernel * kernel)
    return out


def attention_naive(q, k, v):
    bs, heads, n, d = q.shape
    nk = k.shape[2]
    out = np.zeros((bs, heads, n, d), dtype=np.float64)
    for b in range(bs):
        for h in range(heads):
            for i in range(n):
                scores = [
                    sum(float(q[b, h, i, t]) * float(k[b, h, j, t]) for t in range(d))
                    / math.sqrt(d)
                    for j in range(nk)
                ]
                m = max(scores)
                exp = [math.exp(s - m) for s in scores]
                z = sum(exp)
                weights = [e / z for e in exp]
                for t in range(d):
                    out[b, h, i, t] = sum(
                        weights[j] * float(v[b, h, j, t]) for j in range(nk)
                    )
    return out


def differential_attention_naive(q1, q2, k1, k2, v, lam):
    """Dual-softmax attention difference; all inputs [B,h,N,d], lam per head."""
    bs, heads, n, d = q1.shape
    nk = k1.shape[2]

    def soft_row(q, k, b, h, i):
        scores = [
            sum(float(q[b, h, i, t]) * float(k[b, h, j, t]) for t in range(d))
            / math.sqrt(d)
            for j in range(nk)
        ]
        m = max(scores)
        exp = [math.exp(s - m) for s in scores]
        z = sum(exp)
        return [e / z for e in exp]

    out = np.zeros((bs, heads, n, d), dtype=np.float64)
    for b in range(bs):
        for h in range(heads):
            for i in range(n):
                w1 = soft_row(q1, k1, b, h, i)
                w2 = soft_row(q2, k2, b, h, i)
                weights = [a - float(lam[h]) * c for a, c in zip(w1, w2)]
                for t in range(d):
                    out[b, h, i, t] = sum(
                        weights[j] * float(v[b, h, j, t]) for j in range(nk)
                    )
    return out


def parse_events_naive(stream, dims):
    """Line scan building one ``Event`` per line, then a stable sort by time.

    It raises the package's ``EventParseError`` type (an interface, not
    shared logic) so that line numbers and messages compare directly.
    """
    height, width = dims
    events = []
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
        if not 0 <= x < width:
            raise EventParseError(line_no, f"x={x} outside [0, {width})")
        if not 0 <= y < height:
            raise EventParseError(line_no, f"y={y} outside [0, {height})")
        if p == 0:
            p = -1
        if p not in (-1, 1):
            raise EventParseError(line_no, f"polarity {p} not in {{-1, 0, 1}}")
        events.append(Event(t_us, x, y, p))
    events.sort(key=lambda e: e.t_us)  # stable: file order breaks ties
    return events


def encode_naive(events, t_start, t_end, bins, height, width):
    """Per-event, per-bin accumulation straight from the kernel definition."""
    e_vt = np.zeros((bins, height, width), dtype=np.float64)
    a_cm = np.zeros((bins, height, width), dtype=np.float64)
    for ev in rows(events):
        if bins == 1:
            tstar = 0.0
        else:
            tstar = (bins - 1) * (ev.t_us - t_start) / (t_end - t_start)
        for c in range(bins):
            k = max(0.0, 1.0 - abs(c - tstar))
            e_vt[c, ev.y, ev.x] += ev.p * k
            a_cm[c, ev.y, ev.x] += k
    return e_vt, a_cm


def encode_global_bincount(win, bins):
    """The earlier vectorized ``encoding.encode``, kept verbatim as a bitwise
    reference: one ``bincount`` per kernel side over the whole window, in
    the window's event order. Returns float32 (e_vt, a_cm) arrays.
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
    return (e_vt.reshape(shape).astype(np.float32),
            a_cm.reshape(shape).astype(np.float32))


def window_naive(events, t_end, duration):
    lo = t_end - duration
    return [e for e in rows(events) if lo <= e.t_us < t_end]


def cross_entropy_naive(logits, labels):
    bs, k, h, w = logits.shape
    total = 0.0
    count = 0
    for b in range(bs):
        for y in range(h):
            for x in range(w):
                lab = int(labels[y, x]) if labels.ndim == 2 else int(labels[b, y, x])
                z = [float(logits[b, c, y, x]) for c in range(k)]
                m = max(z)
                lse = m + math.log(sum(math.exp(v - m) for v in z))
                total += lse - z[lab]
                count += 1
    return total / count


def metrics_naive(pred, gt, classes):
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
        confusion[int(g), int(p)] += 1
    pa = float(np.trace(confusion)) / confusion.sum()
    ious = []
    for c in range(classes):
        inter = confusion[c, c]
        union = confusion[c, :].sum() + confusion[:, c].sum() - inter
        if union > 0:
            ious.append(inter / union)
    return (float(np.mean(ious)) if ious else 0.0), pa


def gap_naive(x):
    bs, c, h, w = x.shape
    out = np.zeros((bs, c, 1, 1), dtype=np.float64)
    for b in range(bs):
        for ci in range(c):
            out[b, ci, 0, 0] = sum(
                float(x[b, ci, y, xx]) for y in range(h) for xx in range(w)
            ) / (h * w)
    return out


def eift_bytes(values):
    """An EIFT file's bytes, packed field by field without any value check,
    so tests can build the NaN/Inf payloads that ``write_tensor`` refuses."""
    arr = np.asarray(values, dtype="<f4")
    return (b"EIFT" + struct.pack(f"<II{arr.ndim}Q", 1, arr.ndim, *arr.shape)
            + arr.tobytes())
