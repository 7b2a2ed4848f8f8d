"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete. The gradient suite (criterion 2) dominates the runtime.
"""

import io
import itertools
import time

import numpy as np
import pytest

from evifuse import ops
from evifuse.encoding import encode
from evifuse.events import Events, EventWindow, parse_events, serialize_events, window
from evifuse.fusion import enhance, fuse, gate, init_fusion_params
from evifuse.network import Model, NetworkConfig, train_toy
from evifuse.params import ParamStore, make_rng
from evifuse.recalibrate import init_recal_params, recalibrate
from evifuse.refine import init_refine_params, refine_forward
from evifuse.synth import synth_scene
from evifuse.tensor import Tensor
from evifuse.verify import TOLERANCE, run_checks

from _oracles import (
    attention_naive, conv2d_naive, encode_naive, merge_heads, pool2d_naive, token_map,
)

ACCEPT_SCENE = dict(seed=7, dims=(64, 64), n_objects=2, noise_rate=0.5,
                    window_us=50000)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = {"conv2d": 0.0, "pool2d": 0.0, "attention": 0.0, "encode": 0.0}

    for seed in range(100):
        rng = np.random.default_rng(seed)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        k = int(rng.choice([1, 3]))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h = int(rng.integers(4, 9))
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        ref = conv2d_naive(x, w, b, stride, pad)
        worst["conv2d"] = max(worst["conv2d"], float(np.abs(got.data - ref).max()))

    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        kernel = int(rng.integers(1, 6))
        # sizes the kernel need not divide: the trailing rows and columns drop
        h, w = (int(v) for v in rng.integers(kernel, 4 * kernel + 1, 2))
        x = rng.standard_normal((2, 2, h, w))
        got = ops.pool2d(Tensor(x), kernel)
        ref = pool2d_naive(x, kernel, kernel, 0)
        worst["pool2d"] = max(worst["pool2d"], float(np.abs(got.data - ref).max()))

    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n, nk, d = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        q = rng.standard_normal((1, 2, n, d))
        k = rng.standard_normal((1, 2, nk, d))
        v = rng.standard_normal((1, 2, nk, d))
        # the kernel takes the draws as [B,h*d,N,1] maps of 2 heads
        got = ops.attention_core(*(Tensor(token_map(merge_heads(a))) for a in (q, k, v)), 2)
        ref = token_map(merge_heads(attention_naive(q, k, v)))
        worst["attention"] = max(worst["attention"], float(np.abs(got.data - ref).max()))

    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        bins = int(rng.integers(1, 5))
        n = int(rng.integers(50, 300))
        events = Events(rng.integers(0, 10000, n), rng.integers(0, 12, n),
                        rng.integers(0, 10, n), rng.choice([-1, 1], n))
        win = EventWindow(events.t_us, events.x, events.y, events.p, 0, 10000, 10, 12)
        enc = encode(win, bins)
        e_ref, a_ref = encode_naive(events, 0, 10000, bins, 10, 12)
        worst["encode"] = max(
            worst["encode"],
            float(np.abs(enc.e_vt.data - e_ref).max()),
            float(np.abs(enc.a_cm.data - a_ref).max()),
        )

    elapsed = time.time() - t0
    ok = all(v < 1e-6 for v in worst.values()) and elapsed < 60
    detail = (f"400 randomized instances, worst abs deviation "
              + " ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f", {elapsed:.1f}s (< 60s)")
    report(1, ok, detail)


@pytest.mark.slow
def test_criterion_2_gradient_suite():
    t0 = time.time()
    results = run_checks("all", seed=1)
    elapsed = time.time() - t0
    lines = []
    worst_overall = 0.0
    groups = 0
    for name, rows in results.items():
        group, err = max(rows, key=lambda r: r[1])
        worst_overall = max(worst_overall, err)
        groups += len(rows)
        lines.append(f"{name}:{err:.2e}")
    ok = worst_overall < TOLERANCE and elapsed < 300
    report(2, ok, f"{groups} parameter groups + inputs across 6 modules, "
                  f"worst per module {' '.join(lines)}, {elapsed:.0f}s (< 300s)")


def test_criterion_3_exact_identities(rng):
    failures = []

    store = ParamStore()
    rp = init_recal_params(store, make_rng(5), 3, 4)
    ev = Tensor(rng.standard_normal((1, 3, 8, 8)), dtype=np.float64)
    im = Tensor(rng.standard_normal((1, 4, 8, 8)), dtype=np.float64)
    ev_rec, im_rec = recalibrate(ev, im, rp)
    if not (np.array_equal(ev_rec.data, ev.data) and np.array_equal(im_rec.data, im.data)):
        failures.append("recalibration at gamma=0 not bitwise identity")

    store = ParamStore()
    fp = init_refine_params(store, make_rng(5), width=4)
    fp.mask.w.data = np.zeros_like(fp.mask.w.data)
    fp.mask.b.data = np.zeros_like(fp.mask.b.data)
    e_vt = Tensor(rng.standard_normal((1, 3, 32, 32)), dtype=np.float64)
    a_cm = Tensor(np.abs(rng.standard_normal((1, 3, 32, 32))), dtype=np.float64)
    if not np.array_equal(refine_forward(e_vt, a_cm, fp).data, e_vt.data):
        failures.append("refinement with zeroed mask conv not identity")

    store = ParamStore()
    gp = init_fusion_params(store, make_rng(5), 4, 2, 2)
    gp.ffn2.w.data = np.zeros_like(gp.ffn2.w.data)
    gp.ffn2.b.data = np.zeros_like(gp.ffn2.b.data)
    f_out = Tensor(rng.standard_normal((1, 4, 8, 8)), dtype=np.float64)
    if not np.array_equal(enhance(f_out, gp).data, f_out.data):
        failures.append("enhancement with zeroed FFN output conv not identity")

    for t in (gp.gate_g.w, gp.gate_s.w, gp.gate_c.w, gp.gate_c_bn.g, gp.gate_s_bn.g):
        t.data = np.asarray(rng.standard_normal(t.shape))
    ap = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype=np.float64)
    bp = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype=np.float64)
    gates = gate(ap, bp, gp)
    if np.abs(gates.data.sum(axis=1) - 1.0).max() > 1e-6:
        failures.append("gate channels do not sum to 1")

    mixed = fuse(ap, bp, gates).data
    lo = np.minimum(ap.data, bp.data)
    hi = np.maximum(ap.data, bp.data)
    if not ((mixed >= lo - 1e-9).all() and (mixed <= hi + 1e-9).all()):
        failures.append("fused output escapes elementwise bounds")

    report(3, not failures, "; ".join(failures) or
           "gamma=0 identity, zero-mask identity, zero-FFN identity, "
           "gate normalization, fuse bounds all hold")


def test_criterion_4_encoding_invariants(rng):
    failures = []
    n = 3000
    columns = (rng.integers(0, 50000, n), rng.integers(0, 16, n),
               rng.integers(0, 16, n), rng.choice([-1, 1], n))
    events = Events(*columns)
    win = EventWindow(events.t_us, events.x, events.y, events.p, 0, 50000, 16, 16)
    enc = encode(win, 3)

    flipped = EventWindow(win.t_us, win.x, win.y, -win.p, 0, 50000, 16, 16)
    enc_f = encode(flipped, 3)
    if not np.array_equal(enc.e_vt.data, -enc_f.e_vt.data):
        failures.append("polarity antisymmetry broken")
    if not np.array_equal(enc.a_cm.data, enc_f.a_cm.data):
        failures.append("activity changed under polarity flip")

    perm = rng.permutation(n)  # handed to encode out of time order
    enc_s = encode(EventWindow(*(c[perm] for c in columns), 0, 50000, 16, 16), 3)
    if not np.array_equal(enc.e_vt.data, enc_s.e_vt.data):
        failures.append("permutation invariance broken")

    if abs(float(enc.a_cm.data.sum()) - n) > 1e-2:
        failures.append("mass not conserved")
    if not (np.abs(enc.e_vt.data) <= enc.a_cm.data + 1e-6).all():
        failures.append("|projection| exceeds activity")

    one = encode(window(Events([25000], [4], [7], [1]), 50000, 50000, (16, 16)), 3)
    if one.e_vt.data[1, 7, 4] != 1.0 or one.a_cm.data.sum() != 1.0:
        failures.append("bin-center event does not contribute exactly 1.0")

    report(4, not failures, "; ".join(failures) or
           "antisymmetry, permutation invariance, mass conservation, "
           "|e_vt|<=a_cm, exact bin-center contribution all hold")


def test_criterion_5_toy_overfit():
    t0 = time.time()
    scene = synth_scene(**ACCEPT_SCENE)
    cfg = NetworkConfig()
    _, history, miou, pa = train_toy(scene, cfg, steps=200, lr=0.05)
    elapsed = time.time() - t0
    ratio = history[-1] / history[0]
    ok = ratio < 0.2 and miou >= 0.90 and elapsed < 600
    report(5, ok, f"loss {history[0]:.4f} -> {history[-1]:.4f} "
                  f"(ratio {ratio:.3f} < 0.2), mIoU {miou:.4f} >= 0.90, "
                  f"PA {pa:.4f}, {elapsed:.0f}s (< 600s)")


def test_criterion_6_ablation_harness():
    scene = synth_scene(**ACCEPT_SCENE)
    rows = {}
    print()
    print(f"{'aefrm':<6} {'marm':<6} {'mgfm':<6} {'final loss':>12} {'mIoU':>8} {'PA':>8}")
    for toggles in itertools.product((False, True), repeat=3):
        cfg = NetworkConfig(use_aefrm=toggles[0], use_marm=toggles[1],
                            use_mgfm=toggles[2])
        _, history, miou, pa = train_toy(scene, cfg, steps=50, lr=0.05)
        rows[toggles] = history[-1]
        onoff = ["on" if t else "off" for t in toggles]
        print(f"{onoff[0]:<6} {onoff[1]:<6} {onoff[2]:<6} "
              f"{history[-1]:>12.4f} {miou:>8.4f} {pa:>8.4f}")
    all_finite = all(np.isfinite(v) for v in rows.values())
    ordering = rows[(True, True, True)] <= rows[(False, False, False)]
    report(6, all_finite and len(rows) == 8 and ordering,
           f"8 toggle combinations trained 50 steps without NaN; full model "
           f"{rows[(True, True, True)]:.4f} <= baseline "
           f"{rows[(False, False, False)]:.4f}")


def test_criterion_7_duration_sweep():
    scene = synth_scene(seed=11, dims=(64, 64), n_objects=2, noise_rate=1.0,
                        window_us=250000)
    cfg = NetworkConfig()
    model = Model(cfg)
    image = scene.image
    shapes = set()
    counts = []
    for duration in (10000, 50000, 250000):
        win = window(scene.events, 250000, duration, (64, 64))
        enc = encode(win, cfg.bins)
        assert (np.abs(enc.e_vt.data) <= enc.a_cm.data + 1e-6).all()
        logits = model.forward_encoded(image, enc)
        assert np.isfinite(logits.data).all()
        shapes.add(logits.shape)
        counts.append(win.count)
    ok = shapes == {(1, 3, 64, 64)} and counts[0] < counts[1] < counts[2]
    report(7, ok, f"10/50/250 ms windows hold {counts} events, all encodings "
                  f"valid, forward shapes identical {shapes.pop()}")


def test_criterion_8_throughput_soft_target():
    rng = np.random.default_rng(0)
    n = 1_000_000
    h, w = 260, 346  # 346x260 sensor crop
    win = EventWindow(np.sort(rng.integers(0, 50000, n)), rng.integers(0, w, n),
                      rng.integers(0, h, n), rng.choice([-1, 1], n), 0, 50000, h, w)
    encode(win, 3)  # warm-up
    t0 = time.time()
    enc = encode(win, 3)
    rate = n / (time.time() - t0)
    assert abs(float(enc.a_cm.data.sum()) - n) < 1e-2
    csv = io.StringIO(serialize_events(Events(win.t_us, win.x, win.y, win.p)))
    t0 = time.time()
    parsed = parse_events(csv, (h, w))
    parse_rate = n / (time.time() - t0)
    assert len(parsed) == n
    for name in ("t_us", "x", "y", "p"):
        assert np.array_equal(getattr(parsed, name), getattr(win, name))
    # soft targets: report the measured rates, never fail the build on them
    status = "meets" if rate >= 1e6 else "below"
    parse_status = "meets" if parse_rate >= 2e6 else "below"
    report(8, rate > 0, f"encode rate {rate/1e6:.2f}M events/s ({status} the 1M soft "
                        f"target), parse rate {parse_rate/1e6:.2f}M events/s ({parse_status} "
                        f"the 2M soft target), single-threaded at 346x260")
