"""Gated attention fusion: both attention paths, gate, mix, enhancement."""

import numpy as np
import pytest

from evifuse import ops
from evifuse.fusion import (
    differential_attention, efficient_cross_attention, enhance, fuse,
    fusion_forward, gate, init_fusion_params,
)
from evifuse.params import ParamStore, make_rng
from evifuse.tensor import (
    NonFiniteError, ShapeError, Tape, Tensor, linear, mul, rearrange, reshape, tsum,
)

from _oracles import attention_naive, differential_attention_naive, pool2d_naive


def make_params(seed=1, channels=4, heads=2, reduction=2):
    store = ParamStore()
    p = init_fusion_params(store, make_rng(seed), channels, heads, reduction)
    return p, store


def rand_t(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _zero(*tensors):
    for t in tensors:
        t.data = np.zeros_like(t.data)


def _tokens(x):
    b, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(b, h * w, c)


def _heads(tok, heads):
    b, n, c = tok.shape
    return tok.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3)


def _merge(x):
    b, h, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def _diff_attention_oracle(x, y, p):
    """Numpy re-implementation via the naive per-token attention oracle."""
    b, c, h, w = x.shape
    xt, yt = _tokens(x.data), _tokens(y.data)
    q1 = _heads(xt @ p.q1.w.data + p.q1.b.data, p.heads)
    q2 = _heads(xt @ p.q2.w.data + p.q2.b.data, p.heads)
    k1 = _heads(yt @ p.k1.w.data, p.heads)
    k2 = _heads(yt @ p.k2.w.data, p.heads)
    v = _heads(yt @ p.v.w.data + p.v.b.data, p.heads)
    att = differential_attention_naive(q1, q2, k1, k2, v, p.lam.data)
    out = _merge(att) @ p.eo.w.data + p.eo.b.data
    return out.reshape(b, h, w, c).transpose(0, 3, 1, 2) + x.data


class TestInitContracts:
    def test_lambda_starts_at_point_eight(self):
        p, _ = make_params(heads=2)
        np.testing.assert_allclose(p.lam.data, [0.8, 0.8])

    def test_gate_logit_conv_starts_as_identity(self):
        p, _ = make_params()
        np.testing.assert_array_equal(p.gate_g.w.data, np.eye(2).reshape(2, 2, 1, 1))
        np.testing.assert_array_equal(p.gate_g.b.data, np.zeros(2))

    def test_norm_affine_starts_neutral(self):
        p, _ = make_params()
        np.testing.assert_array_equal(p.ln.g.data, np.ones(4))
        np.testing.assert_array_equal(p.ln.b.data, np.zeros(4))

    def test_head_mismatch_rejected_at_init(self):
        with pytest.raises(ValueError):
            make_params(channels=4, heads=3)


class TestDifferentialAttention:
    def test_lambda_zero_collapses_to_cross_attention(self, rng):
        p, _ = make_params()
        _zero(p.lam)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        got = differential_attention(x, y, p).data
        xt, yt = _tokens(x.data), _tokens(y.data)
        q1 = _heads(xt @ p.q1.w.data + p.q1.b.data, 2)
        k1 = _heads(yt @ p.k1.w.data, 2)
        v = _heads(yt @ p.v.w.data + p.v.b.data, 2)
        plain = _merge(attention_naive(q1, k1, v)) @ p.eo.w.data + p.eo.b.data
        expected = plain.reshape(1, 4, 4, 4).transpose(0, 3, 1, 2) + x.data
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_equal_projections_unit_lambda_cancel_to_residual(self, rng):
        p, _ = make_params()
        p.q2.w.data = p.q1.w.data.copy()
        p.q2.b.data = p.q1.b.data.copy()
        p.k2.w.data = p.k1.w.data.copy()
        p.lam.data = np.ones_like(p.lam.data)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        out = differential_attention(x, y, p)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_naive_token_oracle(self, rng):
        p, _ = make_params(channels=4, heads=2)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        got = differential_attention(x, y, p).data
        np.testing.assert_allclose(got, _diff_attention_oracle(x, y, p), atol=1e-6)

    def test_heads_must_divide_channels(self, rng):
        p, _ = make_params(channels=4, heads=2)
        with pytest.raises(ShapeError):
            differential_attention(rand_t(rng, (1, 3, 4, 4)),
                                   rand_t(rng, (1, 3, 4, 4)), p)


def _composed_diff_attention(q1, q2, k1, k2, v, lam):
    """The unfused tape composition: two softmaxes, a difference, a product."""
    b, h, nk, d = k1.shape
    scale = 1.0 / np.sqrt(d)
    a1 = ops.softmax(linear(q1, rearrange(k1, (0, 1, 3, 2), (b, h, d, nk))) * scale, axis=-1)
    a2 = ops.softmax(linear(q2, rearrange(k2, (0, 1, 3, 2), (b, h, d, nk))) * scale, axis=-1)
    return linear(a1 + mul(a2 * reshape(lam, (1, h, 1, 1)), -1.0), v)


def _diff_inputs(rng, b, h, n, nk, d, dtype=np.float64):
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in [(b, h, n, d)] * 2 + [(b, h, nk, d)] * 3]
    return arrays + [rng.uniform(0.1, 1.0, h).astype(dtype)]


def _three_row_blocks(monkeypatch, b, h, nk, itemsize=8):
    monkeypatch.setattr(ops, "_ATTN_BLOCK_BYTES", 3 * b * h * nk * itemsize)
    assert ops._block_rows(b * h, nk, itemsize) == 3


class TestFusedDiffAttention:
    # (B, heads, N, Nk, d): N is never a multiple of the 3-row block and
    # Nk differs from N
    SHAPES = [(1, 2, 7, 5, 3), (2, 1, 11, 4, 2), (1, 2, 8, 13, 4), (2, 2, 10, 3, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_naive_oracle_over_blocks(self, shape, monkeypatch):
        b, h, n, nk, d = shape
        _three_row_blocks(monkeypatch, b, h, nk)
        arrays = _diff_inputs(np.random.default_rng(n * 100 + nk), b, h, n, nk, d)
        got = ops.diff_attention(*(Tensor(a) for a in arrays)).data
        np.testing.assert_allclose(got, differential_attention_naive(*arrays),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_softmax_case_matches_naive_oracle(self, shape, monkeypatch):
        b, h, n, nk, d = shape
        _three_row_blocks(monkeypatch, b, h, nk)
        q, _, k, _, v, _ = _diff_inputs(np.random.default_rng(n + nk), b, h, n, nk, d)
        got = ops.attention_core(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, attention_naive(q, k, v), rtol=0, atol=1e-12)

    def test_agrees_with_composed_path_float64(self):
        # large enough that the real byte budget cuts N into ragged blocks
        b, h, n, nk, d = 1, 2, 300, 500, 8
        rows = ops._block_rows(b * h, nk, 8)
        assert rows < n and n % rows
        rng = np.random.default_rng(11)
        arrays = _diff_inputs(rng, b, h, n, nk, d)
        probe = Tensor(rng.standard_normal((b, h, n, d)))
        results = []
        for op in (ops.diff_attention, _composed_diff_attention):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = op(*inputs)
                total = tsum(out * probe)
            tape.backward(total)
            results.append((out.data, [t.grad for t in inputs]))
        (fused, fused_grads), (composed, composed_grads) = results
        np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12)
        for gf, gc in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-12)

    def test_one_tape_record_in_input_dtype(self, rng):
        inputs = [Tensor(a, requires_grad=True)
                  for a in _diff_inputs(rng, 1, 2, 6, 5, 4, np.float32)]
        with Tape() as tape:
            out = ops.diff_attention(*inputs)
            total = tsum(out)
        assert len(tape) == 2  # the attention record and the sum
        assert out.dtype == np.float32
        tape.backward(total)
        assert all(t.grad.dtype == np.float32 for t in inputs)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1)])
    def test_overflowing_scores_raise_like_composed_path(self, signs, monkeypatch):
        # q.k of 4 * 1e40 overflows float32: +Inf, -Inf or, with mixed signs
        # along d, Inf - Inf = NaN; one bad row, inside the second block
        _three_row_blocks(monkeypatch, 1, 2, 5, itemsize=4)
        q = np.ones((1, 2, 7, 4), dtype=np.float32)
        k = np.ones((1, 2, 5, 4), dtype=np.float32)
        q[0, 1, 4] = 1e20
        k[0, 1, 2] = signs[0] * 1e20
        k[0, 1, 2, :2] *= signs[1]
        lam = Tensor(np.full(2, 0.8, dtype=np.float32))
        qt, kt = Tensor(q), Tensor(k)
        with pytest.raises(NonFiniteError):
            _composed_diff_attention(qt, qt, kt, kt, kt, lam)
        with pytest.raises(NonFiniteError):
            ops.diff_attention(qt, qt, kt, kt, kt, lam)
        with pytest.raises(NonFiniteError):
            ops.attention_core(qt, kt, kt)

    def test_large_finite_scores_pass_like_composed_path(self):
        q = Tensor(np.full((1, 1, 3, 4), 1e18, dtype=np.float32))
        k = Tensor(np.full((1, 1, 2, 4), 1e18, dtype=np.float32))
        lam = Tensor(np.full(1, 0.8, dtype=np.float32))
        composed = _composed_diff_attention(q, q, k, k, k, lam).data
        np.testing.assert_allclose(ops.diff_attention(q, q, k, k, k, lam).data,
                                   composed, rtol=1e-6)

    def test_branch_and_lambda_shapes_checked(self, rng):
        q1, q2, k1, k2, v, lam = (Tensor(a) for a in _diff_inputs(rng, 1, 2, 3, 3, 2))
        with pytest.raises(ShapeError):
            ops.diff_attention(q1, q2, k1, k2, v, Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ops.diff_attention(q1, Tensor(q2.data[:, :, :2]), k1, k2, v, lam)
        with pytest.raises(ShapeError):
            ops.diff_attention(q1, q2, k1, Tensor(k2.data[:, :1]), v, lam)


class TestEfficientCrossAttention:
    def test_reduction_one_is_plain_attention(self, rng):
        p, _ = make_params(reduction=1)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        got = efficient_cross_attention(x, y, p).data
        xt, yt = _tokens(x.data), _tokens(y.data)
        q = _heads(xt @ p.cq.w.data + p.cq.b.data, 2)
        k = _heads(yt @ p.ck.w.data, 2)
        v = _heads(yt @ p.cv.w.data + p.cv.b.data, 2)
        out = _merge(attention_naive(q, k, v)) @ p.co.w.data + p.co.b.data
        expected = out.reshape(1, 4, 4, 4).transpose(0, 3, 1, 2) + x.data
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_constant_source_gives_constant_update(self, rng):
        p, _ = make_params(reduction=2)
        x = rand_t(rng, (1, 4, 4, 4))
        y = Tensor(np.tile(rng.standard_normal((1, 4, 1, 1)), (1, 1, 4, 4)),
                   dtype=np.float64)
        delta = efficient_cross_attention(x, y, p).data - x.data
        np.testing.assert_allclose(
            delta, np.broadcast_to(delta[:, :, :1, :1], delta.shape), atol=1e-9)

    def test_reduction_two_matches_materialized_pooling(self, rng):
        p, _ = make_params(reduction=2)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        got = efficient_cross_attention(x, y, p).data
        y_red = pool2d_naive(y.data, 2, 2, 0)
        xt, yt = _tokens(x.data), _tokens(y_red)
        q = _heads(xt @ p.cq.w.data + p.cq.b.data, 2)
        k = _heads(yt @ p.ck.w.data, 2)
        v = _heads(yt @ p.cv.w.data + p.cv.b.data, 2)
        out = _merge(attention_naive(q, k, v)) @ p.co.w.data + p.co.b.data
        expected = out.reshape(1, 4, 4, 4).transpose(0, 3, 1, 2) + x.data
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_indivisible_reduction_rejected(self, rng):
        p, _ = make_params(reduction=3)
        with pytest.raises(ShapeError):
            efficient_cross_attention(rand_t(rng, (1, 4, 4, 4)),
                                      rand_t(rng, (1, 4, 4, 4)), p)


class TestGate:
    def test_zero_logit_conv_gives_even_gates(self, rng):
        p, _ = make_params()
        _zero(p.gate_g.w, p.gate_g.b)
        g = gate(rand_t(rng, (1, 4, 8, 8)), rand_t(rng, (1, 4, 8, 8)), p)
        np.testing.assert_allclose(g.data, 0.5, atol=1e-12)

    def test_gates_sum_to_one(self, rng):
        p, _ = make_params()
        for t in (p.gate_g.w, p.gate_g.b, p.gate_s.w, p.gate_c.w):
            t.data = np.asarray(rng.standard_normal(t.shape))
        g = gate(rand_t(rng, (2, 4, 8, 8)), rand_t(rng, (2, 4, 8, 8)), p)
        np.testing.assert_allclose(g.data.sum(axis=1), 1.0, atol=1e-6)
        assert (g.data > 0).all()

    def test_matches_step_by_step_oracle(self, rng):
        from _oracles import conv2d_naive

        p, _ = make_params()
        for t in (p.gate_c_bn.g, p.gate_c_bn.b, p.gate_s_bn.g, p.gate_s_bn.b, p.gate_g.w, p.gate_g.b):
            t.data = np.asarray(rng.standard_normal(t.shape) * 0.5)
        ev, im = rand_t(rng, (2, 4, 6, 6)), rand_t(rng, (2, 4, 6, 6))
        got = gate(ev, im, p).data

        fused = np.concatenate([ev.data, im.data], axis=1)
        pooled = fused.mean(axis=(2, 3), keepdims=True)

        def bn(x, g, b):
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            xhat = (x - mu) / np.sqrt(var + 1e-5)
            return g.reshape(1, -1, 1, 1) * xhat + b.reshape(1, -1, 1, 1)

        a_c = np.maximum(bn(conv2d_naive(pooled, p.gate_c.w.data, None, 1, 0),
                            p.gate_c_bn.g.data, p.gate_c_bn.b.data), 0)
        a_s = np.maximum(bn(conv2d_naive(fused, p.gate_s.w.data, None, 1, 3),
                            p.gate_s_bn.g.data, p.gate_s_bn.b.data), 0)
        logits = conv2d_naive(a_c + a_s, p.gate_g.w.data, p.gate_g.b.data, 1, 0)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        p, _ = make_params()
        with pytest.raises(ShapeError):
            gate(rand_t(rng, (1, 4, 8, 8)), rand_t(rng, (1, 4, 4, 4)), p)


class TestFuse:
    def test_full_event_gate_returns_event_stream(self, rng):
        ev, im = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        g = np.zeros((1, 2, 4, 4))
        g[:, 0] = 1.0
        np.testing.assert_allclose(fuse(ev, im, Tensor(g)).data, ev.data)

    def test_even_gate_averages(self, rng):
        ev, im = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        g = Tensor(np.full((1, 2, 4, 4), 0.5))
        np.testing.assert_allclose(fuse(ev, im, g).data, (ev.data + im.data) / 2)

    def test_equal_streams_are_fixed_point(self, rng):
        ev = rand_t(rng, (1, 4, 4, 4))
        raw = rng.uniform(0.1, 0.9, (1, 1, 4, 4))
        g = Tensor(np.concatenate([raw, 1 - raw], axis=1))
        np.testing.assert_allclose(fuse(ev, ev, g).data, ev.data, atol=1e-9)

    def test_output_within_elementwise_bounds(self, rng):
        p, _ = make_params()
        ev, im = rand_t(rng, (1, 4, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        g = gate(ev, im, p)
        out = fuse(ev, im, g).data
        lo = np.minimum(ev.data, im.data)
        hi = np.maximum(ev.data, im.data)
        assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()


class TestEnhance:
    def test_zeroed_second_ffn_conv_is_identity(self, rng):
        p, _ = make_params()
        _zero(p.ffn2.w, p.ffn2.b)
        x = rand_t(rng, (1, 4, 8, 8))
        np.testing.assert_array_equal(enhance(x, p).data, x.data)

    def test_preserves_shape(self, rng):
        p, _ = make_params()
        x = rand_t(rng, (2, 4, 8, 8))
        assert enhance(x, p).shape == x.shape


class TestFusionForward:
    def test_zeroed_projections_and_gate_give_stream_mean(self, rng):
        p, _ = make_params()
        _zero(p.eo.w, p.eo.b, p.co.w, p.co.b, p.gate_g.w, p.gate_g.b, p.ffn2.w, p.ffn2.b)
        ev, im = rand_t(rng, (1, 4, 8, 8)), rand_t(rng, (1, 4, 8, 8))
        out = fusion_forward(ev, im, p)
        np.testing.assert_allclose(out.data, (ev.data + im.data) / 2, atol=1e-12)

    def test_output_finite_and_shaped(self, rng):
        p, _ = make_params()
        ev, im = rand_t(rng, (2, 4, 8, 8)), rand_t(rng, (2, 4, 8, 8))
        out = fusion_forward(ev, im, p)
        assert out.shape == (2, 4, 8, 8)
        assert np.isfinite(out.data).all()
