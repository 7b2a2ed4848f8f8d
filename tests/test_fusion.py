"""Gated attention fusion: both attention paths, gate, mix, enhancement."""

import numpy as np
import pytest

from evifuse import ops
from evifuse.fusion import (
    differential_attention, efficient_cross_attention, enhance, fuse,
    fusion_forward, gate, init_fusion_params,
)
from evifuse.gradcheck import check_param
from evifuse.params import ParamStore, make_rng
from evifuse.tensor import NonFiniteError, ShapeError, Tape, Tensor, mul, reshape, tsum

from _oracles import (
    attention_naive, batched_product, differential_attention_naive, merge_heads,
    pool2d_naive, split_heads, swap_last, token_map,
)


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


def _diff_attention_oracle(x, y, p):
    """Numpy re-implementation via the naive per-token attention oracle."""
    b, c, h, w = x.shape
    xt, yt = _tokens(x.data), _tokens(y.data)
    q1 = split_heads(xt @ p.q1.w.data + p.q1.b.data, p.heads)
    q2 = split_heads(xt @ p.q2.w.data + p.q2.b.data, p.heads)
    k1 = split_heads(yt @ p.k1.w.data, p.heads)
    k2 = split_heads(yt @ p.k2.w.data, p.heads)
    v = split_heads(yt @ p.v.w.data + p.v.b.data, p.heads)
    att = differential_attention_naive(q1, q2, k1, k2, v, p.lam.data)
    out = merge_heads(att) @ p.eo.w.data + p.eo.b.data
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
        q1 = split_heads(xt @ p.q1.w.data + p.q1.b.data, 2)
        k1 = split_heads(yt @ p.k1.w.data, 2)
        v = split_heads(yt @ p.v.w.data + p.v.b.data, 2)
        plain = merge_heads(attention_naive(q1, k1, v)) @ p.eo.w.data + p.eo.b.data
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
    """The unfused tape composition over [B,h,N,d] heads: two softmaxes, a
    difference, a product."""
    h, d = k1.shape[1], k1.shape[3]
    scale = 1.0 / np.sqrt(d)
    a1 = ops.softmax(batched_product(q1, swap_last(k1)) * scale, axis=-1)
    a2 = ops.softmax(batched_product(q2, swap_last(k2)) * scale, axis=-1)
    return batched_product(a1 + mul(a2 * reshape(lam, (1, h, 1, 1)), -1.0), v)


def _diff_inputs(rng, b, h, n, nk, d, dtype=np.float64):
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in [(b, h, n, d)] * 2 + [(b, h, nk, d)] * 3]
    return arrays + [rng.uniform(0.1, 1.0, h).astype(dtype)]


def _as_map(heads):
    """[B,h,N,d] heads as the [B,h*d,N,1] map the kernels take."""
    return token_map(merge_heads(heads))


def _as_maps(arrays, requires_grad=False):
    """Kernel operands: the [B,h,N,d] draws as [B,h*d,N,1] maps, then lam."""
    return ([Tensor(_as_map(a), requires_grad=requires_grad) for a in arrays[:5]]
            + [Tensor(arrays[5], requires_grad=requires_grad)])


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
        got = ops.diff_attention(*_as_maps(arrays)).data
        np.testing.assert_allclose(got, _as_map(differential_attention_naive(*arrays)),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_softmax_case_matches_naive_oracle(self, shape, monkeypatch):
        b, h, n, nk, d = shape
        _three_row_blocks(monkeypatch, b, h, nk)
        q, _, k, _, v, _ = _diff_inputs(np.random.default_rng(n + nk), b, h, n, nk, d)
        got = ops.attention_core(*(Tensor(_as_map(a)) for a in (q, k, v)), h).data
        np.testing.assert_allclose(got, _as_map(attention_naive(q, k, v)),
                                   rtol=0, atol=1e-12)

    def test_agrees_with_composed_path_float64(self):
        # large enough that the real byte budget cuts N into ragged blocks
        b, h, n, nk, d = 1, 2, 300, 500, 8
        rows = ops._block_rows(b * h, nk, 8)
        assert rows < n and n % rows
        rng = np.random.default_rng(11)
        arrays = _diff_inputs(rng, b, h, n, nk, d)
        probe = rng.standard_normal((b, h, n, d))
        results = []
        # the kernel takes and returns maps, the composition heads
        for op, inputs, probe_t in (
                (ops.diff_attention, _as_maps(arrays, True), _as_map(probe)),
                (_composed_diff_attention,
                 [Tensor(a, requires_grad=True) for a in arrays], probe)):
            with Tape() as tape:
                out = op(*inputs)
                total = tsum(out * Tensor(probe_t))
            grads = tape.backward(total)
            results.append((out.data, [grads[t] for t in inputs]))
        (fused, fused_grads), (composed, composed_grads) = results
        np.testing.assert_allclose(fused, _as_map(composed), rtol=0, atol=1e-12)
        for gf, gc in zip(fused_grads[:5], composed_grads[:5]):
            np.testing.assert_allclose(gf, _as_map(gc), rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused_grads[5], composed_grads[5], rtol=0, atol=1e-12)

    def test_composition_ops_match_central_differences(self, rng):
        # the tape ops the composed reference is built from, on [B,h,N,d]
        # heads; positive draws, so no gradient entry is a near-cancelling
        # sum that the round-off of the objective would swamp
        def draw(shape, requires_grad=False):
            return Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=requires_grad)

        a, b = draw((2, 2, 3, 4), True), draw((2, 2, 4, 5), True)
        probe = draw((2, 2, 3, 5))
        for t in (a, b):
            assert check_param(lambda: tsum(batched_product(a, b) * probe), t) < 1e-6
        swap_probe = draw((2, 2, 4, 3))
        assert check_param(lambda: tsum(swap_last(a) * swap_probe), a) < 1e-6

    def test_one_tape_record_in_input_dtype(self, rng):
        inputs = _as_maps(_diff_inputs(rng, 1, 2, 6, 5, 4, np.float32), True)
        with Tape() as tape:
            out = ops.diff_attention(*inputs)
            total = tsum(out)
        assert len(tape) == 2  # the attention record and the sum
        assert out.dtype == np.float32
        grads = tape.backward(total)
        assert all(grads[t].dtype == np.float32 for t in inputs)

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
        qh, kh = Tensor(q), Tensor(k)
        with pytest.raises(NonFiniteError):
            _composed_diff_attention(qh, qh, kh, kh, kh, lam)
        qt, kt = Tensor(_as_map(q)), Tensor(_as_map(k))
        with pytest.raises(NonFiniteError):
            ops.diff_attention(qt, qt, kt, kt, kt, lam)
        with pytest.raises(NonFiniteError):
            ops.attention_core(qt, kt, kt, 2)

    def test_large_finite_scores_pass_like_composed_path(self):
        q = Tensor(np.full((1, 1, 3, 4), 1e18, dtype=np.float32))
        k = Tensor(np.full((1, 1, 2, 4), 1e18, dtype=np.float32))
        lam = Tensor(np.full(1, 0.8, dtype=np.float32))
        composed = _composed_diff_attention(q, q, k, k, k, lam).data
        qt, kt = Tensor(_as_map(q.data)), Tensor(_as_map(k.data))
        np.testing.assert_allclose(ops.diff_attention(qt, qt, kt, kt, kt, lam).data,
                                   _as_map(composed), rtol=1e-6)

    def test_branch_and_lambda_shapes_checked(self, rng):
        q1, q2, k1, k2, v, lam = _as_maps(_diff_inputs(rng, 1, 2, 3, 3, 2))
        ops.diff_attention(q1, q2, k1, k2, v, lam)
        # three heads cannot split a width of 4; lam must be one factor per head
        for bad_lam in (np.ones(3), np.ones((2, 1))):
            with pytest.raises(ShapeError):
                ops.diff_attention(q1, q2, k1, k2, v, Tensor(bad_lam))
        # a second query branch with fewer tokens, a second key branch with one head
        with pytest.raises(ShapeError):
            ops.diff_attention(q1, Tensor(q2.data[:, :, :2]), k1, k2, v, lam)
        with pytest.raises(ShapeError):
            ops.diff_attention(q1, q2, k1, Tensor(k2.data[:, :2]), v, lam)


def _gradients(op, inputs, probe):
    """The gradient of sum(op(*inputs) * probe) for each input."""
    with Tape() as tape:
        total = tsum(op(*inputs) * Tensor(probe))
    grads = tape.backward(total)
    return [grads[t] for t in inputs]


def _softmax_products(q, k, v):
    """float64 softmax(q.k^T/sqrt(d)) . v and the same weights applied to |v|."""
    s = np.matmul(q, np.swapaxes(k, -1, -2)) / np.sqrt(q.shape[-1])
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return np.matmul(p, v), np.matmul(p, np.abs(v))


def _near_bound(rng, b, h, n, nk, d, target):
    """q [B,h,N,d] and k [B,h,Nk,d] whose kernel score bound is ``target``.

    Every row has norm r with r*r/sqrt(d) = target, the bound the kernels
    compute from the pre-scaled queries. All rows lie near one direction,
    the query rows with alternating signs, so every score is close to
    +target or -target and each softmax row stays smooth.
    """
    u = rng.standard_normal(d)

    def rows(count, signs):
        x = u + 0.05 * np.linalg.norm(u) * rng.standard_normal((b, h, count, d))
        x *= signs[:, None] / np.linalg.norm(x, axis=-1, keepdims=True)
        return x * np.sqrt(target * np.sqrt(d))

    return rows(n, np.resize([1.0, -1.0], n)), rows(nk, np.ones(nk))


class TestShiftFreeKernel:
    """The kernels' two paths: exp of the raw scores under the Cauchy-Schwarz
    bound, the row-max shift above it."""

    def test_float32_stage0_shape_against_float64_oracle(self, shift_free_calls):
        # the 128x128 stage-0 call: 1024 tokens, 2 heads of 8. Correlated
        # branches and lam near 1 make o1 - lam*o2 cancel, and o1 is itself
        # a sum of signed terms, so the error is bounded by the scale of
        # the terms before any cancellation, softmax . |v| per branch, not
        # by |out| or |o1|, which come near zero in places
        rng = np.random.default_rng(20)
        shape = (1, 2, 1024, 8)
        q1, k1, v = (rng.standard_normal(shape) for _ in range(3))
        q2 = q1 + 0.1 * rng.standard_normal(shape)
        k2 = k1 + 0.1 * rng.standard_normal(shape)
        arrays = [a.astype(np.float32) for a in (q1, q2, k1, k2, v, np.array([0.8, 0.95]))]
        q1, q2, k1, k2, v, lam = arrays
        got = ops.diff_attention(*_as_maps(arrays)).data
        core = ops.attention_core(*(Tensor(_as_map(a)) for a in (q1, k1, v)), 2).data
        assert shift_free_calls == [[True, True], [True]]

        v64, lam64 = v.astype(np.float64), lam.astype(np.float64).reshape(1, 2, 1, 1)
        (o1, s1), (o2, s2) = (_softmax_products(q.astype(np.float64), k.astype(np.float64), v64)
                              for q, k in ((q1, k1), (q2, k2)))
        err = np.abs(got - _as_map(o1 - lam64 * o2)) / _as_map(s1 + lam64 * s2)
        assert err.max() < 1e-6
        assert (np.abs(core - _as_map(o1)) / _as_map(s1)).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [0.98, 1.02])
    def test_paths_agree_across_the_limit(self, dtype, side, shift_free_calls):
        # scores near +-limit, where exp of a raw score is largest and
        # smallest: under the limit both kernels take the raw exp, over it
        # the row-max shift, and either way they match the loop oracles
        limit = 0.5 * np.log(np.finfo(dtype).max)
        b, h, n, nk, d = 1, 2, 5, 4, 3
        rng = np.random.default_rng(int(side * 100) + np.dtype(dtype).itemsize)
        q1, k1 = _near_bound(rng, b, h, n, nk, d, side * limit)
        q2, k2 = _near_bound(rng, b, h, n, nk, d, side * limit)
        v = rng.standard_normal((b, h, nk, d))
        arrays = [a.astype(dtype) for a in (q1, q2, k1, k2, v, np.array([0.8, 0.6]))]
        q1, _, k1, _, v, _ = arrays
        diff = ops.diff_attention(*_as_maps(arrays)).data
        core = ops.attention_core(*(Tensor(_as_map(a)) for a in (q1, k1, v)), h).data
        assert shift_free_calls == [[side < 1] * 2, [side < 1]]
        atol = 1e-4 if dtype == np.float32 else 1e-10
        np.testing.assert_allclose(
            diff, _as_map(differential_attention_naive(*arrays)), rtol=0, atol=atol)
        np.testing.assert_allclose(core, _as_map(attention_naive(q1, k1, v)),
                                   rtol=0, atol=atol)

        probe = rng.standard_normal((b, h, n, d))
        exact = [a.astype(np.float64) for a in arrays]
        if dtype == np.float32:
            # the gradients against the float64 kernel's on the same values
            grads = [_gradients(ops.diff_attention, _as_maps([a.astype(t) for a in exact], True),
                                _as_map(probe).astype(t)) for t in (np.float64, np.float32)]
            for g64, g32 in zip(*grads):
                np.testing.assert_allclose(g32, g64, rtol=0, atol=2e-3 * np.abs(g64).max())
            return
        # scores of +-355 carry about 355 * eps of rounding, which the fixed
        # 1e-6 step turns into derivative noise near 1e-7, so small entries
        # cannot reach 1e-6 relative (the kernel before the bound read up
        # to 3.6e-6 here): central differences at 1e-5, and the unfused tape
        # composition, which shifts, within rounding
        inputs = _as_maps(exact, True)
        for t in inputs:
            assert check_param(
                lambda: tsum(ops.diff_attention(*inputs) * Tensor(_as_map(probe))), t) < 1e-5
        inputs = [Tensor(_as_map(a), requires_grad=True) for a in (q1, k1, v)]
        for t in inputs:
            assert check_param(
                lambda: tsum(ops.attention_core(*inputs, h) * Tensor(_as_map(probe))), t) < 1e-5
        fused = _gradients(ops.diff_attention, _as_maps(exact, True), _as_map(probe))
        composed = _gradients(_composed_diff_attention,
                              [Tensor(a, requires_grad=True) for a in exact], probe)
        for gf, gc in zip(fused, [_as_map(g) for g in composed[:5]] + composed[5:]):
            np.testing.assert_allclose(gf, gc, rtol=0, atol=1e-9 * np.abs(gc).max())

    def test_large_values_take_the_shifted_path(self, shift_free_calls):
        # scores just under the float32 limit but values of 1e20: e.v of
        # the raw exp (up to 1.8e19 per term) would overflow, so the value
        # bound sends both branches through the shift, where e <= 1
        limit = 0.5 * np.log(np.finfo(np.float32).max)
        rng = np.random.default_rng(7)
        q1, k1 = _near_bound(rng, 1, 2, 5, 4, 3, 0.98 * limit)
        q2, k2 = _near_bound(rng, 1, 2, 5, 4, 3, 0.98 * limit)
        v = 1e20 * rng.standard_normal((1, 2, 4, 3))
        arrays = [a.astype(np.float32) for a in (q1, q2, k1, k2, v, np.array([0.8, 0.6]))]
        got = ops.diff_attention(*_as_maps(arrays)).data
        assert shift_free_calls == [[False, False]]
        np.testing.assert_allclose(got, _as_map(differential_attention_naive(*arrays)),
                                   rtol=0, atol=1e-4 * 1e20)


class TestEfficientCrossAttention:
    def test_reduction_one_is_plain_attention(self, rng):
        p, _ = make_params(reduction=1)
        x, y = rand_t(rng, (1, 4, 4, 4)), rand_t(rng, (1, 4, 4, 4))
        got = efficient_cross_attention(x, y, p).data
        xt, yt = _tokens(x.data), _tokens(y.data)
        q = split_heads(xt @ p.cq.w.data + p.cq.b.data, 2)
        k = split_heads(yt @ p.ck.w.data, 2)
        v = split_heads(yt @ p.cv.w.data + p.cv.b.data, 2)
        out = merge_heads(attention_naive(q, k, v)) @ p.co.w.data + p.co.b.data
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
        q = split_heads(xt @ p.cq.w.data + p.cq.b.data, 2)
        k = split_heads(yt @ p.ck.w.data, 2)
        v = split_heads(yt @ p.cv.w.data + p.cv.b.data, 2)
        out = merge_heads(attention_naive(q, k, v)) @ p.co.w.data + p.co.b.data
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

    def test_forward_records_at_most_37(self):
        # a bound, not a pin: fewer records need no edit here
        from evifuse.verify import fusion_case

        forward, _, _ = fusion_case(1)
        with Tape() as tape:
            forward()
        assert len(tape) <= 37
