"""Contracts of the attention variants and the scoring sub-network."""

import math
import re

import numpy as np
import pytest
from scipy.special import erf

from twins import attention as attn
from twins import autodiff as ad
from twins import gradcheck as gc
from twins.autodiff import Tensor


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def identity_weights(D, heads=1):
    eye = np.eye(D)
    return attn.AttentionWeights(Tensor(eye.copy()), Tensor(eye.copy()),
                                 Tensor(eye.copy()), Tensor(eye.copy()), heads)


def shared_random_weights(D, heads, seed=0):
    rng = np.random.default_rng(seed)
    return attn.init_attention(D, heads, rng)


class TestMhsa:
    def test_single_patch_identity(self):
        x = Tensor(rand((1, 1, 4), seed=1))
        out = attn.mhsa(x, identity_weights(4))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_uniform_logits_average_values(self):
        D, P = 4, 5
        w = identity_weights(D)
        w.w_q = Tensor(np.zeros((D, D)))   # logits all zero -> uniform rows
        x = Tensor(rand((1, P, D), seed=2))
        out = attn.mhsa(x, w)
        expect = np.broadcast_to(x.data.mean(axis=1, keepdims=True), x.shape)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_patch_permutation_equivariance(self):
        D, P = 6, 4
        w = shared_random_weights(D, heads=2, seed=3)
        x = rand((1, P, D), seed=4)
        perm = [2, 0, 3, 1]
        with ad.no_grad():
            a = attn.mhsa(Tensor(x), w).data[:, perm, :]
            b = attn.mhsa(Tensor(x[:, perm, :]), w).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_probe_rows_sum_to_one(self):
        D, P = 8, 6
        w = shared_random_weights(D, heads=4, seed=5)
        probe = {}
        attn.mhsa(Tensor(rand((2, P, D), seed=6)), w, probe=probe)
        rows = probe["attn"].sum(axis=-1)
        np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)

    def test_weight_size_mismatch(self):
        w = shared_random_weights(8, heads=2)
        with pytest.raises(ValueError):
            attn.mhsa(Tensor(np.zeros((1, 4, 6))), w)


class TestScores:
    def make_subnet(self, D, S, k, P, seed=0):
        return attn.init_subnet(D, S, k, P, np.random.default_rng(seed))

    def test_zero_input_gives_half(self):
        sub = self.make_subnet(D=8, S=2, k=3, P=4)
        s = attn.paa_scores(Tensor(np.zeros((3, 4, 8))), sub)
        np.testing.assert_allclose(s.data, np.full((2, 3, 4, 4), 0.5))

    def test_shape_contract(self):
        sub = self.make_subnet(D=16, S=4, k=3, P=12)
        s = attn.paa_scores(Tensor(rand((2, 12, 16), seed=1)), sub)
        assert s.shape == (4, 2, 12, 12)

    def test_open_interval_range(self):
        sub = self.make_subnet(D=8, S=2, k=3, P=6, seed=2)
        s = attn.paa_scores(Tensor(rand((2, 6, 8), seed=3) * 10), sub).data
        assert np.all(s > 0.0) and np.all(s < 1.0)

    @pytest.mark.parametrize("width, P", [(8, 4), (4, 6)],
                             ids=["narrower_input", "wider_input"])
    def test_width_mismatch_rejected(self, width, P):
        sub = self.make_subnet(D=4, S=1, k=3, P=width)
        msg = f"subnet w_p maps to {width} patch columns, input has P={P}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            attn.paa_scores(Tensor(np.zeros((1, P, 4))), sub)

    def test_head_split_mismatch(self):
        sub = self.make_subnet(D=8, S=2, k=3, P=4)
        with pytest.raises(ValueError):
            attn.paa_scores(Tensor(np.zeros((1, 4, 6))), sub)

    def test_channel_permutation_equivariance(self):
        sub = self.make_subnet(D=8, S=2, k=3, P=5, seed=6)
        x = rand((4, 5, 8), seed=7)
        perm = [3, 1, 0, 2]
        with ad.no_grad():
            a = attn.paa_scores(Tensor(x), sub).data[:, perm]
            b = attn.paa_scores(Tensor(x[perm]), sub).data
        np.testing.assert_array_equal(a, b)


class TestAlign:
    def test_identity_when_equal(self):
        s = Tensor(rand((4, 2, 3, 3)))
        assert attn.align_heads(s, 4) is s

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            attn.align_heads(Tensor(rand((3, 1, 2, 2))), 4)


class TestTwinsPlus:
    def test_scores_one_equals_mhsa(self):
        D, P, M = 8, 5, 2
        w = shared_random_weights(D, M, seed=8)
        x = Tensor(rand((3, P, D), seed=9))
        ones = Tensor(np.ones((M, 3, P, P)))
        with ad.no_grad():
            a = attn.twins_plus_attention(x, w, ones).data
            b = attn.mhsa(x, w).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_scores_zero_uniform_attention(self):
        D, P = 4, 6
        w = identity_weights(D)
        x = Tensor(rand((1, P, D), seed=10))
        zeros = Tensor(np.zeros((1, 1, P, P)))
        out = attn.twins_plus_attention(x, w, zeros)
        expect = np.broadcast_to(x.data.mean(axis=1, keepdims=True), x.shape)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_modulated_rows_sum_to_one(self):
        D, P, M, S = 8, 6, 4, 2
        w = shared_random_weights(D, M, seed=11)
        sub = attn.init_subnet(D, S, 3, P, np.random.default_rng(12))
        x = Tensor(rand((2, P, D), seed=13))
        probe = {}
        attn.twins_plus_attention(
            x, w, attn.align_heads(attn.paa_scores(x, sub), M), probe=probe)
        rows = probe["attn"].sum(axis=-1)
        np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)

    def test_head_count_mismatch(self):
        w = shared_random_weights(8, 4)
        with pytest.raises(ValueError, match="not a multiple"):
            attn.twins_plus_attention(Tensor(np.zeros((1, 4, 8))), w,
                                      Tensor(np.ones((3, 1, 4, 4))))


class TestTwins:
    def test_constant_scores_average_values(self):
        D, P = 4, 5
        x = Tensor(rand((1, P, D), seed=14))
        eye = Tensor(np.eye(D))
        scores = Tensor(np.full((1, 1, P, P), 0.37))
        out = attn.twins_attention(x, eye, eye, scores)
        expect = np.broadcast_to(x.data.mean(axis=1, keepdims=True), x.shape)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_single_patch(self):
        D = 4
        x = Tensor(rand((1, 1, D), seed=15))
        w_o = Tensor(rand((D, D), seed=16))
        scores = Tensor(np.full((1, 1, 1, 1), 0.8))
        out = attn.twins_attention(x, Tensor(np.eye(D)), w_o, scores)
        np.testing.assert_allclose(out.data, x.data @ w_o.data, atol=1e-12)

    def test_dominant_score_entry(self):
        # row of sigmoid([10, -10]): softmax puts ~e/(e+1) = 0.731 on the
        # strong key; it dominates but softmax of (0,1)-bounded scores
        # cannot exceed e/(e+1)
        D, P = 2, 2
        x = Tensor(rand((1, P, D), seed=17))
        pre = np.array([[10.0, -10.0], [10.0, -10.0]])
        scores = Tensor(1.0 / (1.0 + np.exp(-pre)).reshape(1, 1, P, P))
        probe = {}
        attn.twins_attention(x, Tensor(np.eye(D)), Tensor(np.eye(D)),
                             scores, probe=probe)
        row = probe["attn"][0, 0, 0]
        assert row.argmax() == 0
        np.testing.assert_allclose(row[0], np.e / (np.e + 1.0), atol=1e-3)
        np.testing.assert_allclose(row.sum(), 1.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        D, P, M, S = 8, 6, 2, 2
        sub = attn.init_subnet(D, S, 3, P, np.random.default_rng(18))
        x = Tensor(rand((2, P, D), seed=19))
        probe = {}
        rng = np.random.default_rng(20)
        attn.twins_attention(
            x, Tensor(rng.normal(size=(D, D))), Tensor(rng.normal(size=(D, D))),
            attn.align_heads(attn.paa_scores(x, sub), M), probe=probe)
        rows = probe["attn"].sum(axis=-1)
        np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-9)

    def test_channel_permutation_equivariance(self):
        D, P, M, S = 8, 4, 2, 2
        sub = attn.init_subnet(D, S, 3, P, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        w_v = Tensor(rng.normal(size=(D, D)))
        w_o = Tensor(rng.normal(size=(D, D)))
        x = rand((3, P, D), seed=23)
        perm = [2, 0, 1]

        def run(arr):
            xt = Tensor(arr)
            s = attn.align_heads(attn.paa_scores(xt, sub), M)
            return attn.twins_attention(xt, w_v, w_o, s).data

        with ad.no_grad():
            np.testing.assert_array_equal(run(x)[perm], run(x[perm]))


class TestGradients:
    """All three attention ops and the subnet on one small instance."""

    C, P, D, M, S = 2, 4, 8, 2, 2

    def setup_case(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(self.C, self.P, self.D)), requires_grad=True)
        w = attn.init_attention(self.D, self.M, rng)
        sub = attn.init_subnet(self.D, self.S, 3, self.P, rng)
        return x, w, sub

    def test_mhsa_gradients(self):
        x, w, _ = self.setup_case(30)
        params = [x, w.w_q, w.w_k, w.w_v, w.w_o]

        def f():
            y = attn.mhsa(x, w)
            return ad.sum_all(ad.mul(y, y))

        ok, err = gc.gradcheck(f, params)
        assert ok, f"rel err {err:.3e}"

    def test_twins_plus_gradients(self):
        x, w, sub = self.setup_case(31)
        params = [x, w.w_q, w.w_k, w.w_v, w.w_o, sub.dw_kernels, sub.w_p]

        def f():
            s = attn.align_heads(attn.paa_scores(x, sub), self.M)
            y = attn.twins_plus_attention(x, w, s)
            return ad.sum_all(ad.mul(y, y))

        ok, err = gc.gradcheck(f, params)
        assert ok, f"rel err {err:.3e}"

    def test_twins_gradients(self):
        x, w, sub = self.setup_case(32)
        params = [x, w.w_v, w.w_o, sub.dw_kernels, sub.w_p]

        def f():
            s = attn.align_heads(attn.paa_scores(x, sub), self.M)
            y = attn.twins_attention(x, w.w_v, w.w_o, s)
            return ad.sum_all(ad.mul(y, y))

        ok, err = gc.gradcheck(f, params)
        assert ok, f"rel err {err:.3e}"


def repeat_heads(a, reps):
    """Each leading-axis slice repeated ``reps`` times consecutively; the
    backward sums the replicas' gradients."""
    s = a.shape[0]

    def bwd(g, ra):
        ra.accum(g.reshape((s, reps) + ra.shape[1:]).sum(axis=1))

    return ad._make(np.repeat(a.data, reps, axis=0), bwd, a)


def ref_attention(variant, x, w, scores, probe):
    """Attention with every score map copied to each of its M/S heads and
    one softmax per head, as before the heads shared maps by grouping."""
    m = w.heads
    aligned = repeat_heads(scores, m // scores.shape[0])
    vh = attn._split_heads(ad.linear(x, w.w_v), m)
    if variant == "twins":
        a = ad.softmax(aligned)
    else:
        qh = attn._split_heads(ad.linear(x, w.w_q), m)
        kh = attn._split_heads(ad.linear(x, w.w_k), m)
        logits = ad.mul(aligned, ad.matmul(qh, ad.transpose(kh, (1, 0))))
        a = ad.softmax(ad.mul(
            logits, ad.Tensor(1.0 / math.sqrt(x.shape[-1] // m))))
    probe["attn"] = a.data.copy()
    return ad.linear(attn._merge_heads(ad.matmul(a, vh)), w.w_o)


class TestGroupedHeadsMatchRepeated:
    """Score maps shared by grouping agree with copied score maps."""

    @pytest.mark.parametrize("variant", ["twins", "twins_plus"])
    @pytest.mark.parametrize("M, S", [(4, 2), (8, 2), (8, 1), (4, 4)])
    def test_outputs_probe_and_gradients(self, variant, M, S):
        B, C, P, D = 2, 3, 5, 16
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(B, C, P, D)), requires_grad=True)
        w = attn.init_attention(D, M, rng, keyless=(variant == "twins"))
        sub = attn.init_subnet(D, S, 3, P, rng)
        leaves = [x, w.w_v, w.w_o, sub.dw_kernels, sub.w_p]
        if variant == "twins_plus":
            leaves += [w.w_q, w.w_k]
        up = Tensor(rng.normal(size=x.shape))
        runs = []
        for block in (
            lambda probe: attn.attention_block(x, w, sub, probe),
            lambda probe: ref_attention(variant, x, w,
                                        attn.paa_scores(x, sub), probe),
        ):
            for leaf in leaves:
                leaf.zero_grad()
            probe = {}
            y = block(probe)
            ad.backward(ad.sum_all(ad.mul(y, up)))
            runs.append([y.data, probe["attn"]] + [v.grad for v in leaves])
        assert runs[1][1].shape == (M, B, C, P, P)
        for new, ref in zip(*runs):
            assert new.shape == ref.shape
            assert gc.rel_error(new, ref) <= 1e-12


class TestAttentionBlockDispatch:
    """attention_block runs the variant its weights and subnet hold."""

    @pytest.mark.parametrize("variant", ["mhsa", "twins", "twins_plus"])
    def test_matches_the_variants_own_function(self, variant):
        B, C, P, D, M, S = 2, 3, 5, 16, 4, 2
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(B, C, P, D)))
        w = attn.init_attention(D, M, rng, keyless=(variant == "twins"))
        sub = None if variant == "mhsa" else attn.init_subnet(D, S, 3, P, rng)
        own = {
            "mhsa": lambda probe: attn.mhsa(x, w, probe=probe),
            "twins": lambda probe: attn.twins_attention(
                x, w.w_v, w.w_o, attn.paa_scores(x, sub), heads=M,
                probe=probe),
            "twins_plus": lambda probe: attn.twins_plus_attention(
                x, w, attn.paa_scores(x, sub), probe=probe),
        }[variant]
        runs = []
        for block in (lambda probe: attn.attention_block(x, w, sub, probe),
                      own):
            probe = {}
            runs.append((block(probe).data, probe["attn"]))
        assert runs[0][1].shape == (M, B, C, P, P)
        for new, ref in zip(*runs):
            assert np.array_equal(new, ref)


def ref_paa_scores(x, dw, w_p, up):
    """Scores and the gradients of x, the kernels and w_p under upstream
    ``up``, with the score product broadcast over (S, 1, .., ds, P) and its
    weight gradient summed out of (S, ..., ds, P)."""
    S, ds, k = dw.shape
    P, D = x.shape[-2:]
    pad = k // 2
    kern = dw.reshape(D, k)
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (0, 0)])
    conv = sum(xp[..., j:j + P, :] * kern[:, j] for j in range(k))
    cdf = 0.5 * (1.0 + erf(conv / math.sqrt(2.0)))
    gh = np.moveaxis((conv * cdf).reshape(x.shape[:-1] + (S, ds)), -2, 0)
    wp = w_p.reshape((S,) + (1,) * (x.ndim - 2) + (ds, P))
    scores = 1.0 / (1.0 + np.exp(-(gh @ wp)))
    dz = up * scores * (1.0 - scores)
    g_wp = (gh.swapaxes(-1, -2) @ dz).reshape(S, -1, ds, P).sum(1)
    g_h = np.moveaxis(dz @ wp.swapaxes(-1, -2), 0, -2).reshape(x.shape)
    pdf = np.exp(-0.5 * conv * conv) / math.sqrt(2.0 * math.pi)
    g_conv = g_h * (cdf + conv * pdf)
    g_xp = np.zeros_like(xp)
    g_kern = np.zeros_like(kern)
    for j in range(k):
        g_xp[..., j:j + P, :] += g_conv * kern[:, j]
        g_kern[:, j] = (g_conv * xp[..., j:j + P, :]).reshape(-1, D).sum(0)
    return scores, [g_xp[..., pad:pad + P, :], g_kern.reshape(dw.shape), g_wp]


@pytest.mark.parametrize("shape, S", [((2, 3, 5, 16), 4), ((3, 4, 8), 2),
                                      ((2, 2, 2, 6, 12), 3)])
def test_paa_scores_match_broadcast_reference(shape, S):
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    sub = attn.init_subnet(shape[-1], S, 3, shape[-2], rng)
    scores = attn.paa_scores(x, sub)
    up = rng.normal(size=scores.shape)
    ad.backward(ad.sum_all(ad.mul(scores, Tensor(up))))
    want, want_grads = ref_paa_scores(x.data, sub.dw_kernels.data,
                                      sub.w_p.data, up)
    assert scores.shape == want.shape
    assert gc.rel_error(scores.data, want) <= 1e-12
    for leaf, gw in zip([x, sub.dw_kernels, sub.w_p], want_grads):
        assert leaf.grad.shape == gw.shape
        assert gc.rel_error(leaf.grad, gw) <= 1e-12
