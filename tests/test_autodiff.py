"""Gradient and value checks for the autodiff core."""

import functools
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from twins import autodiff as ad
from twins import embedding as emb
from twins import gradcheck as gc


def t(data, rg=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def run_node(out, g):
    """Run the backward nodes behind op output ``out``, newest first, on
    upstream gradient ``g`` without consuming them: the op's own node, and
    for a composite such as ``wconv_embed`` every node behind it."""
    found, stack = {}, [out._rec]
    while stack:
        r = stack.pop()
        if r is not None and r.node is not None and id(r) not in found:
            found[id(r)] = r
            stack.extend(r.node[2])
    for r in found.values():
        r.grad = None
    for r in sorted(found.values(), key=lambda r: r.node[0], reverse=True):
        _, fn, recs = r.node
        fn(g if r is out._rec else r.grad, *recs)


class TestValues:
    def test_depthwise_known_answer(self):
        x = t([[1.0], [2.0], [3.0], [4.0]], rg=False)  # (P, Ch) = (4, 1)
        k = t([[0.0, 1.0, 0.0]], rg=False)  # identity kernel
        out = ad.depthwise_conv1d(x, k)
        np.testing.assert_allclose(out.data, [[1], [2], [3], [4]])
        shift = ad.depthwise_conv1d(x, t([[1.0, 0.0, 0.0]], rg=False))
        np.testing.assert_allclose(shift.data, [[0], [1], [2], [3]])

    def test_softmax_uniform_and_shift_invariance(self):
        x = t([[0.0, 0.0, 0.0, 0.0]], rg=False)
        np.testing.assert_allclose(ad.softmax(x).data, np.full((1, 4), 0.25))
        a = t([[1.0, 2.0, 3.0]], rg=False)
        b = t([[101.0, 102.0, 103.0]], rg=False)
        np.testing.assert_allclose(ad.softmax(a).data, ad.softmax(b).data,
                                   atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = t(np.random.default_rng(0).normal(size=(3, 7)) * 10, rg=False)
        s = ad.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_layer_norm_known_answer(self):
        x = t([[1.0, 3.0]], rg=False)
        g = t([1.0, 1.0], rg=False)
        b = t([0.0, 0.0], rg=False)
        out = ad.layer_norm(x, g, b)
        # (x - 2) / sqrt(1 + 1e-5)
        np.testing.assert_allclose(out.data, [[-0.999995, 0.999995]], atol=1e-5)

    def test_gelu_known_points(self):
        x = t([0.0, 1.0, -1.0], rg=False)
        y = ad.gelu(x).data
        assert y[0] == 0.0
        np.testing.assert_allclose(y[1], 0.8413447460685429, atol=1e-12)
        np.testing.assert_allclose(y[2], -0.15865525393145707, atol=1e-12)

    def test_sigmoid_special_values_match_select_formula(self):
        # the select np.where(x >= 0, 1.0, e) that np.maximum(e, x >= 0)
        # replaced, bit for bit: signed zeros, infinities and NaN included
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                            np.random.default_rng(3).normal(size=50) * 30])
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, e) / (1.0 + e)
        got = ad.sigmoid(t(x, rg=False)).data
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[4:6]).all()

    def test_sigmoid_extremes_stable(self):
        x = t([1000.0, -1000.0], rg=False)
        y = ad.sigmoid(x).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_mse_value(self):
        p = t([1.0, 2.0, 3.0], rg=False)
        q = t([2.0, 2.0, 5.0], rg=False)
        assert ad.mse(p, q).item() == pytest.approx(5.0 / 3.0)

    def test_roll_round_trip_and_values(self):
        x = t([[1.0, 2.0, 3.0, 4.0]], rg=False)
        r = ad.roll(x, 2, axis=1)
        np.testing.assert_array_equal(r.data, [[3, 4, 1, 2]])
        back = ad.roll(r, -2, axis=1)
        np.testing.assert_array_equal(back.data, x.data)

    def test_adam_first_step_known_answer(self):
        # w=1, g=2, lr=0.1: bias-corrected m_hat/sqrt(v_hat) = 1 exactly,
        # so the first step moves by lr regardless of gradient magnitude.
        w = t([1.0])
        st = ad.AdamState([w], lr=0.1)
        ad.adam_step([w], [np.array([2.0])], st)
        np.testing.assert_allclose(w.data, [1.0 - 0.1 * (1.0 / (1.0 + 1e-8 / 1.0))],
                                   atol=1e-9)
        assert w.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_clip_grad_norm(self):
        grads = [np.array([3.0]), np.array([4.0])]
        clipped, total = ad.clip_grad_norm(grads, 1.0)
        assert total == pytest.approx(5.0)
        norm = np.sqrt(sum(float((g * g).sum()) for g in clipped))
        assert norm == pytest.approx(1.0)
        # already small: untouched
        same, total2 = ad.clip_grad_norm(grads, 100.0)
        assert same[0] is grads[0]
        # a non-finite norm is reported, not spread over every gradient
        grads = [np.array([np.inf]), np.array([1.0])]
        same, total3 = ad.clip_grad_norm(grads, 1.0)
        assert total3 == np.inf and same[1] is grads[1]


class TestTapeSemantics:
    def test_grad_accumulates_over_paths(self):
        x = t([3.0])
        y = ad.add(x, x)  # dy/dx = 2
        ad.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_unreachable_leaf_zero_grad(self):
        x = t([1.0, 2.0])
        unused = t([5.0])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(unused.grad, [0.0])

    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0])
        y = ad.mul(x, x)
        with pytest.raises(ValueError):
            ad.backward(y)

    def test_no_grad_records_nothing(self):
        x = t([3.0])
        assert ad.is_recording()
        with ad.no_grad():
            assert not ad.is_recording()
            y = ad.mul(x, x)
        assert ad.is_recording()
        assert not y.requires_grad
        # only the recorded factor x carries gradient, not the path through y
        ad.backward(ad.sum_all(ad.mul(y, x)))
        np.testing.assert_allclose(x.grad, [9.0])

    def test_graph_consumed_after_backward(self):
        x = t([2.0])
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_second_backward_fresh_graph(self):
        x = t([2.0])
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [4.0])
        x.zero_grad()
        ad.backward(ad.sum_all(ad.mul(x, t(3.0, rg=False))))
        np.testing.assert_allclose(x.grad, [3.0])

    def test_graphs_recorded_together_backward_separately(self):
        x = t([1.0, 2.0])
        l1 = ad.sum_all(ad.mul(x, x))
        l2 = ad.sum_all(ad.mul(x, t(3.0, rg=False)))
        ad.backward(l1)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        x.zero_grad()
        ad.backward(l2)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_graph_through_consumed_intermediate_rejected(self):
        x = t([1.0, 2.0])
        m = ad.mul(x, x)
        l1 = ad.sum_all(m)
        l2 = ad.sum_all(ad.mul(m, t(3.0, rg=False)))
        ad.backward(l1)
        x.zero_grad()
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            ad.backward(l2)
        np.testing.assert_allclose(x.grad, [0.0, 0.0])
        ad.backward(l1)  # the consumed loss itself stays a no-op
        np.testing.assert_allclose(x.grad, [0.0, 0.0])

    def test_add_same_input_twice(self):
        x = t([1.0, -2.0, 3.0])
        w = np.array([0.5, 2.0, -1.0])
        y = ad.add(x, x)
        ad.backward(ad.sum_all(ad.mul(y, t(w, rg=False))))
        np.testing.assert_array_equal(x.grad, 2.0 * w)
        np.testing.assert_array_equal(y.grad, w)  # upstream gradient intact

    @pytest.mark.parametrize("op", [
        lambda w: ad.mul(ad.sum_all(t([1.0, 2.0])), w),
        lambda w: ad.add(w, w),  # the second path is added to the first
        lambda w: ad.mul(w, t(2.0, rg=False)),  # scaling by a constant
    ], ids=["mul", "add", "scale"])
    def test_zero_d_leaf_gradient_is_read_only_ndarray(self, op):
        # arithmetic on 0-d arrays yields numpy scalars, not arrays
        w = t(0.5)
        ad.backward(ad.sum_all(op(w)))
        assert type(w.grad) is np.ndarray and w.grad.shape == ()
        assert not w.grad.flags.writeable

    @pytest.mark.parametrize("op", [
        lambda x: ad.add(x, t(np.zeros((2, 3)))),
        lambda x: ad.reshape(x, (3, 2)),
        lambda x: ad.transpose(x, (1, 0)),
    ], ids=["add", "reshape", "transpose"])
    def test_pass_through_upstream_gradient_intact(self, op):
        # x first receives y's gradient through op, then adds v out of place
        x = t(np.arange(6.0).reshape(2, 3))
        v = np.full((2, 3), 10.0)
        direct = ad.sum_all(ad.mul(x, t(v, rg=False)))
        y = op(x)
        w = np.random.default_rng(0).normal(size=y.shape)
        ad.backward(ad.add(direct, ad.sum_all(ad.mul(y, t(w, rg=False)))))
        np.testing.assert_array_equal(y.grad, w)
        assert not np.shares_memory(x.grad, y.grad)

    @pytest.mark.parametrize("op", [
        lambda x: ad.reshape(x, (3, 2)),
        lambda x: ad.transpose(x, (1, 0)),
    ], ids=["reshape", "transpose"])
    def test_single_path_gradient_is_a_view(self, op):
        x = t(np.arange(6.0).reshape(2, 3))
        y = op(x)
        w = np.random.default_rng(1).normal(size=y.shape)
        ad.backward(ad.sum_all(ad.mul(y, t(w, rg=False))))
        assert np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(op(t(x.grad)).data, w)

    def test_abandoned_pass_freed_without_gc(self):
        x = t(np.ones(4))
        y = ad.gelu(ad.mul(x, x))
        loss = ad.sum_all(y)
        ref = weakref.ref(y.data)
        del y, loss  # no backward: the pass is dropped
        assert ref() is None


# outputs with a rebuild, and reshapes and transposes of them; every
# call takes x (2, 3, 6), gamma and beta (6,) and w (2, 6, 5), whose first
# (6, 5) slice is a linear weight and a (5,) row of the second its bias
REBUILT = {
    "layer_norm": lambda x, g, b, w: ad.layer_norm(x, g, b),
    "linear": lambda x, g, b, w: ad.linear(x, t(w.data[0])),
    "linear_bias": lambda x, g, b, w: ad.linear(x, t(w.data[0]),
                                                t(w.data[1, 0])),
    "layer_norm_linear": lambda x, g, b, w: ad.linear(
        ad.layer_norm(x, g, b), t(w.data[0])),
    "layer_norm_linear_bias": lambda x, g, b, w: ad.linear(
        ad.layer_norm(x, g, b), t(w.data[0]), t(w.data[1, 0])),
    "matmul": lambda x, g, b, w: ad.matmul(x, w),
    "layer_norm_transpose_reshape": lambda x, g, b, w: ad.reshape(
        ad.transpose(ad.layer_norm(x, g, b), (2, 0, 1)), (6, 6)),
    "matmul_reshape_transpose": lambda x, g, b, w: ad.transpose(
        ad.reshape(ad.matmul(x, w), (2, 15)), (1, 0)),
    "gelu": lambda x, g, b, w: ad.gelu(x),
    "depthwise_conv1d": lambda x, g, b, w: ad.depthwise_conv1d(
        x, t(w.data[0])),
    # an MLP's hidden layer and the score subnet's, both rebuilt twice over
    "linear_bias_gelu": lambda x, g, b, w: ad.gelu(ad.linear(
        x, t(w.data[0]), t(w.data[1, 0]))),
    "layer_norm_depthwise_conv1d_gelu": lambda x, g, b, w: ad.gelu(
        ad.depthwise_conv1d(ad.layer_norm(x, g, b), t(w.data[0]))),
}

# ops whose backward reads an input array: (call, shape of the other input)
READERS = {
    "linear": (ad.linear, (6, 4)),
    "matmul": (ad.matmul, (2, 6, 4)),
    "mul": (ad.mul, (2, 3, 6)),
    "depthwise_conv1d": (ad.depthwise_conv1d, (6, 3)),
    # gelu's input gradient reads its input; mul by w makes w's gradient
    # read gelu's output, which the product rebuilds in turn
    "gelu": (lambda y, w: ad.mul(ad.gelu(y), w), (2, 3, 6)),
}


class TestRebuilds:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(21)
        return [t(rng.normal(size=s)) for s in ((2, 3, 6), (6,), (6,),
                                                (2, 6, 5))]

    @pytest.mark.parametrize("name", sorted(REBUILT))
    def test_rebuild_gives_the_output_bits(self, name):
        out = REBUILT[name](*self.inputs())
        again = out._rec.rebuild()
        assert again.shape == out.shape
        assert np.array_equal(again.view(np.uint64), out.data.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(REBUILT))
    def test_no_grad_builds_no_rebuild(self, name):
        args = self.inputs()
        with ad.no_grad():
            assert REBUILT[name](*args)._rec is None  # which holds a rebuild

    def test_rebuilt_array_is_shared_and_read_only(self):
        rec = ad.layer_norm(*self.inputs()[:3])._rec
        a = rec.rebuilt()
        assert rec.rebuilt() is a and rec.memo is a
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 1.0

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_node_keeps_no_layer_norm_output(self, name):
        op, shape = READERS[name]
        x, g, b, _ = self.inputs()
        w = t(np.random.default_rng(22).normal(size=shape))
        y = ad.layer_norm(x, g, b)
        plain, ref, rec = t(y.data.copy()), weakref.ref(y.data), y._rec
        loss = ad.sum_all(op(y, w))
        del y
        assert ref() is None  # the node rebuilds it when its backward runs
        ad.backward(loss)
        w_plain = t(w.data)
        ad.backward(ad.sum_all(op(plain, w_plain)))
        assert np.array_equal(w.grad, w_plain.grad)
        assert np.array_equal(rec.grad, plain.grad)

    def test_node_keeps_no_linear_output(self):
        x, _, bias, w = self.inputs()
        w_q = t(np.random.default_rng(24).normal(size=(6, 6)))
        q = ad.linear(x, w_q, bias)
        plain, ref = t(q.data.copy(), rg=False), weakref.ref(q.data)
        loss = ad.sum_all(ad.matmul(q, w))
        del q
        assert ref() is None  # matmul's node rebuilds it from x
        ad.backward(loss)
        w_plain = t(w.data)
        ad.backward(ad.sum_all(ad.matmul(plain, w_plain)))
        assert np.array_equal(w.grad, w_plain.grad)

    @staticmethod
    def wrap_rebuilds(monkeypatch, wrap):
        """Later ops hand ``_make`` ``wrap(rebuild)`` for each rebuild."""
        make = ad._make

        def wrapped(*args, rebuild=None):
            return make(*args, rebuild=rebuild and wrap(rebuild))

        monkeypatch.setattr(ad, "_make", wrapped)

    def test_shared_output_rebuilt_once(self, monkeypatch):
        x, g, b, _ = self.inputs()
        rng = np.random.default_rng(23)
        weights = [t(rng.normal(size=(6, 4))) for _ in range(3)]
        kernels = t(rng.normal(size=(6, 3)))
        calls = []

        def counted(rebuild):
            def count():
                calls.append(None)
                return rebuild()
            return count

        with monkeypatch.context() as m:
            self.wrap_rebuilds(m, counted)
            y = ad.layer_norm(x, g, b)
        plain = t(y.data.copy(), rg=False)

        def loss(y, weights, kernels):
            outs = [ad.linear(y, w) for w in weights]
            outs.append(ad.depthwise_conv1d(y, kernels))
            return functools.reduce(ad.add, map(ad.sum_all, outs))

        total = loss(y, weights, kernels)
        del y
        ad.backward(total)
        assert len(calls) == 1  # not once per reading node
        again = [t(p.data) for p in weights + [kernels]]
        ad.backward(loss(plain, again[:3], again[3]))
        for p, q in zip(weights + [kernels], again):
            assert np.array_equal(p.grad, q.grad)

    def test_backward_frees_every_rebuilt_array(self, monkeypatch):
        refs = []

        def watched(rebuild):
            def watch():
                a = rebuild()
                refs.append(weakref.ref(a))
                return a
            return watch

        self.wrap_rebuilds(monkeypatch, watched)
        x, g, b, _ = self.inputs()
        w = t(np.random.default_rng(25).normal(size=(6, 4)))
        y = ad.layer_norm(x, g, b)
        q = ad.linear(y, w, t(np.ones(4)))
        k = ad.transpose(q, (1, 0))
        s = ad.matmul(q, k)
        loss = ad.sum_all(ad.mul(s, s))
        records = [v._rec for v in (y, q, k, s, loss)]
        ad.backward(loss)
        assert len(refs) == 4  # y, q, k and s each rebuilt once
        assert all(r.rebuild is None and r.memo is None for r in records)
        assert all(ref() is None for ref in refs)  # while y..loss live


def linear_grads(a, b, g):
    """Gradients of ``linear(a, b)``, no bias, for upstream gradient ``g``."""
    ta, tb = t(a), t(b)
    out = ad.linear(ta, tb)
    assert np.array_equal(out.data, a @ b)
    run_node(out, g)
    return ta.grad, tb.grad


class TestMatmulSharedWeight:
    """The product with a 2-D ``b`` shared by every leading row, which
    ``linear`` takes without a bias: its flattened backward against the
    batched product reduced by ``_unbroadcast``."""

    @pytest.mark.parametrize("case", ["2d", "3d", "4d", "5d",
                                      "a_transposed", "g_transposed"])
    def test_matches_batched_reference(self, case):
        rng = np.random.default_rng(3)
        lead = {"2d": (6,), "3d": (3, 5), "4d": (2, 3, 4),
                "5d": (2, 1, 3, 2, 5)}.get(case, (4, 3, 5))
        a = rng.normal(size=lead + (7,))
        b = rng.normal(size=(7, 6))
        g = rng.normal(size=lead + (6,))
        if case == "a_transposed":
            a = np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
        if case == "g_transposed":
            g = np.ascontiguousarray(g.swapaxes(0, 1)).swapaxes(0, 1)
        assert a.flags.c_contiguous == (case != "a_transposed")
        assert g.flags.c_contiguous == (case != "g_transposed")
        ga, gb = linear_grads(a, b, g)
        ref_b = ad._unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)
        ref_a = g @ b.T
        assert ga.shape == a.shape and gb.shape == b.shape
        assert gc.rel_error(ga, ref_a) <= 1e-12
        assert gc.rel_error(gb, ref_b) <= 1e-12

    def test_backward_never_builds_batched_weight_product(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(64, 7, 12, 128))
        b = rng.normal(size=(128, 256))
        g = rng.normal(size=(64, 7, 12, 256))
        batched_bytes = 64 * 7 * 128 * 256 * 8  # (..., 128, 256) float64
        ta, tb = t(a), t(b)
        out = ad.linear(ta, tb)
        tracemalloc.start()
        try:
            run_node(out, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ta.grad.shape == a.shape and tb.grad.shape == b.shape
        assert peak < batched_bytes, (peak, batched_bytes)


class TestLinear:
    """``linear`` with a bias against ``add`` of the product without one."""

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((32, 2, 12, 64), (64, 128)),     # train-gate FFN
        ((32, 7, 12, 128), (128, 256)),   # ETTh1 FFN
    ], ids=["gate_ffn", "etth1_ffn"])
    def test_matches_matmul_plus_bias(self, x_shape, w_shape):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=x_shape), rng.normal(size=w_shape),
                  rng.normal(size=w_shape[1])]
        new, old = [t(a) for a in arrays], [t(a) for a in arrays]
        y = ad.linear(*new)
        ref = ad.add(ad.linear(old[0], old[1]), old[2])
        assert np.array_equal(y.data, ref.data)
        w = t(rng.normal(size=y.shape), rg=False)
        ad.backward(ad.sum_all(ad.mul(y, w)))
        ad.backward(ad.sum_all(ad.mul(ref, w)))
        for a, b in zip(new, old):
            assert gc.rel_error(a.grad, b.grad) <= 1e-12

    def test_macs_match_matmul(self):
        ad.enable_mac_counting(True)
        ad.reset_mac_count()
        try:
            with ad.no_grad():
                ad.linear(t(np.ones((3, 4, 5)), rg=False),
                          t(np.ones((5, 6)), rg=False), t(np.ones(6), rg=False))
            assert ad.mac_count() == 3 * 4 * 5 * 6
        finally:
            ad.enable_mac_counting(False)

    def test_bad_shapes_rejected(self):
        for shapes in [((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)),
                       ((2, 4), (1, 4, 5), (5,))]:
            with pytest.raises(ValueError, match="^linear: "):
                ad.linear(*(t(np.ones(s)) for s in shapes))


def test_gelu_without_node_matches_recorded():
    x = np.random.default_rng(2).normal(size=(4, 6)) * 3
    with ad.no_grad():
        free = ad.gelu(t(x))
    frozen = ad.gelu(t(x, rg=False))
    recorded = ad.gelu(t(x))
    assert recorded._rec.node is not None and free._rec is None
    assert np.array_equal(free.data, recorded.data)
    assert np.array_equal(frozen.data, recorded.data)


def old_gelu_cdf(x):
    """Phi(x) as gelu computed it before erf took |x|: 0.5 * (1 + erf(x /
    sqrt(2))), with the division done as a multiply by 1 / sqrt(2)."""
    cdf = np.multiply(x, 1.0 / math.sqrt(2.0))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def old_gelu_backward(x, g):
    """gelu's input gradient as its backward computed it when the node kept
    x and Phi(x); the derivative the forward pass now saves must give the
    same bits."""
    cdf = old_gelu_cdf(x)
    d = np.multiply(x, x)  # becomes g * (cdf + x * pdf)
    d *= -0.5
    np.exp(d, out=d)
    d *= 1.0 / math.sqrt(2.0 * math.pi)
    d *= x
    d += cdf
    d *= g
    return d


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN: gelu now
    gives Phi a NaN input's sign bit, where erf returned a positive NaN."""
    nan = np.isnan(b)
    return (np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.uint64),
                               b[~nan].view(np.uint64)))


# three draws in five sit in the body of the GELU or near |x / sqrt(2)| =
# 1, where cephes' erf hands over to erfc; the rest range over every
# float64 with either sign, zeros, subnormals, infinities and NaNs
GELU_INPUTS = st.one_of(
    st.floats(-6.0, 6.0), st.floats(1.40, 1.43).map(lambda v: -v),
    st.floats(1.40, 1.43), st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf,
                     -math.inf, math.nan, math.sqrt(2.0), -math.sqrt(2.0)]))


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(GELU_INPUTS, min_size=1, max_size=40),
       gs=st.lists(st.floats(-4.0, 4.0), min_size=40, max_size=40))
def test_gelu_same_bits_as_signed_erf(xs, gs):
    x = np.array(xs)
    g = np.array(gs[:len(xs)])
    with np.errstate(all="ignore"):
        want = old_gelu_cdf(x) * x
        want_grad = old_gelu_backward(x, g)
        with ad.no_grad():
            free = ad.gelu(t(x))
        xt = t(x)
        recorded = ad.gelu(xt)
        run_node(recorded, g)
    assert same_bits(free.data, want)
    assert same_bits(recorded.data, want)
    assert same_bits(xt.grad, want_grad)


def test_scipy_erf_exactly_odd(erf_inputs):
    # gelu's folded sign gives the old bits only while erf(-z) = -erf(z)
    # exactly; a scipy build that breaks this must fail here, not drift
    z = erf_inputs
    assert np.array_equal((-ad.erf(z)).view(np.uint64),
                          ad.erf(-z).view(np.uint64))


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_gelu_gradient_matches_old_backward(layout):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 4, 33)) * 4  # the centre and both tails
    g = rng.normal(size=x.shape)
    if layout == "transposed":
        x, g = x.T, g.T
    xt = t(x)
    run_node(ad.gelu(xt), g)
    assert np.array_equal(xt.grad, old_gelu_backward(x, g))


# ops whose backward reads none of the listed input arrays, so the graph
# must not keep them alive
INPUT_ARRAYS_FREED = {
    "add": (0, 1), "sigmoid": (0,),
    "roll": (0,), "softmax": (0,), "layer_norm": (0,),
    "sum_all": (0,), "mse": (0, 1),
}


@pytest.mark.parametrize("name", sorted(gc.OP_CALLS))
def test_node_holds_input_records_not_inputs(name):
    op, shapes = gc.OP_CALLS[name]
    rng = np.random.default_rng(7)
    ts = [t(rng.normal(size=s)) for s in shapes]
    out = op(*ts)
    records = [x._rec for x in ts]
    _, fn, held = out._rec.node
    # None stands for an input made inside the call that needs no gradient
    assert [r for r in held if r is not None] == records
    held += tuple(cell.cell_contents for cell in fn.__closure__ or ())
    assert not any(isinstance(v, ad.Tensor) for v in held)
    arrays = [weakref.ref(ts[i].data) for i in INPUT_ARRAYS_FREED.get(name, ())]
    del ts, held
    assert [r() for r in arrays] == [None] * len(arrays)
    run_node(out, rng.normal(size=out.shape))
    for r, shape in zip(records, shapes):
        assert r.grad.shape == shape


def test_mul_by_constant_keeps_no_input_array():
    x = t(np.arange(6.0).reshape(2, 3))
    rec, ref = x._rec, weakref.ref(x.data)
    out = ad.mul(x, t(2.0, rg=False))
    del x
    assert ref() is None  # only the constant's gradient would read x
    g = np.random.default_rng(8).normal(size=out.shape)
    run_node(out, g)
    assert np.array_equal(rec.grad, g * 2.0)


def ref_adam_step(params, grads, state):
    """The update as ``adam_step`` computed it with fresh arrays."""
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_in_place_matches_reference():
    rng = np.random.default_rng(9)
    shapes = [(5, 3), (7,), (2, 3, 4)]
    start = [rng.normal(size=s) for s in shapes]
    new = [t(a.copy()) for a in start]
    old = [t(a.copy()) for a in start]
    st_new = ad.AdamState(new, lr=3e-3)
    st_old = ad.AdamState(old, lr=3e-3)
    for _ in range(2):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)
                 for s in shapes]
        for g in grads:
            g.flags.writeable = False  # stored gradients are read-only
        ad.adam_step(new, grads, st_new)
        ref_adam_step(old, grads, st_old)
        for a, b in zip(new, old):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(st_new.m + st_new.v, st_old.m + st_old.v):
            assert np.array_equal(a, b)


# The formulas the elementwise, normalization and convolution ops used before
# they were rewritten to allocate less: forward value and the gradient of each
# input for upstream gradient g. The convolutions are the einsum over
# sliding-window views, depthwise in its old (..., Ch, P) layout.

def _windows(x, k):
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
    return win[..., :x.shape[-1] - k + 1, :]


def _pad_last(x, pad):
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])


def ref_sigmoid(x, g):
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return y, [g * y * (1.0 - y)]


def ref_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x * cdf, [g * (cdf + x * pdf)]


def ref_softmax(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, [y * (g - (g * y).sum(axis=-1, keepdims=True))]


def ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    rows = tuple(range(x.ndim - 1))
    gh = g * gamma
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return gamma * xhat + beta, [gx, (g * xhat).sum(axis=rows), g.sum(axis=rows)]


def ref_depthwise(x, kern, g):
    xt, gt = x.swapaxes(-1, -2), g.swapaxes(-1, -2)    # (..., Ch, P)
    k = kern.shape[1]
    pad = (k - 1) // 2
    xw = _windows(_pad_last(xt, pad), k)
    out = np.einsum("...ctk,ck->...ct", xw, kern, optimize=True)
    gk = np.einsum("...ct,...ctk->ck", gt, xw, optimize=True)
    gw = _windows(_pad_last(gt, k - 1), k)
    gx = np.einsum("...ctk,ck->...ct", gw, kern[:, ::-1], optimize=True)
    gx = gx[..., pad:pad + xt.shape[-1]]
    return out.swapaxes(-1, -2), [gx.swapaxes(-1, -2), gk]


def embed_series(x, bank):
    """``wconv_embed`` of the series in ``x`` as data, which needs no
    gradient: only the bank receives one."""
    return emb.wconv_embed(ad.Tensor(x.data), bank)


def ref_wconv_embed(x, bank, g):
    """(..., 1, C, L) data -> (..., C, L, d): the conv1d einsum over padded
    windows with the multiplicity-scaled store; the bank gradient only."""
    k = bank.shape[-1]
    mult = emb.tap_multiplicity(k)
    xw = _windows(_pad_last(x[..., 0, :, :], (k - 1) // 2), k)
    out = np.einsum("...ctk,dk->...ctd", xw, bank[:, 0] * mult, optimize=True)
    gk = np.einsum("...ctd,...ctk->dk", g, xw, optimize=True) * mult
    return out, [gk[:, None]]


# name -> (op, reference, input shapes); the reference returns the gradient
# of every input the op differentiates
REFERENCE_CASES = {
    "sigmoid": (ad.sigmoid, ref_sigmoid, [(3, 2, 5, 8)]),
    "gelu": (ad.gelu, ref_gelu, [(3, 2, 5, 8)]),
    "softmax": (ad.softmax, ref_softmax, [(3, 2, 5, 8)]),
    "layer_norm": (ad.layer_norm, ref_layer_norm, [(3, 2, 5, 8), (8,), (8,)]),
    "depthwise_conv1d": (ad.depthwise_conv1d, ref_depthwise,
                         [(3, 2, 5, 8), (8, 3)]),
    # taps reaching past both ends of a 3-long axis
    "depthwise_conv1d_wide": (ad.depthwise_conv1d, ref_depthwise,
                              [(3, 2, 3, 8), (8, 9)]),
    "wconv_embed": (embed_series, ref_wconv_embed,
                    [(3, 2, 1, 4, 10), (5, 1, 7)]),
    # a store wider than the series: taps reaching past both ends
    "wconv_embed_wide": (embed_series, ref_wconv_embed,
                         [(3, 2, 1, 2, 12), (6, 1, 15)]),
}


class TestKernelsMatchReference:
    """Forward values and the gradient of every input the op differentiates
    within 1e-12 relative of the reference formulas, on contiguous batched
    inputs and on transposed (non-contiguous) inputs and upstream
    gradients."""

    @pytest.mark.parametrize("layout", ["batched", "transposed"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_reference(self, name, layout):
        op, ref, shapes = REFERENCE_CASES[name]
        rng = np.random.default_rng(11)

        def draw(shape, spread=1.0):
            if layout == "batched":
                return rng.normal(size=shape) * spread
            a = (rng.normal(size=shape[::-1]) * spread).T
            assert a.ndim < 2 or not a.flags.c_contiguous
            return a

        # wide spread so sigmoid and softmax see both tails
        arrays = [draw(shapes[0], 6.0)] + [draw(s) for s in shapes[1:]]
        ts = [t(a) for a in arrays]
        out = op(*ts)
        g = draw(out.shape)
        run_node(out, g)
        want, want_grads = ref(*arrays, g)
        assert out.shape == want.shape
        assert gc.rel_error(out.data, want) <= 1e-12
        differentiated = [x for x in ts if x._rec.grad is not None]
        assert len(differentiated) == len(want_grads)
        for x, gw in zip(differentiated, want_grads):
            assert x.grad.shape == gw.shape
            assert gc.rel_error(x.grad, gw) <= 1e-12


class TestOpsLeaveArraysAlone:
    """In-place kernels must write only to arrays they allocated."""

    @pytest.mark.parametrize("name", sorted(gc.OP_CALLS))
    def test_inputs_output_and_saved_state_unchanged(self, name):
        op, shapes = gc.OP_CALLS[name]
        rng = np.random.default_rng(5)
        ts = [t(rng.normal(size=s)) for s in shapes]
        before = [x.data.copy() for x in ts]
        out = op(*ts)
        y = out.data.copy()
        for x, b in zip(ts, before):
            assert np.array_equal(x.data, b)
        g = np.asarray(rng.normal(size=out.shape))
        g_before = g.copy()
        # a backward that edits what it saved gives another result next time
        runs = []
        for _ in range(2):
            for x in ts:
                x.zero_grad()
            run_node(out, g)
            runs.append([x.grad.copy() for x in ts])
        for x, b in zip(ts, before):
            assert np.array_equal(x.data, b)
        assert np.array_equal(out.data, y)
        assert np.array_equal(g, g_before)
        for first, second in zip(*runs):
            assert np.array_equal(first, second)


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (1, 4, 5)), ((2, 2, 3, 4), (2, 1, 4, 5)),
        ((3, 4), (2, 4, 5)), ((2, 3, 4), (3, 2, 4, 5)),
    ])
    def test_matmul_batch_axes_differ(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="^matmul: "):
            ad.matmul(t(np.ones(a_shape)), t(np.ones(b_shape)))

    @pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4)])
    def test_matmul_rejects_a_shared_weight(self, a_shape):
        # a (K, N) weight shared by every leading row goes to linear
        want = re.escape(f"matmul: shapes disagree, {a_shape} x (4, 5)")
        with pytest.raises(ValueError, match=f"^{want}$"):
            ad.matmul(t(np.ones(a_shape)), t(np.ones((4, 5))))

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ad.depthwise_conv1d(t(np.ones((1, 4))), t(np.ones((1, 2))))

    def test_add_incompatible(self):
        with pytest.raises(ValueError):
            ad.add(t(np.ones((2, 3))), t(np.ones((2, 4))))

    def test_mul_incompatible_message(self):
        msg = "mul: shapes (2, 3) and (2, 4) do not align"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ad.mul(t(np.ones((2, 3))), t(np.ones((2, 4))))

    def test_reshape_wrong_count(self):
        msg = "reshape (2, 3) -> (7,) changes element count"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ad.reshape(t(np.ones((2, 3))), (7,))

    @pytest.mark.parametrize("axes", [(0, 0), (1,), (0, 2), (-1, 0), (1, 2),
                                      (0, 1, 2), (2, 0, 1)])
    def test_transpose_bad_axes_message(self, axes):
        msg = f"transpose axes {axes} invalid for ndim 2"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            ad.transpose(t(np.ones((2, 3))), axes)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mse(t(np.ones(3)), t(np.ones(4)))


def old_im2col(x, k):
    """Reference im2col columns from np.pad and sliding_window_view:
    (..., Cin, L) -> (..., Cin*k, L), row c*k + j channel c at tap j."""
    L = x.shape[-1]
    win = np.lib.stride_tricks.sliding_window_view(_pad_last(x, (k - 1) // 2),
                                                   L, axis=-1)
    return win.reshape(x.shape[:-2] + (x.shape[-2] * k, L))


class TestHelpersMatchNumpy:
    """The shape helpers written out in Python give exactly the arrays of the
    numpy calls they replace, so every op keeps its output bits."""

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           transposed=st.booleans(), data=st.data())
    def test_roll_matches_np_roll(self, shape, transposed, data):
        axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
        n = shape[axis]
        shift = data.draw(st.integers(-2 * n, 2 * n), label="shift")
        rng = np.random.default_rng(len(shape) * 100 + n)
        x = rng.normal(size=shape[::-1]).T if transposed else rng.normal(size=shape)
        out = ad.roll(t(x), shift, axis)
        want = np.roll(x, shift, axis=axis)
        assert np.array_equal(out.data, want)
        assert out.data.strides == want.strides
        g = rng.normal(size=out.shape)
        a = t(x)
        run_node(ad.roll(a, shift, axis - len(shape)), g)
        assert np.array_equal(a.grad, np.roll(g, -shift, axis=axis))

    @pytest.mark.parametrize("shape, k", [
        ((4, 10), 1), ((4, 10), 3), ((2, 3, 1, 12), 15), ((3, 2, 4, 10), 5),
        ((1, 5), 15), ((2, 1, 3), 9),       # k > L: outer taps miss the axis
        ((1, 1), 3),
    ])
    def test_im2col_matches_pad_and_sliding_window(self, shape, k):
        # the embedding's windows are those columns, window-major
        x = np.random.default_rng(k).normal(size=shape)
        got = emb.sliding_windows(x, k)
        want = old_im2col(x, k).reshape(shape[:-1] + (k, shape[-1]))
        assert np.array_equal(got, want.swapaxes(-1, -2))
        # a read-only view of one padded copy, not a copy per tap
        assert not got.flags.writeable
        assert got.base.shape == shape[:-1] + (shape[-1] + k - 1,)

    @settings(max_examples=100, deadline=None)
    @given(sa=st.lists(st.integers(1, 3), max_size=4),
           sb=st.lists(st.integers(1, 3), max_size=4))
    def test_shape_check_accepts_what_numpy_broadcasts(self, sa, sb):
        a, b = t(np.ones(sa)), t(np.ones(sb))
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            with pytest.raises(ValueError, match="^mul: shapes"):
                ad.mul(a, b)
        else:
            assert ad.mul(a, b).shape == np.broadcast_shapes(a.shape, b.shape)

    @pytest.mark.parametrize("ndim", range(1, 7))
    def test_transpose_inverse_matches_argsort(self, ndim):
        # axes of length k permute the last k axes and keep those before
        rng = np.random.default_rng(ndim)
        for k in range(1, ndim + 1):
            for _ in range(10):
                axes = tuple(int(i) for i in rng.permutation(k))
                full = (*range(ndim - k), *(ndim - k + i for i in axes))
                a = t(rng.normal(size=tuple(rng.integers(1, 4, size=ndim))))
                out = ad.transpose(a, axes)
                assert np.array_equal(out.data, a.data.transpose(full))
                g = rng.normal(size=out.shape)
                run_node(out, g)
                want = g.transpose(np.argsort(full))
                assert np.array_equal(a.grad, want)
                assert a.grad.strides == want.strides


class TestGradcheckAllOps:
    """Every differentiable op against central finite differences."""

    @pytest.mark.parametrize("name", sorted(gc.OP_CALLS))
    def test_op_gradient(self, name):
        f, tensors = gc.op_cases()[name]
        ok, err = gc.gradcheck(f, tensors)
        assert ok, f"{name}: rel err {err:.3e} >= {gc.TOL}"

    def test_every_exported_op_has_a_case(self):
        not_ops = {"Tensor", "AdamState", "no_grad", "is_recording",
                   "backward", "uniform_init", "adam_step", "clip_grad_norm",
                   "enable_mac_counting", "mac_count", "reset_mac_count"}
        for name in ad.__all__:
            assert hasattr(ad, name), f"__all__ names missing {name!r}"
        ops = set(ad.__all__) - not_ops
        cases = set(gc.OP_CALLS)
        assert ops <= cases, ops - cases
        for name in cases - ops:  # a further backward path: "<op>_<path>"
            assert any(name.startswith(op + "_") for op in ops), name

    @pytest.mark.parametrize("name", sorted(gc.OP_CALLS))
    def test_injected_bug_detected(self, name):
        results = gc.run_op_checks(inject_bug=name)
        by_name = {n: ok for n, ok, _ in results}
        assert by_name.pop(name) is False
        assert all(by_name.values())


class TestMacCounting:
    def test_matmul_macs(self):
        ad.enable_mac_counting(True)
        ad.reset_mac_count()
        try:
            with ad.no_grad():
                ad.matmul(t(np.ones((4, 5)), rg=False), t(np.ones((5, 6)), rg=False))
            assert ad.mac_count() == 4 * 5 * 6
        finally:
            ad.enable_mac_counting(False)

    def test_depthwise_macs(self):
        ad.enable_mac_counting(True)
        ad.reset_mac_count()
        try:
            with ad.no_grad():
                ad.depthwise_conv1d(t(np.ones((8, 3)), rg=False),
                                    t(np.ones((3, 5)), rg=False))
            assert ad.mac_count() == 3 * 8 * 5
        finally:
            ad.enable_mac_counting(False)

    def test_counting_off_by_default(self):
        ad.reset_mac_count()
        with ad.no_grad():
            ad.matmul(t(np.ones((2, 2)), rg=False), t(np.ones((2, 2)), rg=False))
        assert ad.mac_count() == 0

    def test_no_count_lost_across_threads(self):
        # more threads than cores and a short switch interval, so that an
        # increment that is not atomic loses counts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        ad.enable_mac_counting(True)
        ad.reset_mac_count()

        def count():
            for _ in range(20000):
                ad._add_macs(1)

        threads = [threading.Thread(target=count) for _ in range(4)]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert ad.mac_count() == 4 * 20000
        finally:
            sys.setswitchinterval(interval)
            ad.enable_mac_counting(False)
            ad.reset_mac_count()
