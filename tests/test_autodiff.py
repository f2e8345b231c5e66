"""Gradient and value checks for the autodiff core."""

import weakref

import numpy as np
import pytest

from twins import autodiff as ad
from twins import gradcheck as gc


def t(data, rg=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestValues:
    def test_conv1d_known_answer(self):
        # ones(5) * kernel [1,1,1], zero padded: [2,3,3,3,2]
        x = t(np.ones((1, 1, 5)), rg=False)
        k = t(np.ones((1, 1, 3)), rg=False)
        out = ad.conv1d(x, k)
        np.testing.assert_allclose(out.data[0, 0], [2, 3, 3, 3, 2])

    def test_depthwise_known_answer(self):
        x = t([[1.0, 2.0, 3.0, 4.0]], rg=False)
        k = t([[0.0, 1.0, 0.0]], rg=False)  # identity kernel
        out = ad.depthwise_conv1d(x, k)
        np.testing.assert_allclose(out.data, [[1, 2, 3, 4]])

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
        with ad.no_grad():
            y = ad.mul(x, x)
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
        ad.backward(ad.sum_all(ad.scale(x, 3.0)))
        np.testing.assert_allclose(x.grad, [3.0])

    def test_graphs_recorded_together_backward_separately(self):
        x = t([1.0, 2.0])
        l1 = ad.sum_all(ad.mul(x, x))
        l2 = ad.sum_all(ad.scale(x, 3.0))
        ad.backward(l1)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        x.zero_grad()
        ad.backward(l2)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_abandoned_pass_freed_without_gc(self):
        x = t(np.ones(4))
        y = ad.gelu(ad.mul(x, x))
        loss = ad.sum_all(y)
        ref = weakref.ref(y.data)
        del y, loss  # no backward: the pass is dropped
        assert ref() is None


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ad.conv1d(t(np.ones((1, 1, 5))), t(np.ones((1, 1, 4))))
        with pytest.raises(ValueError):
            ad.depthwise_conv1d(t(np.ones((1, 4))), t(np.ones((1, 2))))

    def test_add_incompatible(self):
        with pytest.raises(ValueError):
            ad.add(t(np.ones((2, 3))), t(np.ones((2, 4))))

    def test_reshape_wrong_count(self):
        with pytest.raises(ValueError):
            ad.reshape(t(np.ones((2, 3))), (7,))

    def test_narrow_out_of_range(self):
        with pytest.raises(ValueError):
            ad.narrow(t(np.ones((2, 3))), 1, 2, 5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mse(t(np.ones(3)), t(np.ones(4)))


class TestGradcheckAllOps:
    """Every differentiable op against central finite differences."""

    @pytest.mark.parametrize("name", sorted(gc.op_cases().keys()))
    def test_op_gradient(self, name):
        f, tensors = gc.op_cases()[name]()
        ok, err = gc.gradcheck(f, tensors)
        assert ok, f"{name}: rel err {err:.3e} >= {gc.DEFAULT_TOL}"

    def test_every_exported_op_has_a_case(self):
        not_ops = {"Tensor", "AdamState", "no_grad", "backward",
                   "uniform_init", "adam_step", "clip_grad_norm",
                   "enable_mac_counting", "mac_count", "reset_mac_count"}
        for name in ad.__all__:
            assert hasattr(ad, name), f"__all__ names missing {name!r}"
        ops = set(ad.__all__) - not_ops
        assert ops == set(gc.op_cases()), ops ^ set(gc.op_cases())

    def test_injected_bug_detected(self):
        results = gc.run_op_checks(inject_bug="matmul")
        by_name = {n: ok for n, ok, _ in results}
        assert by_name["matmul"] is False
        assert all(ok for n, ok in by_name.items() if n != "matmul")


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
                ad.depthwise_conv1d(t(np.ones((3, 8)), rg=False),
                                    t(np.ones((3, 5)), rg=False))
            assert ad.mac_count() == 3 * 8 * 5
        finally:
            ad.enable_mac_counting(False)

    def test_counting_off_by_default(self):
        ad.reset_mac_count()
        with ad.no_grad():
            ad.matmul(t(np.ones((2, 2)), rg=False), t(np.ones((2, 2)), rg=False))
        assert ad.mac_count() == 0
