"""Kernel bank, multi-scale embedding, position table, linear-patch baseline."""

import re

import numpy as np
import pytest

from twins import autodiff as ad
from twins import embedding as emb
from twins import gradcheck as gc
from twins import patching as pt
from twins.autodiff import Tensor


def make_bank(d, num_scales, seed=0):
    return emb.init_kernel_bank(d, num_scales, np.random.default_rng(seed))


def nested_reference(x, bank, probe):
    """The embedding as the paper states it, in numpy: one convolution per
    nested, centered width 1, 3, ..., K of the shared store, summed, each
    the einsum of the full store times a 0/1 mask of its taps over the
    padded windows. x is (N, 1, C, L); returns the (N, C, L, d) map and
    the gradient of sum(map * probe) in the bank."""
    k_max = bank.shape[-1]
    pad = [(0, 0)] * 2 + [(k_max // 2, k_max // 2)]
    xw = np.lib.stride_tricks.sliding_window_view(np.pad(x[:, 0], pad),
                                                  k_max, axis=-1)
    out, grad = 0.0, 0.0
    width = 1
    while width <= k_max:
        mask = np.zeros(k_max)
        start = (k_max - width) // 2
        mask[start:start + width] = 1.0
        out = out + np.einsum("nctk,dk->nctd", xw, bank[:, 0] * mask)
        grad = grad + np.einsum("nctd,nctk->dk", probe, xw) * mask
        width = 2 * width + 1
    return out, grad[:, None]


def rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class TestKernelBank:
    def test_sizes_n4(self):
        assert make_bank(d=3, num_scales=4).shape == (3, 1, 15)

    def test_kmax_n5(self):
        assert make_bank(d=1, num_scales=5).shape[-1] == 31

    def test_degenerate_single_scale(self):
        assert make_bank(d=2, num_scales=1).shape == (2, 1, 1)
        np.testing.assert_array_equal(emb.tap_multiplicity(1), [1.0])

    def test_invalid_num_scales(self):
        with pytest.raises(ValueError):
            make_bank(d=2, num_scales=0)

    def test_init_bound(self):
        bank = make_bank(d=8, num_scales=4, seed=1)
        bound = 1.0 / np.sqrt(15)
        assert np.all(np.abs(bank.data) <= bound)
        assert bank.requires_grad

    def test_shared_store_size(self):
        # one store of d*(2^n - 1) weights, not per-scale copies
        assert make_bank(d=5, num_scales=3).size == 5 * 7

    @pytest.mark.parametrize("n, want", [
        (1, [1]),
        (2, [1, 2, 1]),
        (3, [1, 1, 2, 3, 2, 1, 1]),
        (4, [1, 1, 1, 1, 2, 2, 3, 4, 3, 2, 2, 1, 1, 1, 1]),
        (5, [1] * 8 + [2] * 4 + [3] * 2 + [4, 5, 4] + [3] * 2 + [2] * 4
         + [1] * 8),
    ])
    def test_tap_multiplicity(self, n, want):
        np.testing.assert_array_equal(emb.tap_multiplicity(2 ** n - 1), want)

    @pytest.mark.parametrize("k_max", [0, 2, 5, 8])
    def test_multiplicity_rejects_width(self, k_max):
        with pytest.raises(ValueError):
            emb.tap_multiplicity(k_max)

    def test_edge_weight_outside_scale_window(self):
        # the outermost tap lies outside every narrower width, so it adds
        # its change exactly once: a shift of the input by 3 steps
        bank = make_bank(d=1, num_scales=3)   # K_max = 7, taps -3..3
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 9)))
        with ad.no_grad():
            before = emb.wconv_embed(x, bank).data.copy()
            bank.data[0, 0, 0] += 5.0
            after = emb.wconv_embed(x, bank).data
        want = np.zeros(9)
        want[3:] = 5.0 * x.data[0, 0, :6]
        np.testing.assert_allclose(after[0, :, 0] - before[0, :, 0], want,
                                   rtol=0, atol=1e-12)


class TestWconvEmbed:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_nested_reference(self, n):
        rng = np.random.default_rng(40 + n)
        bank = make_bank(d=3, num_scales=n, seed=n)
        x = rng.normal(size=(2, 1, 3, 40))
        probe = rng.normal(size=(2, 3, 40, 3))
        y = emb.wconv_embed(Tensor(x), bank)
        assert y.shape == (2, 3, 40, 3)
        ad.backward(ad.sum_all(ad.mul(y, Tensor(probe))))
        want, want_grad = nested_reference(x, bank.data, probe)
        assert rel(y.data, want) <= 1e-12
        assert rel(bank.grad, want_grad) <= 1e-12

    def test_sliding_windows_known_answer(self):
        # ones(5) times the kernel [1, 1, 1], zero padded: [2, 3, 3, 3, 2]
        cols = emb.sliding_windows(np.ones(5), 3)
        assert cols.shape == (5, 3)
        np.testing.assert_array_equal(cols @ np.ones(3), [2, 3, 3, 3, 2])

    def test_two_scale_all_ones(self):
        bank = make_bank(d=3, num_scales=2)
        bank.data[:] = 1.0
        x = Tensor(np.ones((1, 1, 5)))
        out = emb.wconv_embed(x, bank)
        assert out.shape == (1, 5, 3)
        for j in range(3):
            np.testing.assert_allclose(out.data[0, :, j], [3, 4, 4, 4, 3])

    def test_single_scale_pointwise(self):
        bank = make_bank(d=2, num_scales=1)
        bank.data[0, 0, 0] = 2.5
        bank.data[1, 0, 0] = -1.0
        x = Tensor(np.arange(6, dtype=float).reshape(1, 2, 3))
        out = emb.wconv_embed(x, bank)
        np.testing.assert_allclose(out.data[..., 0], 2.5 * x.data[0])
        np.testing.assert_allclose(out.data[..., 1], -1.0 * x.data[0])

    def test_output_shape_contract(self):
        bank = make_bank(d=4, num_scales=3)
        out = emb.wconv_embed(Tensor(np.zeros((1, 7, 24))), bank)
        assert out.shape == (7, 24, 4)

    def test_batched_leading_axis(self):
        bank = make_bank(d=2, num_scales=2)
        out = emb.wconv_embed(Tensor(np.zeros((5, 1, 3, 12))), bank)
        assert out.shape == (5, 3, 12, 2)

    def test_channel_permutation_equivariance(self):
        bank = make_bank(d=3, num_scales=3, seed=2)
        x = np.random.default_rng(1).normal(size=(1, 4, 16))
        perm = [2, 0, 3, 1]
        with ad.no_grad():
            a = emb.wconv_embed(Tensor(x), bank).data[perm]
            b = emb.wconv_embed(Tensor(x[:, perm, :]), bank).data
        np.testing.assert_array_equal(a, b)

    def test_bad_input_shape(self):
        bank = make_bank(d=2, num_scales=2)
        with pytest.raises(ValueError):
            emb.wconv_embed(Tensor(np.zeros((2, 3, 8))), bank)

    def test_input_needing_gradient_rejected(self):
        # the series is data; it never gets a silent zero gradient
        bank = make_bank(d=2, num_scales=2)
        x = Tensor(np.zeros((1, 3, 8)), requires_grad=True)
        with pytest.raises(ValueError, match="requires a gradient"):
            emb.wconv_embed(x, bank)

    def test_input_needing_gradient_rejected_while_recording(self):
        # the full message, raised before any window or node is built
        bank = make_bank(d=2, num_scales=2)
        x = Tensor(np.zeros((2, 1, 3, 8)), requires_grad=True)
        msg = ("wconv_embed: series (2, 1, 3, 8) requires a gradient; "
               "only the bank is differentiated")
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            emb.wconv_embed(x, bank)

    def test_input_needing_gradient_rejected_under_no_grad(self):
        bank = make_bank(d=2, num_scales=2)
        x = Tensor(np.zeros((2, 1, 3, 8)), requires_grad=True)
        msg = ("wconv_embed: series (2, 1, 3, 8) requires a gradient; "
               "only the bank is differentiated")
        with ad.no_grad(), pytest.raises(ValueError,
                                         match=f"^{re.escape(msg)}$"):
            emb.wconv_embed(x, bank)

    def test_bank_gradient_vs_fd(self):
        bank = make_bank(d=2, num_scales=3, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 9)))

        def f():
            y = emb.wconv_embed(x, bank)
            return ad.sum_all(ad.mul(y, y))

        ok, err = gc.gradcheck(f, [bank])
        assert ok, f"rel err {err:.3e}"


class TestPosition:
    def test_zero_table_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 2)))
        pos = Tensor(np.zeros((2, 4)))
        np.testing.assert_array_equal(emb.add_position(x, pos).data, x.data)

    def test_shape_and_broadcast(self):
        x = Tensor(np.zeros((3, 4, 2)))
        pos = Tensor(np.arange(8, dtype=float).reshape(2, 4))
        out = emb.add_position(x, pos)
        assert out.shape == (3, 4, 2)
        for c in range(3):
            np.testing.assert_array_equal(out.data[c], pos.data.T)

    def test_gradient_summed_over_channels(self):
        x = Tensor(np.zeros((3, 4, 2)))
        pos = Tensor(np.zeros((2, 4)), requires_grad=True)
        ad.backward(ad.sum_all(emb.add_position(x, pos)))
        np.testing.assert_allclose(pos.grad, np.full((2, 4), 3.0))

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            emb.add_position(Tensor(np.zeros((3, 4, 2))), Tensor(np.zeros((2, 5))))


class TestLinearPatch:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(8, 128)))
        b = Tensor(np.zeros(128))
        out = emb.linear_patch_embed(Tensor(np.zeros((1, 7, 96))), 8, w, b)
        assert out.shape == (7, 96, 16)

    def test_zero_map(self):
        w = Tensor(np.zeros((4, 8)))
        b = Tensor(np.zeros(8))
        out = emb.linear_patch_embed(Tensor(np.ones((1, 2, 8))), 4, w, b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 8, 2)))

    def test_divisibility(self):
        w = Tensor(np.zeros((5, 6)))
        b = Tensor(np.zeros(6))
        with pytest.raises(ValueError):
            emb.linear_patch_embed(Tensor(np.zeros((1, 2, 8))), 5, w, b)

    def test_width_not_divisible_by_patch_len(self):
        w = Tensor(np.zeros((4, 6)))
        b = Tensor(np.zeros(6))
        with pytest.raises(ValueError, match=re.escape(
                "weight width 6 not divisible by patch_len=4")):
            emb.linear_patch_embed(Tensor(np.zeros((1, 2, 8))), 4, w, b)

    def test_known_values(self):
        # patch [1,2] with weight [[1,100],[10,1000]] -> 21, 2100; each
        # patch's two outputs go to its two steps
        w = Tensor(np.array([[1.0, 100.0], [10.0, 1000.0]]))
        b = Tensor(np.array([0.5, 0.25]))
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4))
        out = emb.linear_patch_embed(x, 2, w, b)
        np.testing.assert_allclose(out.data,
                                   [[[21.5], [2100.25], [43.5], [4300.25]]])

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_unfolds_to_the_patch_map(self, lead):
        # the point map, unfolded at patch_len, is the affine map of each
        # raw patch bit for bit, in value and in gradient
        rng = np.random.default_rng(12)
        x = rng.normal(size=lead + (1, 2, 24))
        w = Tensor(rng.normal(size=(4, 12)), requires_grad=True)
        b = Tensor(rng.normal(size=12), requires_grad=True)
        up = rng.normal(size=lead + (2, 6, 12))
        runs = []
        for patch_map in (
            lambda: pt.window_unfold(
                emb.linear_patch_embed(Tensor(x), 4, w, b), 4).data,
            lambda: ad.linear(Tensor(x.reshape(lead + (2, 6, 4))), w, b),
        ):
            w.zero_grad()
            b.zero_grad()
            y = patch_map()
            ad.backward(ad.sum_all(ad.mul(y, Tensor(up))))
            runs.append((y.data, w.grad.copy(), b.grad.copy()))
        for new, ref in zip(*runs):
            assert np.array_equal(new, ref)
