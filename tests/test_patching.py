"""Round-trip and shape contracts of window patching and rotation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins import autodiff as ad
from twins import gradcheck as gc
from twins import patching as pt
from twins.autodiff import Tensor


def point_map(C, L, d, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(C, L, d)))


class TestUnfold:
    def test_shape_small(self):
        pm = pt.window_unfold(point_map(1, 6, 2), scale=3)
        assert pm.data.shape == (1, 2, 6)   # C=1, P=2, D=6

    def test_shape_grid_point(self):
        pm = pt.window_unfold(point_map(7, 96, 16), scale=8)
        assert pm.data.shape == (7, 12, 128)

    def test_scale_one_identity_regroup(self):
        x = point_map(2, 5, 3)
        pm = pt.window_unfold(x, scale=1)
        assert pm.data.shape == (2, 5, 3)
        # patch p holds the d features of step p
        np.testing.assert_array_equal(pm.data.data[1, 4], x.data[1, 4, :])

    def test_time_major_feature_order(self):
        # D index k*d + j is feature j of window step k
        d, C, L, s = 2, 1, 4, 2
        x = Tensor(np.arange(C * L * d, dtype=float).reshape(C, L, d))
        pm = pt.window_unfold(x, scale=s)
        for p in range(L // s):
            for k in range(s):
                for j in range(d):
                    assert pm.data.data[0, p, k * d + j] == x.data[0, p * s + k, j]

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            pt.window_unfold(point_map(1, 7, 2), scale=3)

    def test_multiset_preserved(self):
        x = point_map(4, 12, 3, seed=5)
        pm = pt.window_unfold(x, scale=4)
        np.testing.assert_array_equal(np.sort(pm.data.data.ravel()),
                                      np.sort(x.data.ravel()))


class TestFold:
    def test_round_trip_exact(self):
        x = point_map(3, 24, 4, seed=1)
        back = pt.window_fold(pt.window_unfold(x, scale=6))
        np.testing.assert_array_equal(back.data, x.data)

    def test_round_trip_batched(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 3, 24, 4)))
        back = pt.window_fold(pt.window_unfold(x, scale=8))
        np.testing.assert_array_equal(back.data, x.data)

    def test_repatch_at_other_scale(self):
        x = point_map(2, 12, 2, seed=3)
        p1 = pt.window_unfold(x, scale=3)
        point = pt.window_fold(p1)
        p2 = pt.window_unfold(point, scale=4)
        assert p2.data.shape == (2, 3, 8)

    def test_corrupt_metadata(self):
        pm = pt.window_unfold(point_map(2, 8, 2), scale=2)
        pm.scale = 3  # D = 4 is not a whole number of steps
        with pytest.raises(ValueError):
            pt.window_fold(pm)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 4), C=st.integers(1, 4), P=st.integers(1, 5),
           s=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
    def test_round_trip_property(self, d, C, P, s, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(C, P * s, d)))
        pm = pt.window_unfold(x, scale=s)
        np.testing.assert_array_equal(pt.window_fold(pm).data, x.data)

    def test_unfold_and_fold_are_one_op_each(self):
        x = Tensor(np.zeros((2, 12, 3)), requires_grad=True)
        pm = pt.window_unfold(x, scale=4)
        assert pm.data._rec.node[2] == (x._rec,)
        back = pt.window_fold(pm)
        assert back._rec.node[2] == (pm.data._rec,)

    def test_gradient_through_unfold(self):
        x = Tensor(np.random.default_rng(7).normal(size=(2, 6, 2)),
                   requires_grad=True)
        w = np.random.default_rng(8).normal(size=(2, 2, 6))

        def f():
            pm = pt.window_unfold(x, scale=3)
            return ad.sum_all(ad.mul(pm.data, Tensor(w.reshape(2, 2, 6))))

        ok, err = gc.gradcheck(f, [x])
        assert ok, f"rel err {err:.3e}"


class TestRoll:
    def test_roll_by_one(self):
        pm = pt.window_unfold(point_map(1, 3, 1), scale=1)
        rolled = pt.window_roll(pm, 1)
        np.testing.assert_array_equal(rolled.data.data[0, 0], pm.data.data[0, 2])
        np.testing.assert_array_equal(rolled.data.data[0, 1], pm.data.data[0, 0])
        np.testing.assert_array_equal(rolled.data.data[0, 2], pm.data.data[0, 1])

    def test_full_cycle_identity(self):
        pm = pt.window_unfold(point_map(2, 8, 2, seed=4), scale=2)
        same = pt.window_roll(pm, pm.data.shape[-2])
        np.testing.assert_array_equal(same.data.data, pm.data.data)

    def test_inverse_pair(self):
        pm = pt.window_unfold(point_map(2, 12, 3, seed=6), scale=3)
        back = pt.window_roll(pt.window_roll(pm, 2), -2)
        np.testing.assert_array_equal(back.data.data, pm.data.data)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 3), C=st.integers(1, 3), L=st.integers(1, 24),
           lead=st.sampled_from([(1,), (3,), (2, 2)]),
           seed=st.integers(0, 10 ** 6))
    def test_unfold_roll_unroll_fold_exact(self, d, C, L, lead, seed):
        # what every shifted encoder layer does to its input, at every
        # scale that divides L and every shift, with batch prefixes
        x = Tensor(np.random.default_rng(seed).normal(size=lead + (C, L, d)))
        for s in (s for s in range(1, L + 1) if L % s == 0):
            P = L // s
            for r in range(-P, P + 1):
                pm = pt.window_roll(pt.window_unfold(x, s), r)
                back = pt.window_fold(pt.window_roll(pm, -r))
                np.testing.assert_array_equal(back.data, x.data,
                                              err_msg=f"scale {s}, shift {r}")

    def test_metadata_carried(self):
        pm = pt.window_unfold(point_map(1, 8, 2), scale=4)
        rolled = pt.window_roll(pm, 1)
        assert rolled.scale == 4
