"""Model assembly contracts: shapes, residual identity, equivariance, grads."""

import re
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twins import attention as at
from twins import autodiff as ad
from twins import gradcheck as gc
from twins import model as md
from twins import patching as pt
from twins.autodiff import Tensor


# the model of the tier-1 learning gate and of the train-gate benchmark
GATE = dict(C=2, L=96, T=24, d=8, h=64, variant="twins", lr=1e-3)


def micro_config(**kw):
    base = dict(C=2, L=8, T=4, d=2, num_scales=2, n_layers=1, patch_len=4,
                heads=2, aware_heads=2, k=3, h=8, ffn_hidden=8,
                variant="twins", seed=7)
    base.update(kw)
    return md.ModelConfig(**base)


def expected_param_count(cfg):
    """Closed-form size of the parameter store for a config."""
    total = 0
    if cfg.use_wconv:
        total += cfg.d * (2 ** cfg.num_scales - 1)     # kernel bank
        total += cfg.d * cfg.L                          # position table
    else:
        D0 = cfg.D_at(0)
        total += cfg.patch_len * D0 + D0                # patch affine map
    for l in range(cfg.n_layers):
        D, P, F = cfg.D_at(l), cfg.P_at(l), cfg.ffn_at(l)
        total += 2 * D                                  # ln1
        total += (4 if cfg.has_qk() else 2) * D * D     # attention projections
        if cfg.has_subnet():
            total += D * cfg.k + D * P                  # dw kernels + W_p
        total += 2 * D                                  # ln2
        total += D * F + F + F * D + D                  # ffn
        if cfg.use_ctmlp:
            total += 2 * D                              # ln3
            cp = cfg.C * P
            total += cp * cfg.h + cfg.h + cfg.h * cp + cp
    head_in = cfg.d * cfg.L if cfg.use_wconv else cfg.P_at(0) * cfg.D_at(0)
    total += head_in * cfg.T + cfg.T                    # shared head
    return total


def zero_weights(model, keep_ln_gain=True):
    for name, t in model.params.items():
        if keep_ln_gain and name.endswith(("ln1.g", "ln2.g", "ln3.g")):
            continue
        t.data[:] = 0.0


class TestInstanceNorm:
    def test_hand_values(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
        xn, stats = md.instance_normalize(x)
        np.testing.assert_allclose(xn.data[0, 0], [-1.2247, 0.0, 1.2247],
                                   atol=1e-4)
        assert stats.mean[0, 0] == pytest.approx(2.0)

    def test_constant_channel_zeros(self):
        x = np.full((1, 2, 5), 3.3)
        xn, _ = md.instance_normalize(x)
        np.testing.assert_allclose(xn.data, np.zeros((1, 2, 5)))

    def test_round_trip(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 16)) * 4 + 7
        xn, stats = md.instance_normalize(x)
        back = md.instance_denormalize(Tensor(xn.data[0]), stats)
        np.testing.assert_allclose(back.data, x[0], atol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 7, 96), (5, 1, 3, 16), (1, 2, 1)])
    def test_matches_numpy_mean_and_std(self, shape):
        # bit for bit, with constant rows (std 0) among the random ones
        x = np.random.default_rng(len(shape)).normal(size=shape) * 3 + 1
        x[..., 0, :] = 0.7
        mean = x.mean(axis=-1, keepdims=True)
        std = x.std(axis=-1, keepdims=True)
        xn, stats = md.instance_normalize(x)
        assert xn.data.tobytes() == ((x - mean) / (std + md.INSTANCE_EPS)).tobytes()
        assert stats.mean.tobytes() == np.squeeze(mean, axis=-3).tobytes()
        assert stats.std.tobytes() == np.squeeze(std, axis=-3).tobytes()

    def test_batched_stats_shape(self):
        x = np.random.default_rng(1).normal(size=(4, 1, 3, 8))
        xn, stats = md.instance_normalize(x)
        assert xn.shape == (4, 1, 3, 8)
        assert stats.mean.shape == (4, 3, 1)


class TestMixers:
    def test_ffn_zero_weights(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        z = [Tensor(np.zeros(s)) for s in [(4, 8), (8,), (8, 4), (4,)]]
        np.testing.assert_array_equal(md.feed_forward(x, *z).data,
                                      np.zeros((2, 3, 4)))

    def test_ct_mlp_zero_weights(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        z = [Tensor(np.zeros(s)) for s in [(6, 5), (5,), (5, 6), (6,)]]
        np.testing.assert_array_equal(md.ct_mlp(x, *z).data, np.zeros((2, 3, 4)))

    def test_ct_mlp_width_mismatch(self):
        x = Tensor(np.zeros((2, 3, 4)))
        z = [Tensor(np.zeros(s)) for s in [(7, 5), (5,), (5, 7), (7,)]]
        with pytest.raises(ValueError):
            md.ct_mlp(x, *z)

    def test_ct_mlp_mixes_channels(self):
        rng = np.random.default_rng(2)
        C, P, D, h = 3, 2, 4, 5
        w = [Tensor(rng.normal(size=(C * P, h))), Tensor(np.zeros(h)),
             Tensor(rng.normal(size=(h, C * P))), Tensor(np.zeros(C * P))]
        x = rng.normal(size=(C, P, D))
        perm = [2, 0, 1]
        a = md.ct_mlp(Tensor(x), *w).data[perm]
        b = md.ct_mlp(Tensor(x[perm]), *w).data
        assert np.max(np.abs(a - b)) > 1e-6


class TestConfig:
    def test_defaults_valid(self):
        md.ModelConfig(C=7, L=96, T=96).validate()

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            md.ModelConfig(C=1, L=10, T=4, patch_len=3).validate()
        with pytest.raises(ValueError):
            md.ModelConfig(C=1, L=8, T=4, d=2, patch_len=4,
                           heads=3, aware_heads=1).validate()
        with pytest.raises(ValueError):
            md.ModelConfig(C=1, L=8, T=4, heads=4, aware_heads=3).validate()

    @pytest.mark.parametrize("field, value", [
        ("heads", 0), ("aware_heads", 0), ("h", 0), ("batch_size", 0),
        ("batch_size", -1), ("epochs", 0), ("k", -1), ("k", 0), ("k", 2),
        ("ffn_hidden", 0), ("seed", -1), ("lr", -1e-3), ("lr", float("nan")),
        ("lr", float("inf")), ("patience", 0), ("patience", -3),
    ])
    def test_out_of_range_rejected(self, field, value):
        cfg = micro_config(**{field: value})
        with pytest.raises(ValueError, match=rf"^config: {field} "):
            cfg.validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            md.ModelConfig.from_dict({"C": 1, "L": 8, "T": 4, "bogus": 1})

    @pytest.mark.parametrize("stored, message", [
        (3, "must be an object, got int"),
        ([1], "must be an object, got list"),
        (None, "must be an object, got NoneType"),
        ({"L": 8, "T": 4}, "missing keys ['C']"),
        ({"C": 1}, "missing keys ['L', 'T']"),
    ])
    def test_malformed_stored_config_rejected(self, stored, message):
        with pytest.raises(ValueError, match=re.escape(f"config: {message}")):
            md.ModelConfig.from_dict(stored)

    @pytest.mark.parametrize("field, value", [
        ("C", "2"), ("L", 8.0), ("C", True), ("scales", "44"),
        ("scales", [4.0]), ("ffn_hidden", 8.5), ("lr", "1e-3"),
        ("dropout", False), ("variant", 1), ("use_wconv", 1),
    ])
    def test_wrong_type_rejected(self, field, value):
        stored = {**micro_config().to_dict(), field: value}
        with pytest.raises(ValueError, match=rf"^config: {field} must be"):
            md.ModelConfig.from_dict(stored)

    def test_numeric_fields_accept_int_or_float(self):
        cfg = md.ModelConfig.from_dict({**micro_config().to_dict(),
                                        "lr": 1, "dropout": 0,
                                        "scales": (4,)})
        assert (cfg.lr, cfg.dropout, cfg.scales) == (1, 0, (4,))

    def test_dict_round_trip(self):
        cfg = micro_config()
        again = md.ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_roll_schedule(self):
        cfg = md.ModelConfig(C=1, L=32, T=4, d=2, n_layers=4, patch_len=4,
                             heads=2, aware_heads=2)
        assert [cfg.roll_at(l) for l in range(4)] == [0, 4, 0, 4]
        # the linear-patch ablation runs the same layers without a shift
        flat = replace(cfg, use_wconv=False)
        assert [flat.roll_at(l) for l in range(4)] == [0, 0, 0, 0]


class TestParamStore:
    @pytest.mark.parametrize("kw", [
        {},
        {"variant": "twins_plus"},
        {"variant": "mhsa"},
        {"use_ctmlp": False},
        {"use_wconv": False},
        {"n_layers": 3, "L": 24, "patch_len": 4, "T": 6},
    ])
    def test_count_formula(self, kw):
        cfg = micro_config(**kw)
        model = md.TwinSModel(cfg)
        count = sum(t.size for t in model.params.values())
        assert count == expected_param_count(cfg)

    def test_keyless_has_no_qk(self):
        model = md.TwinSModel(micro_config(variant="twins"))
        assert "layers.0.attn.w_q" not in model.params
        assert "layers.0.attn.w_v" in model.params

    def test_seed_determinism(self):
        a = md.TwinSModel(micro_config())
        b = md.TwinSModel(micro_config())
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_paa_disabled_is_mhsa_store(self):
        # configs stored before the flag was folded into variant
        stored = micro_config(variant="twins_plus").to_dict()
        cfg = md.ModelConfig.from_dict({**stored, "use_paa": False})
        assert cfg.variant == "mhsa"
        model = md.TwinSModel(cfg)
        assert "layers.0.subnet.dw" not in model.params
        assert "layers.0.attn.w_q" in model.params
        kept = md.ModelConfig.from_dict({**stored, "use_paa": True})
        assert kept == micro_config(variant="twins_plus")


class TestForward:
    def test_shape_single(self):
        model = md.TwinSModel(micro_config())
        out = model.forward(np.random.default_rng(0).normal(size=(1, 2, 8)))
        assert out.shape == (2, 4)

    def test_shape_batched(self):
        model = md.TwinSModel(micro_config())
        out = model.forward(np.random.default_rng(1).normal(size=(5, 1, 2, 8)))
        assert out.shape == (5, 2, 4)

    @pytest.mark.parametrize("patch", [4, 8, 12])
    @pytest.mark.parametrize("heads", [4, 8])
    @pytest.mark.parametrize("variant", ["mhsa", "twins", "twins_plus"])
    def test_shape_grid(self, patch, heads, variant):
        cfg = md.ModelConfig(C=3, L=96, T=24, d=8, patch_len=patch,
                             heads=heads, aware_heads=4, h=16,
                             ffn_hidden=32, variant=variant, n_layers=2)
        model = md.TwinSModel(cfg)
        with ad.no_grad():
            out = model.forward(np.random.default_rng(2).normal(size=(1, 3, 96)))
        assert out.shape == (3, 24)

    def test_zero_model_predicts_lookback_mean(self):
        model = md.TwinSModel(micro_config(variant="twins_plus"))
        zero_weights(model)
        x = np.random.default_rng(3).normal(size=(1, 2, 8)) * 3 + 5
        with ad.no_grad():
            out = model.forward(x)
        expect = np.broadcast_to(x.mean(axis=-1).reshape(2, 1), (2, 4))
        np.testing.assert_allclose(out.data, expect, atol=1e-9)

    def test_zero_sublayers_make_layer_identity(self):
        model = md.TwinSModel(micro_config())
        zero_weights(model)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 8, 2)))
        h = pt.window_unfold(x, model.config.patch_len).data
        with ad.no_grad():
            out = model._residual_block(h, 0)
        np.testing.assert_allclose(out.data, h.data, atol=1e-12)

    def test_wrong_input_shape(self):
        model = md.TwinSModel(micro_config())
        for shape in [(1, 3, 8), (2, 8), (8,), ()]:  # the last three: too few axes
            with pytest.raises(ValueError, match="does not match config"):
                model.forward(np.zeros(shape))

    def test_mismatched_variant_outputs_differ(self):
        x = np.random.default_rng(5).normal(size=(1, 2, 8))
        outs = []
        for v in ["mhsa", "twins", "twins_plus"]:
            with ad.no_grad():
                outs.append(md.TwinSModel(micro_config(variant=v)).forward(x).data)
        assert np.max(np.abs(outs[0] - outs[1])) > 1e-9
        assert np.max(np.abs(outs[1] - outs[2])) > 1e-9

    @pytest.mark.parametrize("variant, attention", [
        ("mhsa", ["mhsa"]),
        ("twins", ["paa_scores", "twins_attention"]),
        ("twins_plus", ["paa_scores", "twins_plus_attention"]),
    ])
    def test_blocks_called_through_module_attributes(self, monkeypatch,
                                                     variant, attention):
        # a profiler that swaps these attributes sees every layer's call
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapped)

        for name in ("feed_forward", "ct_mlp"):
            spy(md, name)
        for name in ("mhsa", "paa_scores", "twins_attention",
                     "twins_plus_attention"):
            spy(at, name)
        model = md.TwinSModel(micro_config(variant=variant, n_layers=2,
                                           L=16, patch_len=4))
        probe = {}
        model.forward(np.random.default_rng(3).normal(size=(2, 1, 2, 16)),
                      probe=probe)
        assert calls == 2 * (attention + ["feed_forward", "ct_mlp"])
        assert list(probe) == ["attn_layers"]


class TestEquivariance:
    def run_perm(self, use_ctmlp):
        cfg = micro_config(C=3, variant="twins_plus", use_ctmlp=use_ctmlp, h=8)
        model = md.TwinSModel(cfg)
        x = np.random.default_rng(6).normal(size=(1, 3, 8))
        perm = [2, 0, 1]
        with ad.no_grad():
            a = model.forward(x).data[perm]
            b = model.forward(x[:, perm, :]).data
        return a, b

    def test_without_mixer_exact(self):
        a, b = self.run_perm(use_ctmlp=False)
        np.testing.assert_array_equal(a, b)

    def test_with_mixer_not_equivariant(self):
        a, b = self.run_perm(use_ctmlp=True)
        assert np.max(np.abs(a - b)) > 1e-9

    @staticmethod
    def series():
        """Five (1, C=3, L=16) windows: per channel, std 0.01, 1 and 30
        about means 5, -1 and 100."""
        rng = np.random.default_rng(11)
        return (rng.normal(size=(5, 1, 3, 16)) * np.c_[[0.01, 1.0, 30.0]]
                + np.c_[[5.0, -1.0, 100.0]])

    @pytest.mark.parametrize("variant", md.VARIANTS)
    @pytest.mark.parametrize("a", [0.1, 3.0, 1000.0])
    def test_affine_equivariance(self, variant, a):
        # instance norm (RevIN) makes forecast(a x + b) = a forecast(x) + b
        # per channel, but for its eps: for a channel of std s the
        # normalized input changes by the relative factor
        #   (s + eps) / (s + eps / a) - 1, at most delta = eps |1 - 1/a| / s,
        # and so does the denormalizing scale a (s + eps) - eps (a - 1).
        # The channels meet inside the model, so each forecast may move by
        # the largest delta of any channel, times its scale a (s + eps)
        # and the normalized forecast's magnitude; "1 +" leaves the model
        # room to pass its relative input change on, up to one unit.
        x = self.series()
        b = np.c_[[2.0, -7.0, 0.5]]
        model = md.TwinSModel(micro_config(C=3, L=16, n_layers=2,
                                           variant=variant))
        with ad.no_grad():
            y = model.forward(x).data
            y_ab = model.forward(a * x + b).data
        eps = md.INSTANCE_EPS
        mean, std = x.mean(axis=-1), x.std(axis=-1)        # (5, 1, 3)
        mean, std = mean.swapaxes(-1, -2), std.swapaxes(-1, -2)
        delta = (eps * abs(1.0 - 1.0 / a) / std).max(axis=-2, keepdims=True)
        f = np.abs(y - mean) / (std + eps)              # normalized forecast
        tol = a * (std + eps) * delta * (1.0 + f.max(axis=(-2, -1),
                                                     keepdims=True))
        dev = np.abs(y_ab - (a * y + b))
        assert (dev <= tol).all(), f"{(dev / tol).max():.2f} tolerances off"

    @pytest.mark.parametrize("variant", md.VARIANTS)
    def test_affine_equivariance_exact_without_eps(self, variant,
                                                   monkeypatch):
        # with eps = 0 a power-of-two scale is exact in every step of the
        # norm, the model and the denormalization
        monkeypatch.setattr(md, "INSTANCE_EPS", 0.0)
        x = self.series()
        model = md.TwinSModel(micro_config(C=3, L=16, n_layers=2,
                                           variant=variant))
        with ad.no_grad():
            y, y4 = (model.forward(s * x).data for s in (1.0, 4.0))
        np.testing.assert_array_equal(y4, 4.0 * y)


class TestComposition:
    def test_mhsa_layer_matches_hand_assembly(self):
        """One layer, dot-product attention, no mixer, assembled two ways."""
        from twins import attention as at
        cfg = micro_config(variant="mhsa", use_ctmlp=False)
        model = md.TwinSModel(cfg)
        par = model.params
        x = Tensor(np.random.default_rng(8).normal(size=(2, 8, 2)))
        with ad.no_grad():
            pm = pt.window_unfold(x, cfg.patch_len)
            got = pt.window_fold(replace(pm, data=model._residual_block(
                pm.data, 0)))
            h = pm.data
            z = ad.layer_norm(h, par["layers.0.ln1.g"], par["layers.0.ln1.b"])
            h = ad.add(h, at.mhsa(z, model.attention_weights(0)))
            z = ad.layer_norm(h, par["layers.0.ln2.g"], par["layers.0.ln2.b"])
            h = ad.add(h, md.feed_forward(z, par["layers.0.ffn.w1"],
                                          par["layers.0.ffn.b1"],
                                          par["layers.0.ffn.w2"],
                                          par["layers.0.ffn.b2"]))
            want = pt.window_fold(replace(pm, data=h))
        np.testing.assert_allclose(got.data, want.data, atol=1e-9)


class TestModelGradients:
    def test_micro_model_fd(self):
        cfg = micro_config(variant="twins")
        model = md.TwinSModel(cfg)
        x = np.random.default_rng(9).normal(size=(1, 2, 8))
        target = Tensor(np.random.default_rng(10).normal(size=(2, 4)))

        def f():
            return ad.mse(model.forward(x), target)

        ok, err = gc.gradcheck(f, model.parameters())
        assert ok, f"rel err {err:.3e}"

    @pytest.mark.parametrize("variant", md.VARIANTS)
    def test_parameter_gradients_own_their_memory(self, variant):
        # gradients are stored without a copy, so no two may be one array
        cfg = micro_config(variant=variant, n_layers=2, L=16, patch_len=4)
        model = md.TwinSModel(cfg)
        rng = np.random.default_rng(12)
        pred = model.forward(rng.normal(size=(3, 1, 2, 16)), training=True)
        ad.backward(ad.mse(pred, Tensor(rng.normal(size=(3, 2, 4)))))
        grads = [(name, t.grad) for name, t in model.params.items()]
        for i, (n1, g1) in enumerate(grads):
            for n2, g2 in grads[i + 1:]:
                assert not np.shares_memory(g1, g2), (n1, n2)

    @pytest.mark.parametrize("kw", [
        {}, {"scales": [4, 2]}, {"scales": [2, 4]},
        {"use_ctmlp": False}, {"use_wconv": False},
    ], ids=["uniform", "scales_4_2", "scales_2_4", "no_ctmlp", "no_wconv"])
    @pytest.mark.parametrize("variant", md.VARIANTS)
    def test_no_dead_gradient_column(self, variant, kw):
        # a column that no forward reads would never train
        cfg = micro_config(variant=variant, n_layers=2, L=16, patch_len=4,
                           **kw)
        model = md.TwinSModel(cfg)
        rng = np.random.default_rng(14)
        pred = model.forward(rng.normal(size=(3, 1, 2, 16)))
        ad.backward(ad.mse(pred, Tensor(rng.normal(size=(3, 2, 4)))))
        for name, t in model.params.items():
            cols = t.grad.reshape(-1, t.shape[-1])
            assert np.all(np.any(cols != 0.0, axis=0)), name

    def test_probe_captures_attention(self):
        model = md.TwinSModel(micro_config(n_layers=2, L=16, patch_len=4))
        probe = {}
        with ad.no_grad():
            model.forward(np.random.default_rng(11).normal(size=(1, 2, 16)),
                          probe=probe)
        assert len(probe["attn_layers"]) == 2
        a0 = probe["attn_layers"][0]
        assert a0.shape == (2, 2, 4, 4)   # (M, C, P, P)
        np.testing.assert_allclose(a0.sum(axis=-1), np.ones((2, 2, 4)),
                                   atol=1e-9)


class TestGraphMemory:
    """A recorded forward keeps only the arrays that backward reads."""

    @staticmethod
    def batch(cfg, n=32):
        rng = np.random.default_rng(21)
        return (rng.normal(size=(n, 1, cfg.C, cfg.L)),
                Tensor(rng.normal(size=(n, cfg.C, cfg.T))))

    def test_residual_and_norm_inputs_freed(self, monkeypatch):
        cfg = md.ModelConfig(**GATE)
        x, y = self.batch(cfg)
        reference = md.TwinSModel(cfg)
        ad.backward(ad.mse(reference.forward(x, training=True), y))

        watched = []

        def watch(op):
            def first_input_watched(a, *rest):
                watched.append((op.__name__, weakref.ref(a.data)))
                return op(a, *rest)
            return first_input_watched

        monkeypatch.setattr(ad, "add", watch(ad.add))
        monkeypatch.setattr(ad, "layer_norm", watch(ad.layer_norm))
        model = md.TwinSModel(cfg)
        loss = ad.mse(model.forward(x, training=True), y)
        assert {name for name, _ in watched} == {"add", "layer_norm"}
        assert [name for name, ref in watched if ref() is not None] == []
        ad.backward(loss)
        for name, p in model.params.items():
            assert np.array_equal(p.grad, reference.params[name].grad), name

    def test_graph_bytes_after_gate_forward(self):
        cfg = md.ModelConfig(**GATE)
        x, y = self.batch(cfg)
        model = md.TwinSModel(cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = ad.mse(model.forward(x, training=True), y)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 20 * 2 ** 20, f"graph holds {held / 2 ** 20:.1f} MiB"
        ad.backward(loss)

    @pytest.mark.parametrize("use_wconv", [True, False])
    def test_forward_peak_near_graph(self, use_wconv):
        # a recorded forward peaks at 28.2 maps with the wavelet embedding
        # and 28.0 without: the graph it leaves, 21.8 and 21.7 maps in
        # which each MLP keeps only its GELU's CDF, plus 6.4 and 6.3 maps
        # in flight. Dropped maps (branch outputs, normed inputs, the layer
        # input) go as soon as they are used. One more map kept or left
        # alive breaks the bound; a GELU that kept its derivative and its
        # output peaked at 36.9 and 36.7 maps
        cfg = md.ModelConfig(**GATE, use_wconv=use_wconv)
        x, y = self.batch(cfg)
        model = md.TwinSModel(cfg)
        one_map = x.shape[0] * cfg.C * cfg.L * cfg.d * 8
        tracemalloc.start()
        try:
            pred = model.forward(x, training=True)
            peak = tracemalloc.get_traced_memory()[1] / one_map
        finally:
            tracemalloc.stop()
        assert peak <= 29.0, f"forward peaks at {peak:.2f} maps"
        ad.backward(ad.mse(pred, y))


# the ETTh1 model of the infer benchmark
ETTH1 = dict(C=7, L=96, T=96, d=16, h=128, variant="twins")
# the model of the tiny training tests: 1 KiB of residual map per window
TINY = dict(C=1, L=32, T=8, d=4, num_scales=2, n_layers=1, patch_len=4,
            heads=2, aware_heads=2, h=8, ffn_hidden=16, variant="twins")


class TestChunkedInference:
    """A no-grad forward runs in balanced chunks of windows and gives what
    one batch or single windows give."""

    ROWS = md.chunk_windows(md.ModelConfig(**ETTH1))

    def test_chunk_size_from_config(self):
        assert self.ROWS == 6
        assert md.chunk_windows(md.ModelConfig(**GATE)) == 42
        huge = md.ModelConfig(C=64, L=512, T=8, d=64, patch_len=64, h=8)
        assert md.chunk_windows(huge) == 1

    @pytest.mark.parametrize("shape, n, chunks", [
        (ETTH1, 2, 1), (ETTH1, 3, 1), (ETTH1, 4, 2), (ETTH1, 32, 6),
        (GATE, 21, 1), (GATE, 22, 2), (GATE, 25, 2), (GATE, 64, 2),
        (TINY, 32, 1), (TINY, 255, 1), (TINY, 256, 2)])
    def test_split_floor(self, shape, n, chunks):
        # a batch that fits one chunk splits in two only when each half's
        # residual map reaches CHUNK_BYTES / 4 (128 KiB): 84 KiB per window
        # at the ETTh1 shape, 12 KiB at the gate shape and 1 KiB on TINY
        assert len(md.chunk_slices(n, md.ModelConfig(**shape))) == chunks

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 600),
           shape=st.sampled_from([GATE, ETTH1, TINY]))
    def test_chunk_rule(self, n, shape, chunk_workers):
        cfg = md.ModelConfig(**shape)
        rows = md.chunk_windows(cfg)
        chunks = md.chunk_slices(n, cfg)
        # contiguous and covering range(n), in order
        bounds = [0] + [s.stop for s in chunks]
        assert [s.start for s in chunks] == bounds[:-1] and bounds[-1] == n
        sizes = [s.stop - s.start for s in chunks]
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert all(1 <= k <= rows for k in sizes)
        # two chunks at least once each half of the batch is worth a CPU
        halves = n // 2 * md._window_bytes(cfg) >= md.CHUNK_BYTES // 4
        least = 2 if halves else min(n, 1)
        assert len(chunks) >= least
        # no chunk more than needed: one fewer would overflow ``rows``
        assert len(chunks) <= least or (len(chunks) - 1) * rows < n
        for workers in (1, 2, 4):
            chunk_workers(workers)
            assert md.chunk_slices(n, cfg) == chunks

    def test_empty_batch(self):
        cfg = md.ModelConfig(**GATE)
        model = md.TwinSModel(cfg)
        with ad.no_grad():
            got = model.forward(np.zeros((0, 1, cfg.C, cfg.L)))
        assert got.shape == (0, cfg.C, cfg.T)

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           variant=st.sampled_from(md.VARIANTS), use_wconv=st.booleans())
    @pytest.mark.parametrize("lead", [
        (1,), (ROWS - 1,), (ROWS,), (ROWS + 1,), (3 * ROWS + 2,), (2, 3)])
    def test_batched_equals_single_windows(self, lead, seed, variant,
                                           use_wconv):
        cfg = md.ModelConfig(**dict(ETTH1, variant=variant,
                                    use_wconv=use_wconv))
        model = md.TwinSModel(cfg)
        x = np.random.default_rng(seed).normal(size=lead + (1, cfg.C, cfg.L))
        with ad.no_grad():
            got = model.forward(x).data
            singles = np.stack([model.forward(w).data
                                for w in x.reshape(-1, 1, cfg.C, cfg.L)])
        assert got.shape == lead + (cfg.C, cfg.T)
        assert gc.rel_error(got, singles.reshape(got.shape)) <= 1e-12

    def test_chunked_matches_one_batch(self, monkeypatch):
        model = md.TwinSModel(md.ModelConfig(**ETTH1))
        x = np.random.default_rng(3).normal(size=(3 * self.ROWS + 5, 1, 7, 96))
        with ad.no_grad():
            got = model.forward(x).data
            monkeypatch.setattr(md, "CHUNK_BYTES", 2 ** 40)
            whole = model.forward(x).data
        assert gc.rel_error(got, whole) <= 1e-12

    @pytest.mark.parametrize("how", ["recorded", "training", "probe"])
    def test_only_plain_no_grad_passes_chunked(self, how, monkeypatch):
        model = md.TwinSModel(md.ModelConfig(**ETTH1))
        x = np.random.default_rng(4).normal(size=(self.ROWS + 1, 1, 7, 96))
        batches = []
        chunk = model._forward_chunk

        def counted_chunk(xs, *rest):
            batches.append(xs.shape[0])
            return chunk(xs, *rest)

        monkeypatch.setattr(model, "_forward_chunk", counted_chunk)
        if how == "recorded":
            model.forward(x)
        elif how == "training":
            with ad.no_grad():
                model.forward(x, training=True)
        else:
            with ad.no_grad():
                model.forward(x, probe={})
        assert batches == [self.ROWS + 1]
        batches.clear()
        with ad.no_grad():
            model.forward(x)
        # two chunks as near equal as can be; they may run on workers, so
        # they may start in any order
        assert sorted(batches) == [self.ROWS // 2, self.ROWS // 2 + 1]

    def test_peak_independent_of_batch(self):
        # one full chunk runs on each worker at once, so the reference is a
        # pass of one full chunk per worker, and two on one CPU
        model = md.TwinSModel(md.ModelConfig(**ETTH1))
        x = np.random.default_rng(5).normal(size=(256, 1, 7, 96))
        peaks = []
        with ad.no_grad():
            for n in (max(2, md._cpus()) * self.ROWS, 256):
                tracemalloc.start()
                try:
                    model.forward(x[:n])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], [
            p / 2 ** 20 for p in peaks]


class TestParallelChunks:
    """Chunks run on one worker per CPU and give the bits of one worker."""

    ROWS = md.chunk_windows(md.ModelConfig(**ETTH1))

    @pytest.mark.parametrize("variant", ["twins", "twins_plus"])
    def test_no_grad_forward_same_bits_at_any_worker_count(
            self, variant, chunk_workers):
        model = md.TwinSModel(md.ModelConfig(**dict(ETTH1, variant=variant)))
        x = np.random.default_rng(8).normal(size=(3 * self.ROWS + 2, 1, 7, 96))
        got = []
        for n in (2, 1):
            chunk_workers(n)
            with ad.no_grad():
                got.append(model.forward(x).data)
        np.testing.assert_array_equal(got[0], got[1])

    def test_mac_count_exact_with_workers(self, chunk_workers):
        # every op of every chunk is counted once while the chunks run on
        # more workers than there are cores; TestMacCounting in
        # test_autodiff.py races the counter itself
        chunk_workers(4)
        model = md.TwinSModel(md.ModelConfig(**ETTH1))
        x = np.random.default_rng(9).normal(size=(3 * self.ROWS, 1, 7, 96))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        ad.enable_mac_counting(True)
        try:
            with ad.no_grad():
                ad.reset_mac_count()
                model.forward(x[:self.ROWS])
                one = ad.mac_count()
                for _ in range(20):
                    ad.reset_mac_count()
                    model.forward(x)
                    assert ad.mac_count() == 3 * one
        finally:
            sys.setswitchinterval(interval)
            ad.enable_mac_counting(False)
            ad.reset_mac_count()


# general numpy helpers whose shape bookkeeping cost more than the
# arithmetic of a batch-1 forecast
SHAPE_HELPERS = {"numpy": {"prod", "argsort", "pad", "roll", "full",
                           "broadcast_shapes", "sliding_window_view"},
                 "dataclasses": {"replace"}}


def test_batch1_forecast_calls_no_shape_helpers():
    model = md.TwinSModel(md.ModelConfig(**GATE))
    x = np.random.default_rng(6).normal(size=(1, 2, 96))
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            seen.add((module.partition(".")[0], frame.f_code.co_name))
        elif event == "c_call":  # a C function, or a method of a C type
            module = getattr(arg, "__module__", None) or type(
                getattr(arg, "__self__", None)).__module__
            seen.add((module.partition(".")[0], arg.__name__))

    with ad.no_grad():
        sys.setprofile(record)
        try:
            model.forward(x)
        finally:
            sys.setprofile(None)
    assert ("twins", "linear") in seen and ("twins", "roll") in seen
    called = {(m, f) for m, f in seen if f in SHAPE_HELPERS.get(m, ())}
    assert not called, sorted(called)
