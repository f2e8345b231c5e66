"""Training loop, evaluation, baselines, and the checkpoint container."""

import json
import struct

import numpy as np
import pytest

from twins import data as dt
from twins import model as md
from twins import training as tr


def tiny_dataset(length=400, channels=1, period=8, noise=0.0, seed=0):
    raw = dt.synth_multiperiod(length, channels, [(period, 1.0, None)],
                               noise_std=noise, seed=seed)
    return dt.split_standardize(raw)


def tiny_config(**kw):
    base = dict(C=1, L=32, T=8, d=4, num_scales=2, n_layers=1, patch_len=4,
                heads=2, aware_heads=2, h=8, ffn_hidden=16, variant="twins",
                lr=5e-3, epochs=3, batch_size=32, patience=5, seed=3)
    base.update(kw)
    return md.ModelConfig(**base)


class TestEvaluate:
    def test_zero_model_matches_mean_baseline(self):
        ds = tiny_dataset(seed=1)
        cfg = tiny_config()
        model = md.TwinSModel(cfg)
        for t in model.params.values():
            t.data[:] = 0.0
        got = tr.evaluate(model, ds.test, cfg.L, cfg.T)
        want = tr.lookback_mean_baseline(ds.test, cfg.L, cfg.T)
        assert got.mse == pytest.approx(want.mse, rel=1e-9)
        assert got.mae == pytest.approx(want.mae, rel=1e-9)

    def test_constant_series_perfectly_predicted(self):
        raw = dt.RawSeries(["c"], np.full((1, 200), 4.0))
        ds = dt.split_standardize(raw)
        cfg = tiny_config()
        model = md.TwinSModel(cfg)
        for t in model.params.values():
            t.data[:] = 0.0
        m = tr.evaluate(model, ds.test, cfg.L, cfg.T)
        assert m.mse == pytest.approx(0.0, abs=1e-18)

    def test_split_too_short(self):
        model = md.TwinSModel(tiny_config())
        with pytest.raises(ValueError):
            tr.evaluate(model, np.zeros((1, 10)), 32, 8)


class TestTrain:
    def test_loss_halves_on_pure_sinusoid(self):
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=20)
        _, hist = tr.train(cfg, ds, eval_test=False)
        first = hist.records[0].train_loss
        best = min(r.train_loss for r in hist.records)
        assert best <= 0.5 * first, f"{best} vs initial {first}"

    def test_windows_built_once_per_split(self, monkeypatch):
        calls = []

        def counting(values, *args, **kwargs):
            calls.append(values)
            return dt.make_windows(values, *args, **kwargs)

        monkeypatch.setattr(tr, "make_windows", counting)
        ds = tiny_dataset(seed=4)
        _, hist = tr.train(tiny_config(epochs=3, patience=10), ds,
                           eval_test=False)
        assert len(hist.records) == 3
        assert [id(v) for v in calls] == [id(ds.train), id(ds.val)]

    def test_zero_lr_freezes_params(self):
        ds = tiny_dataset()
        cfg = tiny_config(lr=0.0, epochs=2)
        before = md.TwinSModel(cfg)
        model, _ = tr.train(cfg, ds, eval_test=False)
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, before.params[name].data)

    def test_seed_determinism(self):
        ds = tiny_dataset(noise=0.1, seed=4)
        cfg = tiny_config(epochs=2)
        _, h1 = tr.train(cfg, ds, eval_test=False)
        _, h2 = tr.train(cfg, ds, eval_test=False)
        assert h1.comparable() == h2.comparable()

    def test_best_epoch_is_minimum(self):
        ds = tiny_dataset(noise=0.3, seed=5)
        _, hist = tr.train(tiny_config(epochs=4), ds, eval_test=False)
        vals = [r.val_mse for r in hist.records]
        assert hist.best_val_mse == min(vals)
        assert vals[hist.best_epoch] == min(vals)

    def test_early_stopping_bounds_epochs(self):
        ds = tiny_dataset(seed=6)
        cfg = tiny_config(epochs=50, patience=2, lr=0.0)
        _, hist = tr.train(cfg, ds, eval_test=False)
        # zero lr: val never improves after epoch 0, stop after patience
        assert len(hist.records) == 3

    def test_nan_abort(self):
        ds = tiny_dataset(seed=7)
        ds.train[0, 50] = np.nan   # poisoned sample -> non-finite loss
        cfg = tiny_config(epochs=5)
        with pytest.raises(tr.TrainAbort) as err:
            tr.train(cfg, ds, eval_test=False)
        assert err.value.batch >= 0

    def test_log_records(self):
        ds = tiny_dataset(seed=8)
        rows = []
        tr.train(tiny_config(epochs=2), ds, log_fn=rows.append)
        assert len(rows) == 3   # two epochs + final test record
        for r in rows:
            assert set(r) == {"epoch", "train_loss", "val_mse", "val_mae",
                              "test_mse", "test_mae", "seconds"}
        assert rows[0]["epoch"] == 0 and rows[0]["test_mse"] is None
        assert rows[-1]["epoch"] is None and rows[-1]["test_mse"] is not None

    def test_returns_test_metrics(self):
        ds = tiny_dataset(seed=9)
        _, hist = tr.train(tiny_config(epochs=1), ds)
        assert hist.test is not None and hist.test.mse >= 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config(variant="twins_plus")
        model = md.TwinSModel(cfg)
        x = np.random.default_rng(0).normal(size=(1, 1, 32))
        from twins import autodiff as ad
        with ad.no_grad():
            before = model.forward(x).data
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(model, p)
        again = tr.load_checkpoint(p)
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, again.params[name].data)
        with ad.no_grad():
            after = again.forward(x).data
        np.testing.assert_array_equal(before, after)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTHING HERE")
        with pytest.raises(ValueError, match="magic"):
            tr.load_checkpoint(str(p))

    def test_truncated(self, tmp_path):
        cfg = tiny_config()
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(md.TwinSModel(cfg), p)
        blob = open(p, "rb").read()
        open(p, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            tr.load_checkpoint(p)

    def test_config_conflict_names_field(self, tmp_path):
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(md.TwinSModel(tiny_config()), p)
        other = tiny_config(patch_len=8)
        with pytest.raises(ValueError, match="patch_len"):
            tr.load_checkpoint(p, expect_config=other)

    def test_expected_config_with_tuple_scales(self, tmp_path):
        # the CLI builds scales as a tuple; the file stores a JSON list
        cfg = tiny_config(n_layers=2, scales=(4, 2))
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(md.TwinSModel(cfg), p)
        back = tr.load_checkpoint(p, expect_config=cfg)
        assert list(back.config.scales) == [4, 2]
        with pytest.raises(ValueError, match="scales"):
            tr.load_checkpoint(p, expect_config=tiny_config(n_layers=2,
                                                            scales=(2, 4)))

    def test_legacy_paa_flag_loads_as_mhsa(self, tmp_path):
        # older files stored use_paa=false beside the variant it overrode
        cfg = tiny_config(variant="mhsa")
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(cfg), str(p))
        blob = p.read_bytes()
        start = len(tr.CKPT_MAGIC) + 4
        (n,) = struct.unpack("<I", blob[start - 4:start])
        stored = json.loads(blob[start:start + n])
        stored.update(variant="twins", use_paa=False)
        legacy = json.dumps(stored, sort_keys=True).encode()
        p.write_bytes(blob[:start - 4] + struct.pack("<I", len(legacy))
                      + legacy + blob[start + n:])
        back = tr.load_checkpoint(str(p), expect_config=cfg)
        assert back.config == cfg

    def test_duplicate_array_name(self, tmp_path):
        # same name length and shape, so only the repeat betrays the file
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        blob = p.read_bytes()
        assert blob.count(b"layers.0.ln1.b") == 1
        p.write_bytes(blob.replace(b"layers.0.ln1.b", b"layers.0.ln1.g"))
        with pytest.raises(ValueError, match="duplicate array 'layers.0.ln1.g'"):
            tr.load_checkpoint(str(p))

    def test_trailing_garbage(self, tmp_path):
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(md.TwinSModel(tiny_config()), p)
        with open(p, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(ValueError, match="trailing"):
            tr.load_checkpoint(p)
