"""Training loop, evaluation, baselines, and the checkpoint container."""

import json
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins import _blas
from twins import autodiff as ad
from twins import data as dt
from twins import gradcheck as gc
from twins import model as md
from twins import training as tr

# the paper's ETTh1 shape, where a batch of windows runs 6 at a time, and
# the tier-1 learning gate's, where a batch of up to 42 is one chunk
ETTH1 = dict(C=7, L=96, T=96, d=16, h=128)
GATE = dict(C=2, L=96, T=24, d=8, h=64, lr=1e-3)
ROWS = md.chunk_windows(md.ModelConfig(**ETTH1))


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

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_metrics_independent_of_batch_size(self, seed):
        # the ETTh1 shape, where a no-grad pass runs 12 windows at a time;
        # 70 windows make batch 64 two batches and chunk it unevenly
        cfg = md.ModelConfig(C=7, L=96, T=96, d=16, h=128, seed=seed % 1000)
        model = md.TwinSModel(cfg)
        split = np.random.default_rng(seed).normal(
            size=(cfg.C, cfg.L + cfg.T - 1 + 70))
        got = [tr.evaluate(model, split, cfg.L, cfg.T, batch_size=b)
               for b in (1, 7, 64, 70)]
        for m in got[1:]:
            assert m.mse == pytest.approx(got[0].mse, rel=1e-12, abs=0)
            assert m.mae == pytest.approx(got[0].mae, rel=1e-12, abs=0)

    def test_peak_near_one_batch_forward(self):
        # 2690 windows, the size of ETTh1's test split: as whole arrays they
        # would take 28 MiB whatever the model, so a light model keeps the
        # test quick without hiding them
        cfg = md.ModelConfig(C=7, L=96, T=96, d=4, h=16, n_layers=1)
        model = md.TwinSModel(cfg)
        split = np.random.default_rng(0).normal(size=(cfg.C, 2881))
        x = np.random.default_rng(1).normal(size=(64, 1, cfg.C, cfg.L))
        peaks = []
        for run in (lambda: model.forward(x),
                    lambda: tr.evaluate(model, split, cfg.L, cfg.T, 64)):
            tracemalloc.start()
            try:
                with ad.no_grad():
                    run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], [p / 2 ** 20 for p in peaks]


def etth1_shaped_dataset(n_windows, seed):
    """Random splits with ``n_windows`` training windows and 9 validation
    windows at the ETTh1 shape."""
    rng = np.random.default_rng(seed)
    split = lambda n: rng.normal(size=(7, 96 + 96 - 1 + n))
    return dt.SplitDataset(train=split(n_windows), val=split(9),
                           test=split(9), mean=np.zeros((7, 1)),
                           scale=np.ones((7, 1)))


def one_pass_gradients(model, x, y):
    """Loss and gradients of one recorded pass over the whole batch."""
    model.zero_grad()
    loss = ad.mse(model.forward(x, training=True), ad.Tensor(y))
    ad.backward(loss)
    return loss.item(), {k: np.array(t.grad) for k, t in model.params.items()}


class TestBatchGradients:
    """A training step runs in chunks of windows and accumulates what one
    recorded pass over the batch gives."""

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           variant=st.sampled_from(md.VARIANTS))
    @pytest.mark.parametrize("batch", [1, ROWS - 1, ROWS, ROWS + 1,
                                       3 * ROWS + 2])
    def test_chunked_matches_one_pass(self, batch, seed, variant):
        model = md.TwinSModel(md.ModelConfig(**ETTH1, variant=variant,
                                             seed=seed % 1000))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, 1, 7, 96))
        y = rng.normal(size=(batch, 7, 96))
        want_loss, want = one_pass_gradients(model, x, y)
        loss = tr.batch_gradients(model, x, y)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        for name, t in model.params.items():
            assert gc.rel_error(t.grad, want[name]) <= 1e-12, name

    @pytest.mark.parametrize("variant", md.VARIANTS)
    def test_one_chunk_is_one_pass(self, variant):
        # a gate-shape batch of 32 is one chunk: the same ops, the same bits
        model = md.TwinSModel(md.ModelConfig(**GATE, variant=variant))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 1, 2, 96))
        y = rng.normal(size=(32, 2, 24))
        want_loss, want = one_pass_gradients(model, x, y)
        assert tr.batch_gradients(model, x, y) == want_loss
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.grad, want[name], err_msg=name)

    def test_peak_independent_of_batch(self):
        # one chunk runs on each worker at once, so the reference is one
        # chunk's peak per worker
        model = md.TwinSModel(md.ModelConfig(**ETTH1, variant="twins_plus"))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 1, 7, 96))
        y = rng.normal(size=(128, 7, 96))
        peaks = []
        for n in (ROWS, 128):
            tracemalloc.start()
            try:
                tr.batch_gradients(model, x[:n], y[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * md._cpus() * peaks[0], [
            p / 2 ** 20 for p in peaks]

    def test_nan_in_later_chunk_aborts_before_its_backward(self, monkeypatch):
        # a NaN at the last step of the train split reaches only the last
        # window's target; pick the seed whose first shuffle (train draws
        # it from seed + 1000) puts that window in a batch's second chunk
        n, batch = 5 * ROWS, 2 * ROWS

        def place(seed):
            pos = int(np.flatnonzero(np.random.default_rng(
                seed + 1000).permutation(n) == n - 1)[0])
            return pos // batch, pos % batch // ROWS

        seed = next(s for s in range(100) if place(s)[1] == 1)
        want_batch = place(seed)[0]
        ds = etth1_shaped_dataset(n, seed=4)
        ds.train[3, -1] = np.nan
        calls = []
        real_backward = ad.backward

        def counting_backward(loss):
            calls.append(loss)
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", counting_backward)
        cfg = md.ModelConfig(**ETTH1, batch_size=batch, epochs=2, seed=seed)
        with pytest.raises(tr.TrainAbort) as err:
            tr.train(cfg, ds, eval_test=False)
        assert (err.value.epoch, err.value.batch) == (0, want_batch)
        # every chunk before the poisoned one ran its backward; it did not
        assert len(calls) == 2 * want_batch + 1

    def test_dropout_repeats_per_seed(self, chunk_workers):
        # each chunk of a batch draws its dropout masks from a generator
        # spawned from the model's in chunk order, so a seed still fixes
        # every bit, at either worker count
        ds = etth1_shaped_dataset(30, seed=5)
        cfg = md.ModelConfig(**ETTH1, dropout=0.1, batch_size=2 * ROWS,
                             epochs=1)
        for workers in (1, 2):
            chunk_workers(workers)
            runs = [tr.train(cfg, ds, eval_test=False) for _ in range(2)]
            (m1, h1), (m2, h2) = runs
            assert [r.train_loss for r in h1.records] == \
                [r.train_loss for r in h2.records]
            assert h1.best_val_mse == h2.best_val_mse
            for name, t in m1.params.items():
                np.testing.assert_array_equal(t.data, m2.params[name].data)


class TestParallelChunks:
    """The chunks of a step run on replicas of the model, one per CPU at a
    time, and give the bits of one worker."""

    @pytest.mark.parametrize("variant,dropout", [
        ("twins", 0.0), ("twins_plus", 0.0), ("twins_plus", 0.1)])
    def test_same_bits_at_any_worker_count(self, variant, dropout,
                                           chunk_workers):
        x = np.random.default_rng(6).normal(size=(3 * ROWS + 2, 1, 7, 96))
        y = np.random.default_rng(7).normal(size=(3 * ROWS + 2, 7, 96))
        runs = []
        for n in (2, 1):
            chunk_workers(n)
            model = md.TwinSModel(md.ModelConfig(**ETTH1, variant=variant,
                                                 dropout=dropout))
            losses = [tr.batch_gradients(model, x, y) for _ in range(2)]
            runs.append((losses, {k: t.grad for k, t in model.params.items()}))
        (losses2, grads2), (losses1, grads1) = runs
        assert losses2 == losses1
        for name, g in grads1.items():
            np.testing.assert_array_equal(grads2[name], g, err_msg=name)

    def test_nan_in_second_of_three_chunks(self, chunk_workers, monkeypatch):
        chunk_workers(2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3 * ROWS, 1, 7, 96))
        y = rng.normal(size=(3 * ROWS, 7, 96))
        y[ROWS + 1, 0, 0] = np.nan
        want = md.TwinSModel(md.ModelConfig(**ETTH1))
        with _blas.one_thread():  # as every chunk of a step runs
            tr._chunk_gradients(want, x[:ROWS], y[:ROWS], 1 / 3)
        running, finished = [], []
        chunk_gradients = tr._chunk_gradients

        def slow_chunk(model, xs, ys, share):
            running.append(1)
            lv = chunk_gradients(model, xs, ys, share)
            time.sleep(0.2)  # the later chunks still run when the NaN is seen
            running.pop()
            finished.append(1)
            return lv

        monkeypatch.setattr(tr, "_chunk_gradients", slow_chunk)
        model = md.TwinSModel(md.ModelConfig(**ETTH1))
        assert np.isnan(tr.batch_gradients(model, x, y))
        assert not running and len(finished) >= 2
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.grad, want.params[name].grad,
                                          err_msg=name)


class TestTrain:
    def test_loss_halves_on_pure_sinusoid(self):
        ds = tiny_dataset(seed=2)
        cfg = tiny_config(epochs=20)
        _, hist = tr.train(cfg, ds, eval_test=False)
        first = hist.records[0].train_loss
        best = min(r.train_loss for r in hist.records)
        assert best <= 0.5 * first, f"{best} vs initial {first}"

    def test_train_windows_once_and_evaluate_per_epoch(self, monkeypatch):
        # validation runs through ``evaluate`` itself, so whatever wraps
        # ``training.evaluate`` sees it
        windows, evaluated = [], []
        real_evaluate = tr.evaluate

        def counting_windows(values, *args, **kwargs):
            windows.append(values)
            return dt.window_view(values, *args, **kwargs)

        def counting_evaluate(model, split, *args, **kwargs):
            evaluated.append(split)
            return real_evaluate(model, split, *args, **kwargs)

        monkeypatch.setattr(tr, "window_view", counting_windows)
        monkeypatch.setattr(tr, "evaluate", counting_evaluate)
        ds = tiny_dataset(seed=4)
        _, hist = tr.train(tiny_config(epochs=3, patience=10), ds,
                           eval_test=False)
        assert len(hist.records) == 3
        assert [id(v) for v in evaluated] == [id(ds.val)] * 3
        assert [id(v) for v in windows] == [id(ds.train)] + [id(ds.val)] * 3

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
        def fields(h):
            return [(r.epoch, r.train_loss, r.val_mse, r.val_mae)
                    for r in h.records]
        assert fields(h1) == fields(h2)

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
