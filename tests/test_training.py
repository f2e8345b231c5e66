"""Training loop, evaluation, baselines, and the checkpoint container."""

import errno
import json
import os
import re
import struct
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins import autodiff as ad
from twins import data as dt
from twins import gradcheck as gc
from twins import model as md
from twins import training as tr

# the paper's ETTh1 shape, where a batch of windows runs at most 6 at a
# time, and the tier-1 learning gate's, where it runs at most 42 at a time
ETTH1 = dict(C=7, L=96, T=96, d=16, h=128)
GATE = dict(C=2, L=96, T=24, d=8, h=64, lr=1e-3)
ROWS = md.chunk_windows(md.ModelConfig(**ETTH1))


def encode_checkpoint(model):
    """The README's checkpoint layout, built field by field."""
    cfg = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    out = [tr.CKPT_MAGIC, struct.pack("<I", len(cfg)), cfg,
           struct.pack("<I", len(model.params))]
    for name, t in model.params.items():
        nb = name.encode()
        out += [struct.pack("<H", len(nb)), nb, struct.pack("<B", t.ndim)]
        out += [struct.pack("<I", dim) for dim in t.shape]
        out.append(t.data.astype("<f8").tobytes())
    return b"".join(out)


def with_config_header(path, header: bytes) -> None:
    """Replace the config header of the checkpoint at ``path``."""
    blob = path.read_bytes()
    start = len(tr.CKPT_MAGIC) + 4
    (n,) = struct.unpack("<I", blob[start - 4:start])
    path.write_bytes(blob[:start - 4] + struct.pack("<I", len(header))
                     + header + blob[start + n:])


def traced_peak(call):
    """``call()`` and the most memory tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # the ETTh1 shape, where a no-grad pass runs at most 6 windows at a
        # time; 70 windows make batch 64 two batches, chunked differently
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
    def test_one_window_replica_is_one_pass(self, variant):
        # a batch of one window is one chunk on one replica, whose gradients
        # the parameters store as they are: the bits of one recorded pass
        model = md.TwinSModel(md.ModelConfig(**GATE, variant=variant))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 2, 96))
        y = rng.normal(size=(1, 2, 24))
        want_loss, want = one_pass_gradients(model, x, y)
        assert tr.batch_gradients(model, x, y) == want_loss
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.grad, want[name], err_msg=name)

    @pytest.mark.parametrize("variant, dropout", [
        ("mhsa", 0.0), ("twins", 0.0), ("twins_plus", 0.0),
        ("twins_plus", 0.1)])
    def test_rebuilds_change_no_bit(self, variant, dropout, monkeypatch):
        # a rebuilt array must have the bits of the one it stands for, so
        # keeping every array instead gives the same gradients
        cfg = tiny_config(C=2, variant=variant, dropout=dropout)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(12, 1, 2, 32))
        y = rng.normal(size=(12, 2, 8))
        runs, rebuilt = [], ad._Record.rebuilt

        def counted(rec):
            runs[-1][0] += 1
            return rebuilt(rec)

        monkeypatch.setattr(ad._Record, "rebuilt", counted)
        for off in (False, True):
            if off:
                monkeypatch.setattr(ad, "_rebuild_of", lambda t: None)
            runs.append([0])
            model = md.TwinSModel(cfg)
            loss = tr.batch_gradients(model, x, y)
            runs[-1] += [loss, {k: p.grad for k, p in model.params.items()}]
        (n_on, loss_on, on), (n_off, loss_off, off) = runs
        assert n_on > 0 and n_off == 0
        assert loss_on == loss_off
        for name, g in on.items():
            np.testing.assert_array_equal(g.view(np.uint64),
                                          off[name].view(np.uint64), name)

    def test_peak_independent_of_batch(self):
        # one full chunk runs on each worker at once (two on one CPU), so the
        # reference is that many times the peak of one full chunk, run on
        # this thread alone, where no two peaks can meet or miss in time
        model = md.TwinSModel(md.ModelConfig(**ETTH1, variant="twins_plus"))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 1, 7, 96))
        y = rng.normal(size=(128, 7, 96))
        _, chunk = traced_peak(
            lambda: tr._chunk_gradients(model, x[:ROWS], y[:ROWS], 1.0))
        _, batch = traced_peak(lambda: tr.batch_gradients(model, x, y))
        assert batch <= 1.2 * max(2, md._cpus()) * chunk, \
            (chunk / 2 ** 20, batch / 2 ** 20)

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

    def test_non_finite_gradient_aborts_before_adam(self, monkeypatch):
        # an inf gradient would turn every parameter NaN through clipping
        # and Adam, and only the next batch's loss would show it
        seen = []

        def inf_on_second_batch(model, inputs, targets):
            lv = batch_gradients(model, inputs, targets)
            seen.append(model)
            if len(seen) == 2:
                rec = next(iter(model.params.values()))._rec
                rec.grad = rec.grad.copy()   # the gradient is read-only
                rec.grad.flat[0] = np.inf
            return lv

        batch_gradients = tr.batch_gradients
        monkeypatch.setattr(tr, "batch_gradients", inf_on_second_batch)
        with pytest.raises(tr.TrainAbort,
                           match="non-finite gradient at epoch 0, batch 1"
                           ) as err:
            tr.train(tiny_config(batch_size=8), tiny_dataset(seed=7),
                     eval_test=False)
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert all(np.isfinite(t.data).all()
                   for t in seen[-1].params.values())

    def test_log_records(self):
        ds = tiny_dataset(seed=8)
        rows = []
        tr.train(tiny_config(epochs=2), ds, log_fn=rows.append)
        assert len(rows) == 3   # two epochs + final test record
        for r in rows:
            assert set(r) == {"epoch", "train_loss", "grad_norm", "clipped",
                              "val_mse", "val_mae", "test_mse", "test_mae",
                              "seconds"}
        assert rows[0]["epoch"] == 0 and rows[0]["test_mse"] is None
        assert rows[-1]["epoch"] is None and rows[-1]["test_mse"] is not None
        assert rows[-1]["grad_norm"] is None and rows[-1]["clipped"] is None

    def test_log_records_gradient_norms(self, monkeypatch):
        # each epoch logs the largest pre-clip norm of its steps and how
        # many of them clip_grad_norm scaled down
        norms, clip = [], ad.clip_grad_norm

        def seen(grads, max_norm):
            out = clip(grads, max_norm)
            norms.append((out[1], out[0] is not grads))
            return out

        monkeypatch.setattr(ad, "clip_grad_norm", seen)
        monkeypatch.setattr(tr, "CLIP_NORM", 1.5)  # some steps clip, not all
        rows = []
        tr.train(tiny_config(epochs=2), tiny_dataset(seed=8), eval_test=False,
                 log_fn=lambda r: rows.append((r, len(norms))))
        start = 0
        for r, stop in rows:
            epoch = norms[start:stop]
            assert stop - start == 7  # 223 windows in batches of 32
            assert r["grad_norm"] == max(n for n, _ in epoch)
            assert r["clipped"] == sum(c for _, c in epoch)
            start = stop
        assert [r["clipped"] for r, _ in rows] == [3, 0]
        assert json.loads(json.dumps(rows[0][0])) == rows[0][0]

    @pytest.mark.parametrize("split, name, eval_test", [
        ("train", "training", False), ("val", "validation", False),
        ("test", "test", True)])
    def test_short_split_fails_before_the_first_batch(self, split, name,
                                                      eval_test, monkeypatch):
        # L + T = 40: a split of 39 steps holds no window
        ds = tiny_dataset()
        ds = replace(ds, **{split: getattr(ds, split)[:, :39]})
        steps = []
        monkeypatch.setattr(tr, "batch_gradients",
                            lambda *args: steps.append(args))
        msg = f"{name} split of length 39 too short for L=32, T=8"
        with pytest.raises(ValueError, match=f"^{msg}$"):
            tr.train(tiny_config(), ds, eval_test=eval_test)
        assert steps == []

    def test_short_test_split_unused_without_eval_test(self):
        ds = tiny_dataset()
        ds = replace(ds, test=ds.test[:, :39])
        _, hist = tr.train(tiny_config(epochs=1), ds, eval_test=False)
        assert len(hist.records) == 1 and hist.test is None

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

    def test_per_layer_w_p_round_trip(self, tmp_path):
        cfg = tiny_config(L=16, n_layers=2, scales=(4, 2))
        model = md.TwinSModel(cfg)
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(model, p)
        blob = open(p, "rb").read()
        for name, dims in ((b"layers.0.subnet.w_p", (2, 8, 4)),
                           (b"layers.1.subnet.w_p", (2, 4, 8))):
            # the name is followed by the rank and the dims
            at = blob.index(name) + len(name)
            assert struct.unpack_from("<B3I", blob, at) == (3,) + dims
        again = tr.load_checkpoint(p)
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, again.params[name].data)
        x = np.random.default_rng(1).normal(size=(2, 1, 1, 16))
        with ad.no_grad():
            np.testing.assert_array_equal(model.forward(x).data,
                                          again.forward(x).data)

    def test_uniform_scale_w_p_read_in_place(self, tmp_path, monkeypatch):
        # every layer's w_p has the widest P: no scratch array for any of
        # them beyond what building the model allocates itself
        cfg = md.ModelConfig(**GATE, variant="twins", n_layers=2)
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(md.TwinSModel(cfg), p)
        calls, real_empty = [], np.empty

        def spy(shape, *args, **kwargs):
            calls.append(shape)
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", spy)
        md.TwinSModel(cfg)
        own = len(calls)
        tr.load_checkpoint(p)
        assert calls[own:] == calls[:own]

    @pytest.mark.parametrize("width", [6, 16])
    def test_other_w_p_width_rejected(self, tmp_path, width):
        model = md.TwinSModel(tiny_config(L=16, n_layers=2, scales=(4, 2)))
        model.params["layers.0.subnet.w_p"] = ad.Tensor(np.zeros((2, 8, width)))
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(model, p)
        with pytest.raises(ValueError, match=re.escape(
                f"array 'layers.0.subnet.w_p' has shape (2, 8, {width}), "
                f"config implies (2, 8, 4)")):
            tr.load_checkpoint(p)

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

    def test_name_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        blob = bytearray(p.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", blob, len(tr.CKPT_MAGIC))
        # magic, config length, config, array count, first name length
        blob[len(tr.CKPT_MAGIC) + 4 + cfg_len + 4 + 2] = 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as err:
            tr.load_checkpoint(str(p))
        assert str(err.value) == (
            f"{p}: corrupt checkpoint: array name is not UTF-8")

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
        stored = {**cfg.to_dict(), "variant": "twins", "use_paa": False}
        with_config_header(p, json.dumps(stored, sort_keys=True).encode())
        back = tr.load_checkpoint(str(p), expect_config=cfg)
        assert back.config == cfg

    @pytest.mark.parametrize("header, message", [
        (b"3", "config: must be an object, got int"),
        (b"[1]", "config: must be an object, got list"),
        (b"null", "config: must be an object, got NoneType"),
        (json.dumps({"L": 32, "T": 8}).encode(), "config: missing keys ['C']"),
        (b"\xff\xfe", "corrupt checkpoint: config is not JSON ("),
    ])
    def test_bad_config_header(self, tmp_path, header, message):
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        with_config_header(p, header)
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            tr.load_checkpoint(str(p))
        assert str(err.value).startswith(f"{p}: {message}")

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

    @pytest.mark.parametrize("cfg", [
        *(tiny_config(variant=v) for v in md.VARIANTS),
        tiny_config(L=16, n_layers=2, scales=(4, 2))])
    def test_bytes_follow_readme_layout(self, tmp_path, cfg):
        model = md.TwinSModel(cfg)
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(model, str(p))
        assert p.read_bytes() == encode_checkpoint(model)

    def test_streamed_save_and_in_place_load(self, tmp_path):
        # neither side holds a copy of the file: the save allocates about
        # nothing, the load about the model it builds
        model = md.TwinSModel(md.ModelConfig(**ETTH1, variant="twins_plus"))
        p = str(tmp_path / "m.ckpt")
        tr.save_checkpoint(model, p)
        _, save_peak = traced_peak(lambda: tr.save_checkpoint(model, p))
        back, load_peak = traced_peak(lambda: tr.load_checkpoint(p))
        param_bytes = sum(t.data.nbytes for t in model.params.values())
        assert save_peak <= 64 * 2 ** 10
        assert load_peak <= param_bytes + 64 * 2 ** 10
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, back.params[name].data)

    def test_truncated_inside_array_names_it(self, tmp_path):
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        blob = p.read_bytes()
        name = b"layers.0.ln1.b"
        at = blob.index(name) + len(name)
        data = at + 1 + 4 * blob[at]   # past the rank and the dims
        p.write_bytes(blob[:data + 8])
        msg = (f"{p}: corrupt checkpoint: truncated while reading data of "
               "'layers.0.ln1.b'")
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            tr.load_checkpoint(str(p))

    def test_truncated_header_names_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        p.write_bytes(p.read_bytes()[:len(tr.CKPT_MAGIC) + 2])
        msg = f"{p}: corrupt checkpoint: truncated while reading config length"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            tr.load_checkpoint(str(p))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ckpt"
        tr.save_checkpoint(md.TwinSModel(tiny_config()), str(p))
        before = p.read_bytes()

        class DiskFills:
            """A file whose fourth write fails, as on a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.writes += 1
                if self.writes == 4:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(blob)

        monkeypatch.setattr(tr, "open", lambda *a: DiskFills(open(*a)),
                            raising=False)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            tr.save_checkpoint(md.TwinSModel(tiny_config(seed=4)), str(p))
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]
