"""Mini-batch training with Adam, early stopping, metrics, checkpoints."""

from __future__ import annotations

import io
import json
import math
import struct
import time
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SplitDataset, make_windows, window_view
from .model import ModelConfig, TwinSModel, chunk_windows, run_chunks

CLIP_NORM = 5.0

CKPT_MAGIC = b"TWSFORE1\n"


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries the batch index."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}; aborting"
        )
        self.epoch = epoch
        self.batch = batch


@dataclass
class Metrics:
    mse: float
    mae: float


@dataclass
class EpochRecord:
    """One line of the training log: an epoch, or the final test metrics,
    with ``None`` for the fields that do not apply."""
    epoch: Optional[int] = None
    train_loss: Optional[float] = None
    val_mse: Optional[float] = None
    val_mae: Optional[float] = None
    test_mse: Optional[float] = None
    test_mae: Optional[float] = None
    seconds: Optional[float] = None


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float = float("inf")
    test: Optional[Metrics] = None


def evaluate(model: TwinSModel, split: np.ndarray, L: int, T: int,
             batch_size: int = 64) -> Metrics:
    """Mean squared/absolute error over every window of a split, stride 1.

    Metrics are on the globally standardized scale, accumulated in window
    order so the reduction is deterministic. Each batch is copied out of a
    view of the split, so no more than one batch of windows is ever built.
    """
    windows = window_view(split, L, T)
    se = 0.0
    ae = 0.0
    count = 0
    with ad.no_grad():
        for i in range(0, windows.inputs.shape[0], batch_size):
            pred = model.forward(
                np.ascontiguousarray(windows.inputs[i:i + batch_size])).data
            diff = pred - windows.targets[i:i + batch_size]
            se += float((diff * diff).sum())
            ae += float(np.abs(diff).sum())
            count += diff.size
    return Metrics(mse=se / count, mae=ae / count)


def lookback_mean_baseline(split: np.ndarray, L: int, T: int) -> Metrics:
    """Predict each channel's lookback mean for every step of the horizon."""
    wb = make_windows(split, L, T)
    pred = wb.inputs[:, 0].mean(axis=-1, keepdims=True)  # (B, C, 1)
    diff = np.broadcast_to(pred, wb.targets.shape) - wb.targets
    return Metrics(mse=float((diff * diff).mean()),
                   mae=float(np.abs(diff).mean()))


def _chunk_gradients(model: TwinSModel, inputs: np.ndarray,
                     targets: np.ndarray, share: float) -> float:
    """MSE of one chunk; unless it is non-finite, runs the backward of the
    loss scaled by ``share`` and leaves the gradient on ``model``."""
    loss = ad.mse(model.forward(inputs, training=True), Tensor(targets))
    lv = loss.item()
    if np.isfinite(lv):
        ad.backward(loss if share == 1.0 else ad.scale(loss, share))
    return lv


def batch_gradients(model: TwinSModel, inputs: np.ndarray,
                    targets: np.ndarray) -> float:
    """Batch MSE of one training step; leaves its gradient on every parameter.

    Windows never interact and the loss is a mean over windows, so the batch
    runs in chunks of ``chunk_windows`` windows, like a no-grad pass. A batch
    of one chunk runs the ops of one recorded pass on the model. Otherwise
    each chunk runs on its own replica of the model (``run_chunks``, one per
    CPU at a time), with a dropout generator spawned from the model's in
    chunk order: its loss, scaled by the chunk's share of the batch, is
    recorded and consumed by its own backward, and the replicas' gradients
    are added to the parameters in chunk order, so the worker count never
    changes a bit. The first non-finite chunk loss is returned before its
    backward runs, and no later chunk's gradient reaches the parameters.
    """
    model.zero_grad()
    n = inputs.shape[0]
    rows = chunk_windows(model.config)
    if n <= rows:
        return _chunk_gradients(model, inputs, targets, 1.0)
    starts = range(0, n, rows)

    def chunk(job):
        i, twin = job
        share = min(rows, n - i) / n
        lv = _chunk_gradients(twin, inputs[i:i + rows], targets[i:i + rows],
                              share)
        return lv, share, twin

    jobs = list(zip(starts, model.replicas(len(starts))))
    total = 0.0
    with closing(run_chunks(chunk, jobs)) as done:
        for lv, share, twin in done:
            if not np.isfinite(lv):
                return lv
            model.add_grads(twin)
            total += share * lv
    return total


def train(cfg: ModelConfig, dataset: SplitDataset,
          log_fn: Optional[Callable[[dict], None]] = None,
          eval_test: bool = True) -> tuple:
    """Adam on MSE with shuffled mini-batches and early stopping.

    Returns (model, TrainHistory); best validation weights are restored
    before the final test evaluation.
    """
    cfg.validate()
    model = TwinSModel(cfg)
    windows = window_view(dataset.train, cfg.L, cfg.T)
    n_windows = windows.inputs.shape[0]
    params = model.parameters()
    opt = ad.AdamState(params, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed + 1000)
    history = TrainHistory()
    best_params = None
    stale = 0

    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        order = shuffle_rng.permutation(n_windows)
        loss_sum = 0.0
        loss_batches = 0
        for bi, i in enumerate(range(0, n_windows, cfg.batch_size)):
            idx = order[i:i + cfg.batch_size]
            lv = batch_gradients(model, windows.inputs[idx],
                                 windows.targets[idx])
            if not np.isfinite(lv):
                raise TrainAbort(epoch, bi)
            grads, _ = ad.clip_grad_norm([p.grad for p in params], CLIP_NORM)
            ad.adam_step(params, grads, opt)
            loss_sum += lv
            loss_batches += 1
        val = evaluate(model, dataset.val, cfg.L, cfg.T)
        rec = EpochRecord(epoch=epoch, train_loss=loss_sum / loss_batches,
                          val_mse=val.mse, val_mae=val.mae,
                          seconds=time.monotonic() - t0)
        history.records.append(rec)
        if log_fn:
            log_fn(asdict(rec))
        if val.mse < history.best_val_mse:
            history.best_val_mse = val.mse
            history.best_epoch = epoch
            best_params = [p.data.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if best_params is not None:
        for p, saved in zip(params, best_params):
            p.data[:] = saved
    if eval_test:
        history.test = evaluate(model, dataset.test, cfg.L, cfg.T)
        if log_fn:
            log_fn(asdict(EpochRecord(test_mse=history.test.mse,
                                      test_mae=history.test.mae)))
    return model, history


# ---------------------------------------------------------------------------
# checkpoint container: magic, config JSON, named float64 arrays

def save_checkpoint(model: TwinSModel, path: str) -> None:
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    cfg_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    buf.write(struct.pack("<I", len(cfg_blob)))
    buf.write(cfg_blob)
    buf.write(struct.pack("<I", len(model.params)))
    for name, t in model.params.items():
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", t.ndim))
        for dim in t.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise ValueError(f"corrupt checkpoint: truncated while reading {what}")
    return blob


def load_checkpoint(path: str, expect_config: Optional[ModelConfig] = None
                    ) -> TwinSModel:
    """Rebuild a model from a checkpoint; bit-exact parameter restore."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: not a recognized checkpoint (bad magic)")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg = ModelConfig.from_dict(
            json.loads(_read_exact(fh, cfg_len, "config")))
        if expect_config is not None:
            # compare through JSON, which turns a tuple of scales into a list
            loaded, expected = (json.loads(json.dumps(c.to_dict()))
                                for c in (cfg, expect_config))
            for key, want in expected.items():
                got = loaded[key]
                if got != want:
                    raise ValueError(
                        f"{path}: checkpoint config mismatch on "
                        f"{key!r}: checkpoint has {got!r}, expected {want!r}"
                    )
        model = TwinSModel(cfg)
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4, "param count"))
        if n_params != len(model.params):
            raise ValueError(
                f"{path}: checkpoint stores {n_params} arrays, "
                f"config implies {len(model.params)}"
            )
        seen = set()
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode()
            if name not in model.params:
                raise ValueError(f"{path}: unexpected array {name!r}")
            if name in seen:
                raise ValueError(f"{path}: duplicate array {name!r}")
            seen.add(name)
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "rank"))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "dim"))[0]
                for _ in range(ndim)
            )
            t = model.params[name]
            if shape != t.shape:
                raise ValueError(
                    f"{path}: array {name!r} has shape {shape}, "
                    f"config implies {t.shape}"
                )
            nbytes = math.prod(shape) * 8
            blob = _read_exact(fh, nbytes, f"data of {name!r}")
            t.data[:] = np.frombuffer(blob, dtype="<f8").reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after last array")
    return model
