"""Mini-batch training with Adam, early stopping, metrics, checkpoints."""

from __future__ import annotations

import io
import json
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SplitDataset, WindowBatch, make_windows
from .model import ModelConfig, TwinSModel

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
    epoch: int
    train_loss: float
    val_mse: float
    val_mae: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float = float("inf")
    test: Optional[Metrics] = None

    def comparable(self) -> list:
        """History without wall-clock fields, for determinism checks."""
        return [(r.epoch, r.train_loss, r.val_mse, r.val_mae)
                for r in self.records]


def evaluate(model: TwinSModel, split: np.ndarray, L: int, T: int,
             stride: int = 1, batch_size: int = 64) -> Metrics:
    """Mean squared/absolute error over every window of a split, stride 1.

    Metrics are on the globally standardized scale, accumulated in window
    order so the reduction is deterministic.
    """
    return evaluate_windows(model, make_windows(split, L, T, stride),
                            batch_size)


def evaluate_windows(model: TwinSModel, wb: WindowBatch,
                     batch_size: int = 64) -> Metrics:
    """``evaluate`` on windows already built, e.g. once for every epoch."""
    se = 0.0
    ae = 0.0
    count = 0
    with ad.no_grad():
        for i in range(0, wb.inputs.shape[0], batch_size):
            pred = model.forward(wb.inputs[i:i + batch_size]).data
            diff = pred - wb.targets[i:i + batch_size]
            se += float((diff * diff).sum())
            ae += float(np.abs(diff).sum())
            count += diff.size
    return Metrics(mse=se / count, mae=ae / count)


def lookback_mean_baseline(split: np.ndarray, L: int, T: int,
                           stride: int = 1) -> Metrics:
    """Predict each channel's lookback mean for every step of the horizon."""
    wb = make_windows(split, L, T, stride)
    pred = wb.inputs[:, 0].mean(axis=-1, keepdims=True)  # (B, C, 1)
    diff = np.broadcast_to(pred, wb.targets.shape) - wb.targets
    return Metrics(mse=float((diff * diff).mean()),
                   mae=float(np.abs(diff).mean()))


def train(cfg: ModelConfig, dataset: SplitDataset,
          log_fn: Optional[Callable[[dict], None]] = None,
          eval_test: bool = True) -> tuple:
    """Adam on MSE with shuffled mini-batches and early stopping.

    Returns (model, TrainHistory); best validation weights are restored
    before the final test evaluation.
    """
    cfg.validate()
    model = TwinSModel(cfg)
    wb = make_windows(dataset.train, cfg.L, cfg.T, stride=1)
    val_wb = make_windows(dataset.val, cfg.L, cfg.T, stride=1)
    n_windows = wb.inputs.shape[0]
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
            model.zero_grad()
            pred = model.forward(wb.inputs[idx], training=True)
            loss = ad.mse(pred, Tensor(wb.targets[idx]))
            lv = loss.item()
            if not np.isfinite(lv):
                raise TrainAbort(epoch, bi)
            ad.backward(loss)
            grads, _ = ad.clip_grad_norm([p.grad for p in params], CLIP_NORM)
            ad.adam_step(params, grads, opt)
            loss_sum += lv
            loss_batches += 1
        val = evaluate_windows(model, val_wb)
        rec = EpochRecord(epoch=epoch, train_loss=loss_sum / loss_batches,
                          val_mse=val.mse, val_mae=val.mae,
                          seconds=time.monotonic() - t0)
        history.records.append(rec)
        if log_fn:
            log_fn({"epoch": epoch, "train_loss": rec.train_loss,
                    "val_mse": rec.val_mse, "val_mae": rec.val_mae,
                    "test_mse": None, "test_mae": None,
                    "seconds": rec.seconds})
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
            log_fn({"epoch": None, "train_loss": None,
                    "val_mse": None, "val_mae": None,
                    "test_mse": history.test.mse,
                    "test_mae": history.test.mae, "seconds": None})
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
            nbytes = int(np.prod(shape)) * 8 if shape else 8
            blob = _read_exact(fh, nbytes, f"data of {name!r}")
            t.data[:] = np.frombuffer(blob, dtype="<f8").reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after last array")
    return model
