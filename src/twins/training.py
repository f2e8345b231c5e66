"""Mini-batch training with Adam, early stopping, metrics, checkpoints."""

from __future__ import annotations

import json
import math
import os
import struct
import time
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SplitDataset, check_window_fit, make_windows, window_view
from .model import ModelConfig, TwinSModel, chunk_slices, run_chunks

CLIP_NORM = 5.0

CKPT_MAGIC = b"TWSFORE1\n"


class TrainAbort(RuntimeError):
    """Raised on a non-finite loss or gradient; carries the batch index."""

    def __init__(self, epoch: int, batch: int, what: str = "loss"):
        super().__init__(
            f"non-finite {what} at epoch {epoch}, batch {batch}; aborting"
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
    with ``None`` for the fields that do not apply. ``grad_norm`` is the
    epoch's largest gradient norm before clipping, ``clipped`` the number
    of its steps whose norm exceeded ``CLIP_NORM``."""
    epoch: Optional[int] = None
    train_loss: Optional[float] = None
    grad_norm: Optional[float] = None
    clipped: Optional[int] = None
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
        ad.backward(ad.mul(loss, Tensor(share)))
    return lv


def batch_gradients(model: TwinSModel, inputs: np.ndarray,
                    targets: np.ndarray) -> float:
    """Batch MSE of one training step; leaves its gradient on every parameter.

    Windows never interact and the loss is a mean over windows, so the batch
    runs in the chunks of ``chunk_slices``, like a no-grad pass. Each chunk
    runs on its own replica of the model (``run_chunks``, one per CPU at a
    time), with a dropout generator spawned from the model's in chunk
    order: its loss, scaled by the chunk's share of the batch, is recorded
    and consumed by its own backward, and the replicas' gradients are added
    to the parameters in chunk order, so the worker count never changes a
    bit. A gradient is stored as it is when a parameter has none yet, so a
    batch of one chunk gives the bits of one recorded pass. The first
    non-finite chunk loss is returned before its backward runs, and no later
    chunk's gradient reaches the parameters.
    """
    model.zero_grad()
    n = inputs.shape[0]
    chunks = chunk_slices(n, model.config)

    def chunk(job):
        s, twin = job
        share = (s.stop - s.start) / n
        lv = _chunk_gradients(twin, inputs[s], targets[s], share)
        return lv, share, twin

    jobs = list(zip(chunks, model.replicas(len(chunks))))
    total = 0.0
    with closing(run_chunks(chunk, jobs)) as done:
        for lv, share, twin in done:
            if not np.isfinite(lv):
                return lv
            model.add_grads(twin)
            total += share * lv
    return total


def check_splits(cfg: ModelConfig, dataset: SplitDataset,
                 eval_test: bool = True) -> None:
    """Raise unless every split ``train`` reads holds one L + T window,
    naming the first that does not."""
    check_window_fit(dataset.train, cfg.L, cfg.T, "training split")
    check_window_fit(dataset.val, cfg.L, cfg.T, "validation split")
    if eval_test:
        check_window_fit(dataset.test, cfg.L, cfg.T, "test split")


def train(cfg: ModelConfig, dataset: SplitDataset,
          log_fn: Optional[Callable[[dict], None]] = None,
          eval_test: bool = True) -> tuple:
    """Adam on MSE with shuffled mini-batches and early stopping.

    Returns (model, TrainHistory); best validation weights are restored
    before the final test evaluation. A short split fails before training.
    """
    check_splits(cfg, dataset, eval_test)
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
        max_norm = 0.0
        clipped = 0
        for bi, i in enumerate(range(0, n_windows, cfg.batch_size)):
            idx = order[i:i + cfg.batch_size]
            lv = batch_gradients(model, windows.inputs[idx],
                                 windows.targets[idx])
            if not np.isfinite(lv):
                raise TrainAbort(epoch, bi)
            grads, norm = ad.clip_grad_norm([p.grad for p in params],
                                            CLIP_NORM)
            if not math.isfinite(norm):
                raise TrainAbort(epoch, bi, what="gradient")
            max_norm = max(max_norm, norm)
            clipped += norm > CLIP_NORM
            ad.adam_step(params, grads, opt)
            loss_sum += lv
            loss_batches += 1
        val = evaluate(model, dataset.val, cfg.L, cfg.T)
        rec = EpochRecord(epoch=epoch, train_loss=loss_sum / loss_batches,
                          grad_norm=max_norm, clipped=clipped,
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
    """Write ``model`` to ``path``, each array straight from its memory.

    The file is written beside ``path`` and replaces it once complete, so
    a failed save leaves the previous file and no partial one.
    """
    path = os.path.realpath(path)   # replace a link's target, not the link
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            cfg = json.dumps(model.config.to_dict(), sort_keys=True).encode()
            fh.write(CKPT_MAGIC + struct.pack("<I", len(cfg)) + cfg
                     + struct.pack("<I", len(model.params)))
            for name, t in model.params.items():
                nb = name.encode()
                fh.write(struct.pack(f"<H{len(nb)}sB{t.ndim}I", len(nb), nb,
                                     t.ndim, *t.shape))
                fh.write(np.ascontiguousarray(t.data, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_exact(fh, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise ValueError(f"{fh.name}: corrupt checkpoint: truncated while "
                         f"reading {what}")
    return blob


def load_checkpoint(path: str, expect_config: Optional[ModelConfig] = None
                    ) -> TwinSModel:
    """Rebuild a model from a checkpoint; bit-exact parameter restore."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: not a recognized checkpoint (bad magic)")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        blob = _read_exact(fh, cfg_len, "config")
        try:
            stored = json.loads(blob)
        except ValueError as err:
            raise ValueError(f"{path}: corrupt checkpoint: config is not "
                             f"JSON ({err})") from None
        try:
            cfg = ModelConfig.from_dict(stored)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
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
        p_wide = max(map(cfg.P_at, range(cfg.n_layers)))
        seen = set()
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: corrupt checkpoint: array name "
                                 "is not UTF-8") from None
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
            # a w_p of the widest P is the older layout; its columns past
            # this layer's P never had a gradient
            legacy = (shape != t.shape and name.endswith(".subnet.w_p")
                      and shape == t.shape[:2] + (p_wide,))
            if shape != t.shape and not legacy:
                raise ValueError(
                    f"{path}: array {name!r} has shape {shape}, "
                    f"config implies {t.shape}"
                )
            data = np.empty(shape) if legacy else t.data
            if fh.readinto(data) != data.nbytes:
                raise ValueError(f"{path}: corrupt checkpoint: truncated "
                                 f"while reading data of {name!r}")
            if not np.little_endian:
                data.byteswap(inplace=True)
            if legacy:
                t.data[:] = data[..., :t.shape[-1]]
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after last array")
    return model
