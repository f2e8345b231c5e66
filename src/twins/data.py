"""CSV ingestion, chronological splits, standardization, window sampling,
and synthetic generators with non-stationary periodic structure."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

STD_FLOOR = 1e-8


@dataclass
class RawSeries:
    names: list
    values: np.ndarray       # (C, N) float64


@dataclass
class SplitDataset:
    train: np.ndarray        # (C, n_train), standardized
    val: np.ndarray
    test: np.ndarray
    mean: np.ndarray         # (C, 1) train mean, raw units
    scale: np.ndarray        # (C, 1) divisor actually used: max(std, floor)

    def destandardize(self, x: np.ndarray) -> np.ndarray:
        return x * self.scale + self.mean


@dataclass
class WindowBatch:
    inputs: np.ndarray       # (B, 1, C, L)
    targets: np.ndarray      # (B, C, T)


def load_csv(path: str) -> RawSeries:
    """Header + numeric rows; a first column with a filled cell but no
    numeric one is taken for a date column and dropped.

    Any unparseable, missing or non-finite cell (``nan``, ``inf``,
    ``1e400``) is a hard error naming its position.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header:
            raise ValueError(f"{path}: blank header line")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    width = len(header)
    for line, row in enumerate(rows, start=2):  # 1-based, after the header
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {line}: {len(row)} cells, expected {width}"
            )
    has_date = (any(row[0].strip() for row in rows)
                and not any(numeric(row[0]) for row in rows))
    first_col = 1 if has_date else 0
    names = [h.strip() for h in header[first_col:]]
    out = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows):
        line = i + 2
        for j, cell in enumerate(row[first_col:]):
            cell = cell.strip()
            if cell == "":
                raise ValueError(
                    f"{path}: missing value at row {line}, column {j + first_col + 1}"
                )
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {line}, "
                    f"column {j + first_col + 1}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite value at row {line}, "
                    f"column {j + first_col + 1}: {cell!r}"
                )
            out[i, j] = value
    return RawSeries(names, out.T.copy())


def split_standardize(raw: RawSeries, ratios=(0.6, 0.2, 0.2)) -> SplitDataset:
    """Chronological split; all splits standardized by train-split stats."""
    if sum(ratios) > 1.0 + 1e-9:
        raise ValueError(f"split ratios {ratios} sum past 1")
    N = raw.values.shape[1]
    n_train = int(N * ratios[0])
    n_val = int(N * ratios[1])
    n_test = int(N * ratios[2])
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"empty split: sizes {(n_train, n_val, n_test)} from N={N}"
        )
    train_raw = raw.values[:, :n_train]
    mean = train_raw.mean(axis=1, keepdims=True)
    scale = np.maximum(train_raw.std(axis=1, keepdims=True), STD_FLOOR)
    std = lambda a: (a - mean) / scale
    return SplitDataset(
        train=std(train_raw),
        val=std(raw.values[:, n_train:n_train + n_val]),
        test=std(raw.values[:, n_train + n_val:n_train + n_val + n_test]),
        mean=mean, scale=scale,
    )


def check_window_fit(values: np.ndarray, L: int, T: int, what="split"):
    """Raise unless ``values``, named ``what``, holds one L + T window."""
    if values.shape[1] < L + T:
        raise ValueError(f"{what} of length {values.shape[1]} too short "
                         f"for L={L}, T={T}")


def window_view(values: np.ndarray, L: int, T: int) -> WindowBatch:
    """Lookback/target pairs at every offset of one split, as read-only
    views of it: nothing is copied until a batch is taken."""
    check_window_fit(values, L, T)
    # (n - L - T + 1, C, L + T)
    win = np.lib.stride_tricks.sliding_window_view(
        np.asarray(values, dtype=np.float64), L + T, axis=1).transpose(1, 0, 2)
    return WindowBatch(win[:, None, :, :L], win[:, :, L:])


def make_windows(values: np.ndarray, L: int, T: int) -> WindowBatch:
    """Lookback/target pairs at every offset of one split, each copied out
    of ``window_view`` once."""
    view = window_view(values, L, T)
    return WindowBatch(np.ascontiguousarray(view.inputs),
                       np.ascontiguousarray(view.targets))


def synth_multiperiod(length: int, channels: int, components,
                      lag_per_channel: int = 0, noise_std: float = 0.0,
                      seed: int = 0) -> RawSeries:
    """Sum of sinusoids, each optionally active only on a sub-range.

    Channel c is the same composite signal delayed by c*lag_per_channel
    samples, plus independent Gaussian noise. Bitwise deterministic per seed.
    """
    comps = list(components)
    if not comps:
        raise ValueError("components must be non-empty")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(noise_std):
        raise ValueError(f"noise std must be finite, got {noise_std}")
    if noise_std < 0.0:
        raise ValueError(f"noise std must be >= 0, got {noise_std}")
    for period, amplitude, active in comps:
        if not math.isfinite(period):
            raise ValueError(f"component period must be finite, got {period}")
        if period < 2:
            raise ValueError(f"component period must be >= 2, got {period}")
        if not math.isfinite(amplitude):
            raise ValueError(
                f"component amplitude must be finite, got {amplitude}")
        if active is not None and active[1] <= active[0]:
            raise ValueError(
                f"active interval {active[0]}-{active[1]} is empty: "
                "HI must exceed LO")

    def f(u: np.ndarray) -> np.ndarray:
        total = np.zeros_like(u)
        for period, amplitude, active in comps:
            wave = amplitude * np.sin(2.0 * np.pi * u / period)
            if active is not None:
                lo, hi = active
                wave = wave * ((u >= lo) & (u < hi))
            total += wave
        return total

    t = np.arange(length, dtype=np.float64)
    values = np.stack([f(t - c * lag_per_channel) for c in range(channels)])
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_std, size=values.shape)
    return RawSeries([f"ch{c}" for c in range(channels)], values)
