"""Multi-scale convolution embedding with one shared kernel store.

A bank of nested kernels of widths 1, 3, 7, ..., 2^n - 1, all centered
slices of a single (d, 1, 2^n - 1) parameter array. Each input series is
convolved with every width and the results are summed, so coarse trend and
fine oscillation land in the same d-dimensional point feature.

Every weight product here is one ``ad.linear``: the bank's over the
series' sliding windows (im2col), the baseline's over raw patches. Both
embeddings return point maps (C, L, d), features innermost, so window
patching regroups them with one reshape; an arbitrary batch prefix
in front of that is allowed everywhere (shapes below are for the
unbatched case). The stored (d, L) position table is added transposed.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def init_kernel_bank(d: int, num_scales: int,
                     rng: np.random.Generator) -> Tensor:
    """The (d, 1, 2^n - 1) store, uniform in +-1/sqrt(K_max)."""
    if num_scales < 1:
        raise ValueError(f"num_scales must be >= 1, got {num_scales}")
    if d < 1:
        raise ValueError(f"embed width d must be >= 1, got {d}")
    k_max = 2 ** num_scales - 1
    return ad.uniform_init(rng, (d, 1, k_max), k_max)


def tap_multiplicity(k_max: int) -> np.ndarray:
    """How many of the nested widths 1, 3, ..., k_max cover each tap.

    [1,1,1,1,2,2,3,4,3,2,2,1,1,1,1] for k_max = 15.
    """
    num_scales = (k_max + 1).bit_length() - 1
    if k_max < 1 or 2 ** num_scales - 1 != k_max:
        raise ValueError(f"kernel width {k_max} is not 2^n - 1")
    offset = np.abs(np.arange(k_max) - k_max // 2)
    return sum((offset < 2 ** i).astype(np.float64)
               for i in range(num_scales))


def sliding_windows(x: np.ndarray, k: int) -> np.ndarray:
    """(..., L) series -> read-only (..., L, k) view of it zero-padded:
    window p holds steps p - k//2 .. p + k//2, k odd. Only the padded copy
    is allocated; the view's base is that copy."""
    L = x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (L + k - 1,))
    padded[..., k // 2:k // 2 + L] = x
    step = padded.strides
    cols = np.ndarray(padded.shape[:-1] + (L, k), buffer=padded,
                      strides=step + step[-1:])
    cols.flags.writeable = False
    return cols


def wconv_embed(x: Tensor, bank: Tensor) -> Tensor:
    """(1, C, L) raw series -> (C, L, d) point features, summed over scales.

    Channel independent: every series is convolved with the same bank.
    Convolution is linear in the kernel, so the sum over the nested widths
    is one convolution with the store scaled by each tap's multiplicity,
    and that convolution is one ``ad.linear`` of the series' sliding
    windows with the (K, d) scaled store. The series is data: only the
    bank is differentiated.
    """
    if x.ndim < 3 or x.shape[-3] != 1:
        raise ValueError(
            f"wconv_embed expects (..., 1, C, L), got {x.shape}"
        )
    if x.requires_grad:
        raise ValueError(f"wconv_embed: series {x.shape} requires a "
                         "gradient; only the bank is differentiated")
    d, _, k = bank.shape
    kern = ad.mul(bank, Tensor(tap_multiplicity(k)))
    w = ad.transpose(ad.reshape(kern, (d, k)), (1, 0))
    return ad.linear(Tensor(sliding_windows(x.data[..., 0, :, :], k)), w)


def init_position_table(d: int, L: int, rng: np.random.Generator) -> Tensor:
    """Trainable (d, L) table, small uniform init."""
    return Tensor(rng.uniform(-0.02, 0.02, size=(d, L)), requires_grad=True)


def add_position(x: Tensor, pos: Tensor) -> Tensor:
    """Add a (d, L) table to a (C, L, d) point map, broadcast over C."""
    if pos.ndim != 2:
        raise ValueError(f"position table must be (d, L), got {pos.shape}")
    d, L = pos.shape
    if x.shape[-2:] != (L, d):
        raise ValueError(
            f"position table {pos.shape} does not match point map {x.shape}"
        )
    return ad.add(x, ad.transpose(pos, (1, 0)))


def linear_patch_embed(x: Tensor, patch_len: int, w: Tensor,
                       b: Tensor) -> Tensor:
    """Baseline embedding: one shared affine map per raw patch.

    (1, C, L) -> (C, L, D / patch_len); w is (patch_len, D). Each patch's
    D outputs are spread over its steps as ``patching.window_fold`` at
    ``patch_len`` spreads a patch map.
    """
    if x.ndim < 3 or x.shape[-3] != 1:
        raise ValueError(f"linear_patch_embed expects (..., 1, C, L), got {x.shape}")
    L = x.shape[-1]
    if L % patch_len != 0:
        raise ValueError(f"L={L} not divisible by patch_len={patch_len}")
    if w.ndim != 2 or w.shape[0] != patch_len:
        raise ValueError(f"weight must be (patch_len, D), got {w.shape}")
    if w.shape[1] % patch_len != 0:
        raise ValueError(f"weight width {w.shape[1]} not divisible by "
                         f"patch_len={patch_len}")
    lead = x.shape[:-3] + x.shape[-2:-1]  # (..., C)
    y = ad.linear(ad.reshape(x, lead + (L // patch_len, patch_len)), w, b)
    return ad.reshape(y, lead + (L, w.shape[1] // patch_len))
