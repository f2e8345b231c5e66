"""Reversible window patching and cyclic patch rotation.

A point map (C, L, d), features innermost, is regrouped into
non-overlapping windows of `scale` steps: each window's time steps are
concatenated along the feature axis, giving a patch map (C, P, D) with
P = L/scale and D = scale*d. Consecutive steps are contiguous, so both
directions are one reshape and folding back is exact. Rotation cyclically
shifts the patch axis and is undone by the opposite shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class PatchedFeatureMap:
    data: Tensor              # (..., C, P, D)
    scale: int


def window_unfold(x: Tensor, scale: int) -> PatchedFeatureMap:
    """(C, L, d) -> (C, P, D): merge `scale` consecutive steps per patch.

    Feature order within a patch is time-major: entry k*d + j is feature j
    of the k-th step in the window.
    """
    if x.ndim < 3:
        raise ValueError(f"point map must be (..., C, L, d), got {x.shape}")
    L, d = x.shape[-2], x.shape[-1]
    if scale < 1 or L % scale != 0:
        raise ValueError(f"L={L} not divisible by scale={scale}")
    data = ad.reshape(x, x.shape[:-2] + (L // scale, scale * d))
    return PatchedFeatureMap(data, scale)


def window_fold(pm: PatchedFeatureMap) -> Tensor:
    """Exact inverse of window_unfold: (C, P, D) -> (C, L, d)."""
    x = pm.data
    if x.ndim < 3:
        raise ValueError(f"patch map must be (..., C, P, D), got {x.shape}")
    P, D = x.shape[-2], x.shape[-1]
    scale = pm.scale
    if scale < 1 or D % scale != 0:
        raise ValueError(f"corrupt metadata: D={D} not divisible by scale={scale}")
    return ad.reshape(x, x.shape[:-2] + (P * scale, D // scale))


def window_roll(pm: PatchedFeatureMap, r: int) -> PatchedFeatureMap:
    """Cyclic shift by r along the patch axis; undo with -r."""
    if r % pm.data.shape[-2] == 0:
        return pm
    rolled = ad.roll(pm.data, r, axis=pm.data.ndim - 2)
    return PatchedFeatureMap(rolled, pm.scale)
