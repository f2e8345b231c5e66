"""Reversible window patching and cyclic patch rotation.

A point map (d, C, L) is regrouped into non-overlapping windows of `scale`
steps: each window's time steps are concatenated along the feature axis,
giving a patch map (C, P, D) with P = L/scale and D = d*scale. The move is
pure data movement, so folding back is exact. Rotation cyclically shifts the
patch axis and is undone by the opposite shift.
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
    """(d, C, L) -> (C, P, D): merge `scale` consecutive steps per patch.

    Feature order within a patch is time-major: entry k*d + j is feature j
    of the k-th step in the window.
    """
    if x.ndim < 3:
        raise ValueError(f"point map must be (..., d, C, L), got {x.shape}")
    d, C, L = x.shape[-3], x.shape[-2], x.shape[-1]
    if scale < 1 or L % scale != 0:
        raise ValueError(f"L={L} not divisible by scale={scale}")
    P = L // scale
    n = x.ndim
    lead = x.shape[:-3]
    # (..., d, C, L) -> (..., C, L, d) -> (..., C, P, scale*d)
    xt = ad.transpose(x, tuple(range(n - 3)) + (n - 2, n - 1, n - 3))
    data = ad.reshape(xt, lead + (C, P, scale * d))
    return PatchedFeatureMap(data, scale)


def window_fold(pm: PatchedFeatureMap) -> Tensor:
    """Exact inverse of window_unfold: (C, P, D) -> (d, C, L)."""
    x = pm.data
    if x.ndim < 3:
        raise ValueError(f"patch map must be (..., C, P, D), got {x.shape}")
    C, P, D = x.shape[-3], x.shape[-2], x.shape[-1]
    scale = pm.scale
    if scale < 1 or D % scale != 0:
        raise ValueError(f"corrupt metadata: D={D} not divisible by scale={scale}")
    d = D // scale
    L = P * scale
    lead = x.shape[:-3]
    xt = ad.reshape(x, lead + (C, L, d))
    n = xt.ndim
    # (..., C, L, d) -> (..., d, C, L)
    return ad.transpose(xt, tuple(range(n - 3)) + (n - 1, n - 3, n - 2))


def window_roll(pm: PatchedFeatureMap, r: int) -> PatchedFeatureMap:
    """Cyclic shift by r along the patch axis; undo with -r."""
    if r % pm.data.shape[-2] == 0:
        return pm
    rolled = ad.roll(pm.data, r, axis=pm.data.ndim - 2)
    return PatchedFeatureMap(rolled, pm.scale)
