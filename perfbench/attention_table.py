"""Wall-clock check of the paper's cost claim for one attention block.

Keyless periodicity-aware attention costs 2ND^2 + (k+N)ND + N^2D MACs against
4ND^2 + 2N^2D for dot-product attention, so it is cheaper whenever k < 2D.
This table times one block of each variant, forward and backward, through the
public ``twins.attention`` functions at the two training shapes, and counts
its forward MACs with ``enable_mac_counting``/``mac_count``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import twins.attention as at
import twins.autodiff as ad
from twins.autodiff import Tensor

VARIANTS = ("mhsa", "twins", "twins_plus")
# name -> (batch, channels, P, D); batch 32 and C as in train-gate/train-wide
SHAPES = {"gate": (32, 2, 12, 64), "wide": (32, 7, 12, 128)}
HEADS = 4
KERNEL = 3
REPEATS = 7


def _block(variant: str, shape, rng):
    """(forward function, tensors to zero between repeats) for one block."""
    P, D = shape[-2], shape[-1]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = at.init_attention(D, HEADS, rng, keyless=(variant == "twins"))
    leaves = [x, w.w_v, w.w_o]
    if variant != "twins":
        leaves += [w.w_q, w.w_k]
    if variant == "mhsa":
        return (lambda: at.mhsa(x, w)), leaves
    sub = at.init_subnet(D, HEADS, KERNEL, P, rng)
    leaves += [sub.dw_kernels, sub.w_p]

    def forward():
        scores = at.align_heads(at.paa_scores(x, sub), HEADS)
        if variant == "twins":
            return at.twins_attention(x, w.w_v, w.w_o, scores, heads=HEADS)
        return at.twins_plus_attention(x, w, scores)

    return forward, leaves


def measure(seed: int) -> dict:
    """metric name -> (value, unit): fwd_ms, bwd_ms (medians) and macs."""
    out = {}
    for shape_name, shape in SHAPES.items():
        for variant in VARIANTS:
            forward, leaves = _block(variant, shape, np.random.default_rng(seed))
            fwd, bwd = [], []
            for _ in range(REPEATS):
                for t in leaves:
                    t.zero_grad()
                t0 = time.perf_counter()
                y = forward()
                t1 = time.perf_counter()
                loss = ad.sum_all(y)
                t2 = time.perf_counter()
                ad.backward(loss)
                t3 = time.perf_counter()
                fwd.append((t1 - t0) * 1e3)
                bwd.append((t3 - t2) * 1e3)
            ad.reset_mac_count()
            ad.enable_mac_counting(True)
            try:
                with ad.no_grad():
                    forward()
            finally:
                ad.enable_mac_counting(False)
            macs = ad.mac_count()
            ad.reset_mac_count()
            key = f"attention.{variant}.{shape_name}"
            out[f"{key}.fwd_ms"] = (statistics.median(fwd), "ms")
            out[f"{key}.bwd_ms"] = (statistics.median(bwd), "ms")
            out[f"{key}.macs"] = (macs, "count")
    return out
