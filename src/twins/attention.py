"""Patch attention: the dot-product baseline and two score-driven variants.

All ops act on patch maps (..., C, P, D) where every axis before P is batch
(channel independence: C never mixes here). Heads are carried as a leading
axis internally, so score tensors are (S, ..., C, P, P) and aligned score
tensors are (M, ..., C, P, P).

The scoring sub-network convolves each feature along the patch axis, so it
reacts to where in time a periodic pattern is present; its sigmoid output
modulates dot-product attention (score-modulated variant) or replaces the
query-key product entirely (keyless variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class AttentionWeights:
    w_q: Optional[Tensor]     # (D, D); None in the keyless variant
    w_k: Optional[Tensor]
    w_v: Tensor               # (D, D)
    w_o: Tensor               # (D, D)
    heads: int


@dataclass
class ScoreSubnet:
    dw_kernels: Tensor        # (S, D/S, k), k odd, one kernel per feature
    w_p: Tensor               # (S, D/S, P_max) aggregation maps

    @property
    def P_max(self):
        return self.w_p.shape[2]


def init_attention(D: int, heads: int, rng: np.random.Generator,
                   keyless: bool = False) -> AttentionWeights:
    if D % heads != 0:
        raise ValueError(f"D={D} not divisible by heads={heads}")

    def mk():
        return ad.uniform_init(rng, (D, D), D)

    if keyless:
        return AttentionWeights(None, None, mk(), mk(), heads)
    return AttentionWeights(mk(), mk(), mk(), mk(), heads)


def init_subnet(D: int, S: int, k: int, P_max: int,
                rng: np.random.Generator) -> ScoreSubnet:
    if D % S != 0:
        raise ValueError(f"D={D} not divisible by aware heads S={S}")
    if k % 2 == 0:
        raise ValueError(f"subnet kernel width must be odd, got {k}")
    ds = D // S
    dw = ad.uniform_init(rng, (S, ds, k), k)
    return ScoreSubnet(dw, ad.uniform_init(rng, (S, ds, P_max), ds))


def _split_heads(x: Tensor, m: int) -> Tensor:
    """(..., P, D) -> (m, ..., P, D/m); head i owns feature block i."""
    D = x.shape[-1]
    xh = ad.reshape(x, x.shape[:-1] + (m, D // m))
    ax = xh.ndim - 2
    axes = (ax,) + tuple(i for i in range(xh.ndim) if i != ax)
    return ad.transpose(xh, axes)


def _merge_heads(x: Tensor) -> Tensor:
    """(m, ..., P, Dh) -> (..., P, m*Dh), inverse of _split_heads."""
    n = x.ndim
    xt = ad.transpose(x, tuple(range(1, n - 1)) + (0, n - 1))
    return ad.reshape(xt, xt.shape[:-2] + (xt.shape[-2] * xt.shape[-1],))


def _swap_last2(x: Tensor) -> Tensor:
    n = x.ndim
    return ad.transpose(x, tuple(range(n - 2)) + (n - 1, n - 2))


def _attend(attn: Tensor, vh: Tensor, w_o: Tensor, probe) -> Tensor:
    """Shared tail: record attn in the probe, weight values, project out."""
    if probe is not None:
        probe["attn"] = attn.data.copy()
    return ad.matmul(_merge_heads(ad.matmul(attn, vh)), w_o)


def _dot_product(x: Tensor, w: AttentionWeights, scores, probe) -> Tensor:
    """softmax(scores (*) qk^T / sqrt(Dh)) v, with scores None meaning 1."""
    D = x.shape[-1]
    if w.w_v.shape[0] != D:
        raise ValueError(f"weights sized {w.w_v.shape} vs input D={D}")
    m = w.heads
    if scores is not None and scores.shape[0] != m:
        raise ValueError(f"scores carry {scores.shape[0]} heads, expected {m}")
    qh = _split_heads(ad.matmul(x, w.w_q), m)
    kh = _split_heads(ad.matmul(x, w.w_k), m)
    vh = _split_heads(ad.matmul(x, w.w_v), m)
    logits = ad.matmul(qh, _swap_last2(kh))
    if scores is not None:
        logits = ad.mul(scores, logits)
    attn = ad.softmax(ad.scale(logits, 1.0 / math.sqrt(D // m)), axis=-1)
    return _attend(attn, vh, w.w_o, probe)


def mhsa(x: Tensor, w: AttentionWeights, probe: dict = None) -> Tensor:
    """Scaled dot-product attention over the patch axis, per head.

    Ordinary softmax(qk^T/sqrt(Dh))v with output projection; the caller owns
    residuals and normalization.
    """
    return _dot_product(x, w, None, probe)


def paa_scores(x: Tensor, subnet: ScoreSubnet) -> Tensor:
    """Periodicity scores in (0,1): (..., C, P, D) -> (S, ..., C, P, P).

    Per aware head: depthwise-convolve each of the D/S features along the
    patch axis, GELU, then map features to P score columns and squash.
    No biases anywhere, so zero input gives scores identically 0.5.
    """
    S, ds, k = subnet.dw_kernels.shape
    P = x.shape[-2]
    D = x.shape[-1]
    if D != S * ds:
        raise ValueError(f"D={D} does not split into {S} heads of width {ds}")
    if P > subnet.P_max:
        raise ValueError(f"P={P} exceeds subnet capacity P_max={subnet.P_max}")
    flat_k = ad.reshape(subnet.dw_kernels, (S * ds, k))
    conv = ad.depthwise_conv1d(x, flat_k)                  # (..., C, P, D)
    gh = _split_heads(ad.gelu(conv), S)                    # (S, ..., C, P, ds)
    wp = ad.narrow(subnet.w_p, axis=2, start=0, length=P)  # (S, ds, P)
    wp = ad.reshape(wp, (S,) + (1,) * (gh.ndim - 3) + (ds, P))
    return ad.sigmoid(ad.matmul(gh, wp))                   # (S, ..., C, P, P)


def align_heads(scores: Tensor, m: int) -> Tensor:
    """Repeat each aware head M/S times: (S, ...) -> (M, ...)."""
    s = scores.shape[0]
    if m % s != 0:
        raise ValueError(f"attention heads {m} not a multiple of aware heads {s}")
    if m == s:
        return scores
    return ad.repeat_heads(scores, m // s)


def twins_plus_attention(x: Tensor, w: AttentionWeights, scores: Tensor,
                         probe: dict = None) -> Tensor:
    """Dot-product attention with logits gated by aligned scores.

    logits = scores (*) qk^T / sqrt(Dh), then softmax over keys as usual.
    Scores of 1 everywhere reduce this to plain mhsa.
    """
    return _dot_product(x, w, scores, probe)


def twins_attention(x: Tensor, w_v: Tensor, w_o: Tensor, scores: Tensor,
                    heads: int = None, probe: dict = None) -> Tensor:
    """Keyless attention: row-softmax of the scores is the attention matrix.

    No query/key projections at all; only values and the output map.
    """
    m = scores.shape[0] if heads is None else heads
    if scores.shape[0] != m:
        raise ValueError(f"scores carry {scores.shape[0]} heads, expected {m}")
    attn = ad.softmax(scores, axis=-1)                     # (m, ..., C, P, P)
    vh = _split_heads(ad.matmul(x, w_v), m)
    return _attend(attn, vh, w_o, probe)


def attention_block(variant: str, x: Tensor, w: AttentionWeights,
                    subnet: ScoreSubnet = None, probe: dict = None) -> Tensor:
    """One attention block of the named variant.

    ``subnet`` supplies the periodicity scores; mhsa does not use it.
    """
    if variant == "mhsa":
        return mhsa(x, w, probe=probe)
    if variant not in ("twins", "twins_plus"):
        raise ValueError(f"unknown variant {variant!r}")
    scores = align_heads(paa_scores(x, subnet), w.heads)
    if variant == "twins_plus":
        return twins_plus_attention(x, w, scores, probe=probe)
    return twins_attention(x, w.w_v, w.w_o, scores, heads=w.heads,
                           probe=probe)
