"""Patch attention: the dot-product baseline and two score-driven variants.

All ops act on patch maps (..., C, P, D) where every axis before P is batch
(channel independence: C never mixes here). Heads are carried as a leading
axis internally, so score tensors are (S, ..., C, P, P). Each of the S score
maps guides a group of M/S consecutive attention heads; the groups share the
map by broadcasting, never by copying it. Every projection (q, k, v, o)
is a bias-free ``linear``, and the products over heads are batched
``matmul`` calls.

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
    w_p: Tensor               # (S, D/S, P) aggregation maps


def init_attention(D: int, heads: int, rng: np.random.Generator,
                   keyless: bool = False) -> AttentionWeights:
    if D % heads != 0:
        raise ValueError(f"D={D} not divisible by heads={heads}")

    def mk():
        return ad.uniform_init(rng, (D, D), D)

    if keyless:
        return AttentionWeights(None, None, mk(), mk(), heads)
    return AttentionWeights(mk(), mk(), mk(), mk(), heads)


def init_subnet(D: int, S: int, k: int, P: int,
                rng: np.random.Generator) -> ScoreSubnet:
    if D % S != 0:
        raise ValueError(f"D={D} not divisible by aware heads S={S}")
    if k % 2 == 0:
        raise ValueError(f"subnet kernel width must be odd, got {k}")
    ds = D // S
    dw = ad.uniform_init(rng, (S, ds, k), k)
    return ScoreSubnet(dw, ad.uniform_init(rng, (S, ds, P), ds))


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


def _attend(attn: Tensor, vh: Tensor, w_o: Tensor, m: int, probe) -> Tensor:
    """Shared tail: record one map per attention head in the probe, weight
    values, project out."""
    if probe is not None:
        probe["attn"] = np.repeat(attn.data, m // attn.shape[0], axis=0)
    return ad.linear(_merge_heads(ad.matmul(attn, vh)), w_o)


def _dot_product(x: Tensor, w: AttentionWeights, scores, probe) -> Tensor:
    """softmax(scores (*) qk^T / sqrt(Dh)) v, with scores None meaning 1."""
    D = x.shape[-1]
    if w.w_v.shape[0] != D:
        raise ValueError(f"weights sized {w.w_v.shape} vs input D={D}")
    m = w.heads
    qh = _split_heads(ad.linear(x, w.w_q), m)
    kh = _split_heads(ad.linear(x, w.w_k), m)
    vh = _split_heads(ad.linear(x, w.w_v), m)
    logits = ad.matmul(qh, ad.transpose(kh, (1, 0)))
    if scores is not None:
        s = align_heads(scores, m).shape[0]
        grouped = ad.reshape(logits, (s, m // s) + logits.shape[1:])
        shared = ad.reshape(scores, (s, 1) + scores.shape[1:])
        logits = ad.reshape(ad.mul(shared, grouped), logits.shape)
    attn = ad.softmax(ad.mul(logits, Tensor(1.0 / math.sqrt(D // m))))
    return _attend(attn, vh, w.w_o, m, probe)


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
    if subnet.w_p.shape[2] != P:
        raise ValueError(f"subnet w_p maps to {subnet.w_p.shape[2]} patch "
                         f"columns, input has P={P}")
    flat_k = ad.reshape(subnet.dw_kernels, (S * ds, k))
    conv = ad.depthwise_conv1d(x, flat_k)                  # (..., C, P, D)
    rows = ad.reshape(ad.gelu(conv), (conv.size // D, S, ds))  # (N, S, ds)
    gh = ad.transpose(rows, (1, 0, 2))                     # (S, N, ds)
    out = ad.reshape(ad.matmul(gh, subnet.w_p), (S,) + x.shape[:-1] + (P,))
    return ad.sigmoid(out)                                 # (S, ..., C, P, P)


def align_heads(scores: Tensor, m: int) -> Tensor:
    """Check that the S score maps split M attention heads into groups of
    M/S; the scores are returned as they are."""
    s = scores.shape[0]
    if m % s != 0:
        raise ValueError(f"attention heads {m} not a multiple of aware heads {s}")
    return scores


def twins_plus_attention(x: Tensor, w: AttentionWeights, scores: Tensor,
                         probe: dict = None) -> Tensor:
    """Dot-product attention with logits gated by the scores.

    logits = scores (*) qk^T / sqrt(Dh), then softmax over keys as usual;
    score map i gates attention heads i*M/S .. (i+1)*M/S - 1. Scores of 1
    everywhere reduce this to plain mhsa.
    """
    return _dot_product(x, w, scores, probe)


def twins_attention(x: Tensor, w_v: Tensor, w_o: Tensor, scores: Tensor,
                    heads: int = None, probe: dict = None) -> Tensor:
    """Keyless attention: row-softmax of the scores is the attention matrix.

    No query/key projections at all; only values and the output map. Heads
    that share a score map share its attention, so the values are split into
    S heads of width D/S; ``heads`` (M) sets how many maps the probe holds.
    """
    m = scores.shape[0] if heads is None else heads
    s = align_heads(scores, m).shape[0]
    attn = ad.softmax(scores)  # (S, ..., C, P, P)
    vh = _split_heads(ad.linear(x, w_v), s)
    return _attend(attn, vh, w_o, m, probe)


def attention_block(x: Tensor, w: AttentionWeights,
                    subnet: ScoreSubnet = None, probe: dict = None) -> Tensor:
    """One attention block of the variant its inputs hold: dot-product
    attention without a score subnet, keyless attention when ``w`` has no
    query map, and score-gated dot-product attention otherwise."""
    if subnet is None:
        return mhsa(x, w, probe=probe)
    scores = paa_scores(x, subnet)
    if w.w_q is None:
        return twins_attention(x, w.w_v, w.w_o, scores, heads=w.heads,
                               probe=probe)
    return twins_plus_attention(x, w, scores, probe=probe)
