"""Model assembly: config, instance normalization, encoder layers, head.

The forward pipeline: per-channel instance normalization, a point map from
the multi-scale convolution embedding plus position table (or the linear
patch map in ablation mode), a stack of pre-norm residual encoder layers
each on the patch map of its scale, then a flatten + shared linear head per
channel, de-normalized back to the input scale.

Shapes follow the rest of the package: raw windows are (1, C, L) with an
optional batch prefix, predictions are (C, T).
"""

from __future__ import annotations

import copy
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import MISSING, dataclass, asdict
from itertools import islice
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import attention as at
from . import embedding as emb
from . import patching as pt
from .autodiff import Tensor

INSTANCE_EPS = 1e-5
# A pass runs in chunks of windows whose residual map fits in this many
# bytes (see chunk_windows), one chunk per CPU at a time; the size comes
# from a sweep in README "Chunked passes".
CHUNK_BYTES = 2 ** 19

VARIANTS = ("mhsa", "twins", "twins_plus")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ModelConfig field annotation -> (accepts value, what it must be), for a
# stored config (as in a checkpoint) read by from_dict
_FIELD_TYPES = {
    "int": (_is_int, "an int"),
    "Optional[int]": (lambda v: v is None or _is_int(v), "an int or null"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[list]": (lambda v: v is None or (isinstance(v, (list, tuple))
                                               and all(map(_is_int, v))),
                       "null or a list of ints"),
}


@dataclass
class ModelConfig:
    C: int
    L: int
    T: int
    d: int = 16
    num_scales: int = 4
    n_layers: int = 2
    patch_len: int = 8
    scales: Optional[list] = None      # per-layer override of patch_len
    heads: int = 4
    aware_heads: int = 4
    k: int = 3
    h: int = 128                       # channel-temporal mixer hidden width
    ffn_hidden: Optional[int] = None   # default 2*D per layer
    variant: str = "twins"
    use_wconv: bool = True
    use_ctmlp: bool = True
    lr: float = 1e-4
    epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    seed: int = 0
    dropout: float = 0.0

    # ---- derived helpers ----

    def scale_at(self, l: int) -> int:
        if self.scales is not None:
            return int(self.scales[l])
        return self.patch_len

    def P_at(self, l: int) -> int:
        return self.L // self.scale_at(l)

    def D_at(self, l: int) -> int:
        return self.d * self.scale_at(l)

    def roll_at(self, l: int) -> int:
        # odd layers shift by half a period; the linear patch map never does
        return self.P_at(l) // 2 if self.use_wconv and l % 2 == 1 else 0

    def ffn_at(self, l: int) -> int:
        return self.ffn_hidden if self.ffn_hidden else 2 * self.D_at(l)

    def has_qk(self) -> bool:
        return self.variant in ("mhsa", "twins_plus")

    def has_subnet(self) -> bool:
        return self.variant in ("twins", "twins_plus")

    def validate(self) -> None:
        def req(cond, msg):
            if not cond:
                raise ValueError(f"config: {msg}")

        for name in ("C", "L", "T", "d", "num_scales", "n_layers", "heads",
                     "aware_heads", "h", "batch_size", "epochs", "patience"):
            value = getattr(self, name)
            req(value >= 1, f"{name} must be >= 1, got {value}")
        req(self.variant in VARIANTS,
            f"variant {self.variant!r} not one of {VARIANTS}")
        req(self.scales is None or len(self.scales) == self.n_layers,
            f"scales list has {len(self.scales or [])} entries "
            f"for {self.n_layers} layers")
        req(self.k >= 1 and self.k % 2 == 1,
            f"k must be odd and >= 1, got {self.k}")
        req(self.ffn_hidden is None or self.ffn_hidden >= 1,
            f"ffn_hidden must be null or >= 1, got {self.ffn_hidden}")
        req(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        req(np.isfinite(self.lr) and self.lr >= 0.0,
            f"lr must be finite and >= 0, got {self.lr}")
        req(0.0 <= self.dropout < 1.0, f"dropout {self.dropout} out of range")
        for l in range(self.n_layers):
            s, D = self.scale_at(l), self.D_at(l)
            req(s >= 1 and self.L % s == 0,
                f"layer {l}: L={self.L} not divisible by scale={s}")
            req(D % self.heads == 0,
                f"layer {l}: D={D} not divisible by heads={self.heads}")
            req(D % self.aware_heads == 0,
                f"layer {l}: D={D} not divisible by aware_heads={self.aware_heads}")
        req(self.heads % self.aware_heads == 0,
            f"heads={self.heads} not a multiple of aware_heads={self.aware_heads}")
        if not self.use_wconv:
            req(all(self.scale_at(l) == self.patch_len
                    for l in range(self.n_layers)),
                "linear-patch mode requires a uniform patch grid")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ValueError(
                f"config: must be an object, got {type(data).__name__}")
        data = dict(data)
        # legacy key: use_paa=false meant plain dot-product attention
        if not data.pop("use_paa", True):
            data["variant"] = "mhsa"
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        missing = [name for name, f in fields.items()
                   if f.default is MISSING and name not in data]
        if missing:
            raise ValueError(f"config: missing keys {missing}")
        for name, value in data.items():
            accepts, what = _FIELD_TYPES[fields[name].type]
            if not accepts(value):
                raise ValueError(f"config: {name} must be {what}, got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class NormStats:
    mean: np.ndarray        # (..., C, 1)
    std: np.ndarray         # (..., C, 1), population


def instance_normalize(x) -> tuple:
    """Subtract per-channel lookback mean, divide by (std + eps).

    Stats are retained so predictions can be mapped back to input scale.
    """
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xd.ndim < 3 or xd.shape[-3] != 1:
        raise ValueError(f"expected (..., 1, C, L), got {xd.shape}")
    mean = xd.mean(axis=-1, keepdims=True)
    xn = xd - mean
    # ndarray.std's own steps, on the centred rows already at hand
    std = np.sqrt(np.add.reduce(np.square(xn), axis=-1, keepdims=True)
                  / xd.shape[-1])
    xn /= std + INSTANCE_EPS
    stats = NormStats(np.squeeze(mean, axis=-3), np.squeeze(std, axis=-3))
    return Tensor(xn), stats


def instance_denormalize(pred: Tensor, stats: NormStats) -> Tensor:
    """Map (..., C, T) predictions back: pred * (std + eps) + mean."""
    scale = Tensor(stats.std + INSTANCE_EPS)
    shift = Tensor(stats.mean)
    return ad.add(ad.mul(pred, scale), shift)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise D -> hidden -> D with GELU."""
    return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)


def ct_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Mix along the flattened channel-patch axis, per feature row.

    (..., C, P, D) -> view (..., D, C*P) -> C*P -> h -> C*P -> back.
    This is the one block that couples channels, so it breaks channel
    permutation equivariance by design.
    """
    C, P, D = x.shape[-3], x.shape[-2], x.shape[-1]
    if w1.shape[0] != C * P:
        raise ValueError(
            f"mixer width {w1.shape[0]} does not match C*P = {C}*{P}"
        )
    lead = x.shape[:-3]
    rows = ad.reshape(ad.transpose(x, (2, 0, 1)), lead + (D, C * P))
    mixed = ad.linear(ad.gelu(ad.linear(rows, w1, b1)), w2, b2)
    return ad.transpose(ad.reshape(mixed, lead + (D, C, P)), (1, 2, 0))


def _window_bytes(cfg: ModelConfig) -> int:
    """Bytes of one window's residual map: 8*C*L*d at every layer, since
    P*D = L*d whatever the scale."""
    return 8 * cfg.C * cfg.L * cfg.d


def chunk_windows(cfg: ModelConfig) -> int:
    """Most windows in a chunk of a pass, at least one."""
    return max(1, CHUNK_BYTES // _window_bytes(cfg))


def chunk_slices(n: int, cfg: ModelConfig) -> list:
    """The chunks a pass over ``n`` windows runs in, as slices in order.

    The fewest chunks of at most ``chunk_windows`` windows, and at least
    two once each half of the batch holds a quarter of ``CHUNK_BYTES``, so
    two CPUs share every batch worth splitting; their sizes differ by at
    most one. They depend on ``n`` and the config alone, never on the CPU
    count. No window, no chunk. Below the floor a second chunk's per-op
    cost outweighs the second CPU (README "Chunked passes").
    """
    k = -(-n // chunk_windows(cfg))
    if k == 1 and n // 2 * _window_bytes(cfg) >= CHUNK_BYTES // 4:
        k = 2
    return [slice(n * c // k, n * (c + 1) // k) for c in range(k)]


_pool = None  # the chunk workers, built by the first pass that needs them


def _cpus() -> int:
    """CPUs this process may run on: one chunk worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def run_chunks(fn, args):
    """Yield ``fn(a)`` for each of ``args``, in order.

    The calling thread makes the calls itself, one after another, when
    there is one CPU or one argument; otherwise they run on a shared pool
    of one thread per CPU, since numpy's loops, BLAS and scipy's erf
    release the GIL. BLAS runs on one thread in every process that imports
    the package (see ``_blas``), so the worker count never changes a bit.
    Closing the iterator early cancels the calls not yet started and waits
    for the running ones, so no call outlives it.
    """
    global _pool
    workers = _cpus() if len(args) > 1 else 1
    if workers < 2:
        yield from map(fn, args)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(workers, thread_name_prefix="twins-chunk")
    # one call per worker in flight: a call starts when the oldest one is
    # taken, so results never pile up ahead of the consumer
    todo = iter(args)
    futures = deque(_pool.submit(fn, a) for a in islice(todo, workers))
    try:
        while futures:
            oldest = futures.popleft()
            futures.extend(_pool.submit(fn, a) for a in islice(todo, 1))
            yield oldest.result()
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


class TwinSModel:
    """Parameter store plus the forward pass; training lives elsewhere."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.params: dict = {}
        self._build(np.random.default_rng(config.seed))

    # ---- parameter store ----

    def _norm(self, prefix: str, D: int) -> None:
        self.params[f"{prefix}.g"] = Tensor(np.ones(D), requires_grad=True)
        self.params[f"{prefix}.b"] = Tensor(np.zeros(D), requires_grad=True)

    def _linear(self, w: str, b: str, n_in: int, n_out: int, rng) -> None:
        self.params[w] = ad.uniform_init(rng, (n_in, n_out), n_in)
        self.params[b] = Tensor(np.zeros(n_out), requires_grad=True)

    def _build(self, rng: np.random.Generator):
        cfg = self.config
        par = self.params
        if cfg.use_wconv:
            par["embed.bank"] = emb.init_kernel_bank(cfg.d, cfg.num_scales, rng)
            par["embed.pos"] = emb.init_position_table(cfg.d, cfg.L, rng)
        else:
            self._linear("embed.patch.w", "embed.patch.b", cfg.patch_len,
                         cfg.D_at(0), rng)
        P_wide = max(map(cfg.P_at, range(cfg.n_layers)))
        for l in range(cfg.n_layers):
            D, P, F = cfg.D_at(l), cfg.P_at(l), cfg.ffn_at(l)
            p = f"layers.{l}"
            self._norm(f"{p}.ln1", D)
            w = at.init_attention(D, cfg.heads, rng, keyless=not cfg.has_qk())
            for name in ("w_q", "w_k", "w_v", "w_o"):
                t = getattr(w, name)
                if t is not None:
                    par[f"{p}.attn.{name}"] = t
            if cfg.has_subnet():
                # drawn at the widest P and cut, so later draws stay the same
                sub = at.init_subnet(D, cfg.aware_heads, cfg.k, P_wide, rng)
                par[f"{p}.subnet.dw"] = sub.dw_kernels
                par[f"{p}.subnet.w_p"] = Tensor(sub.w_p.data[..., :P].copy(),
                                                requires_grad=True)
            self._norm(f"{p}.ln2", D)
            self._linear(f"{p}.ffn.w1", f"{p}.ffn.b1", D, F, rng)
            self._linear(f"{p}.ffn.w2", f"{p}.ffn.b2", F, D, rng)
            if cfg.use_ctmlp:
                cp = cfg.C * P
                self._norm(f"{p}.ln3", D)
                self._linear(f"{p}.ct.w1", f"{p}.ct.b1", cp, cfg.h, rng)
                self._linear(f"{p}.ct.w2", f"{p}.ct.b2", cfg.h, cp, rng)
        self._linear("head.w", "head.b", cfg.d * cfg.L, cfg.T, rng)
        self._dropout_rng = np.random.default_rng(cfg.seed + 1)

    def parameters(self) -> list:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def replicas(self, k: int) -> list:
        """``k`` models on this model's parameter arrays, each with gradient
        records of its own, so a recorded pass on one leaves this model's
        gradients alone, and a dropout generator spawned from this model's
        in order."""
        out = []
        for rng in self._dropout_rng.spawn(k):
            twin = copy.copy(self)
            twin.params = {name: Tensor(t.data, requires_grad=True)
                           for name, t in self.params.items()}
            twin._dropout_rng = rng
            out.append(twin)
        return out

    def add_grads(self, twin: "TwinSModel") -> None:
        """Move a replica's gradients onto this model's, parameter by
        parameter: each is added to this model's and dropped by the replica."""
        for t, u in zip(self.params.values(), twin.params.values()):
            t._rec.accum(u.grad)
            u.zero_grad()

    # ---- views over the flat store ----

    def attention_weights(self, l: int) -> at.AttentionWeights:
        p = f"layers.{l}"
        get = self.params.get
        return at.AttentionWeights(get(f"{p}.attn.w_q"), get(f"{p}.attn.w_k"),
                                   self.params[f"{p}.attn.w_v"],
                                   self.params[f"{p}.attn.w_o"],
                                   self.config.heads)

    def score_subnet(self, l: int) -> at.ScoreSubnet:
        p = f"layers.{l}"
        return at.ScoreSubnet(self.params[f"{p}.subnet.dw"],
                              self.params[f"{p}.subnet.w_p"])

    # ---- forward ----

    def _residual_block(self, h: Tensor, l: int, probe=None,
                        training: bool = False) -> Tensor:
        """Attention, FFN, and mixer branches, each the pre-norm residual
        ``h + dropout(fn(layer_norm(h)))``.

        Each branch's normed input and output pass straight between calls,
        so no local keeps a map past its use, and the block input goes at
        the first residual add when the caller holds no reference to it.
        """
        cfg = self.config
        p = f"layers.{l}"
        par = self.params

        def branch(h, norm, fn, *args):
            y = fn(ad.layer_norm(h, par[f"{p}.{norm}.g"], par[f"{p}.{norm}.b"]),
                   *args)
            if training and cfg.dropout > 0.0:
                y = ad.dropout(y, cfg.dropout, self._dropout_rng)
            return ad.add(h, y)

        h = branch(h, "ln1", at.attention_block, self.attention_weights(l),
                   self.score_subnet(l) if cfg.has_subnet() else None, probe)
        if probe is not None:
            probe.setdefault("attn_layers", []).append(probe.pop("attn"))
        h = branch(h, "ln2", feed_forward, par[f"{p}.ffn.w1"],
                   par[f"{p}.ffn.b1"], par[f"{p}.ffn.w2"], par[f"{p}.ffn.b2"])
        if cfg.use_ctmlp:
            h = branch(h, "ln3", ct_mlp, par[f"{p}.ct.w1"], par[f"{p}.ct.b1"],
                       par[f"{p}.ct.w2"], par[f"{p}.ct.b2"])
        return h

    def forward(self, x, probe=None, training: bool = False) -> Tensor:
        """(1, C, L) raw window (batch prefix allowed) -> (C, T) forecast.

        A pass that records no graph, takes no probe and is not training,
        a single window included, runs in the chunks of ``chunk_slices``,
        one per CPU at a time (``run_chunks``), so its working set stays
        near ``CHUNK_BYTES`` per CPU whatever the batch.
        """
        cfg = self.config
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.shape[-3:] != (1, cfg.C, cfg.L):
            raise ValueError(
                f"input {x.shape} does not match config (1, {cfg.C}, {cfg.L})"
            )
        if probe is not None or training or ad.is_recording():
            return self._forward_chunk(x, probe, training)
        lead = x.shape[:-3]
        n = math.prod(lead)
        flat = x.data.reshape((n, 1, cfg.C, cfg.L))
        out = np.empty((n, cfg.C, cfg.T))

        def score(s):
            out[s] = self._forward_chunk(Tensor(flat[s]), None, False).data

        for _ in run_chunks(score, chunk_slices(n, cfg)):
            pass
        return Tensor(out.reshape(lead + (cfg.C, cfg.T)))

    def _forward_chunk(self, x: Tensor, probe, training: bool) -> Tensor:
        """One forward over every window of ``x``, as one batch."""
        cfg = self.config
        xn, stats = instance_normalize(x)
        lead = x.shape[:-3]
        par = self.params
        # both embeddings hand the layers a point map (..., C, L, d); each
        # layer pops its input from a one-slot list and hands the block its
        # only reference, so the input goes at the first residual add
        slot = [emb.add_position(emb.wconv_embed(xn, par["embed.bank"]),
                                 par["embed.pos"]) if cfg.use_wconv else
                emb.linear_patch_embed(xn, cfg.patch_len, par["embed.patch.w"],
                                       par["embed.patch.b"])]
        for l in range(cfg.n_layers):
            # unfold at this layer's scale, run the block, fold back
            s, r = cfg.scale_at(l), cfg.roll_at(l)
            h = self._residual_block(
                pt.window_roll(pt.window_unfold(slot.pop(), s), r).data,
                l, probe=probe, training=training)
            slot.append(pt.window_fold(
                pt.window_roll(pt.PatchedFeatureMap(h, s), -r)))
            del h
        # head.w reads each channel's features d-major, (d, L), in wavelet
        # checkpoints and L-major, (L, d), in linear-patch ones
        h = slot.pop()
        if cfg.use_wconv:
            h = ad.transpose(h, (1, 0))
        flat = ad.reshape(h, lead + (cfg.C, cfg.d * cfg.L))
        y = ad.linear(flat, par["head.w"], par["head.b"])
        return instance_denormalize(y, stats)
