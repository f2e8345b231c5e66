"""Model assembly: config, instance normalization, encoder layers, head.

The forward pipeline: per-channel instance normalization, multi-scale
convolution embedding plus position table (or the linear-patch baseline in
ablation mode), a stack of pre-norm residual encoder layers operating on
patch maps, then a flatten + shared linear head per channel, de-normalized
back to the input scale.

Shapes follow the rest of the package: raw windows are (1, C, L) with an
optional batch prefix, predictions are (C, T).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import attention as at
from . import embedding as emb
from . import patching as pt
from .autodiff import Tensor

INSTANCE_EPS = 1e-5

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
        # alternate shifted windows: odd layers shift by half a period
        return self.P_at(l) // 2 if l % 2 == 1 else 0

    def ffn_at(self, l: int) -> int:
        return self.ffn_hidden if self.ffn_hidden else 2 * self.D_at(l)

    @property
    def P_max(self) -> int:
        return max(self.P_at(l) for l in range(self.n_layers))

    def has_qk(self) -> bool:
        return self.variant in ("mhsa", "twins_plus")

    def has_subnet(self) -> bool:
        return self.variant in ("twins", "twins_plus")

    def validate(self) -> None:
        def req(cond, msg):
            if not cond:
                raise ValueError(f"config: {msg}")

        req(self.C >= 1 and self.L >= 1 and self.T >= 1,
            f"C/L/T must be positive, got {self.C}/{self.L}/{self.T}")
        req(self.d >= 1, f"d must be >= 1, got {self.d}")
        req(self.num_scales >= 1, f"num_scales must be >= 1, got {self.num_scales}")
        req(self.n_layers >= 1, f"n_layers must be >= 1, got {self.n_layers}")
        req(self.variant in VARIANTS,
            f"variant {self.variant!r} not one of {VARIANTS}")
        req(self.scales is None or len(self.scales) == self.n_layers,
            f"scales list has {len(self.scales or [])} entries "
            f"for {self.n_layers} layers")
        req(self.k % 2 == 1, f"subnet kernel k must be odd, got {self.k}")
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
        data = dict(data)
        # legacy key: use_paa=false meant plain dot-product attention
        if not data.pop("use_paa", True):
            data["variant"] = "mhsa"
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
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
    eps: float = INSTANCE_EPS


def instance_normalize(x) -> tuple:
    """Subtract per-channel lookback mean, divide by (std + eps).

    Stats are retained so predictions can be mapped back to input scale.
    """
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xd.ndim < 3 or xd.shape[-3] != 1:
        raise ValueError(f"expected (..., 1, C, L), got {xd.shape}")
    mean = xd.mean(axis=-1, keepdims=True)
    std = xd.std(axis=-1, keepdims=True)
    xn = (xd - mean) / (std + INSTANCE_EPS)
    stats = NormStats(np.squeeze(mean, axis=-3), np.squeeze(std, axis=-3))
    return Tensor(xn), stats


def instance_denormalize(pred: Tensor, stats: NormStats) -> Tensor:
    """Map (..., C, T) predictions back: pred * (std + eps) + mean."""
    scale = Tensor(stats.std + stats.eps)
    shift = Tensor(stats.mean)
    return ad.add(ad.mul(pred, scale), shift)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise D -> hidden -> D with GELU."""
    return ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def ct_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Mix along the flattened channel-patch axis, per feature row.

    (..., C, P, D) -> view (..., D, C*P) -> C*P -> h -> C*P -> back.
    This is the one block that couples channels, so it breaks channel
    permutation equivariance by design.
    """
    n = x.ndim
    C, P, D = x.shape[-3], x.shape[-2], x.shape[-1]
    if w1.shape[0] != C * P:
        raise ValueError(
            f"mixer width {w1.shape[0]} does not match C*P = {C}*{P}"
        )
    lead = x.shape[:-3]
    xt = ad.transpose(x, tuple(range(n - 3)) + (n - 1, n - 3, n - 2))
    rows = ad.reshape(xt, lead + (D, C * P))
    mixed = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(rows, w1), b1)), w2), b2)
    back = ad.reshape(mixed, lead + (D, C, P))
    m = back.ndim
    return ad.transpose(back, tuple(range(m - 3)) + (m - 2, m - 1, m - 3))


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form size of the parameter store for a config."""
    total = 0
    if cfg.use_wconv:
        total += cfg.d * (2 ** cfg.num_scales - 1)     # kernel bank
        total += cfg.d * cfg.L                          # position table
    else:
        D0 = cfg.D_at(0)
        total += cfg.patch_len * D0 + D0                # patch affine map
    for l in range(cfg.n_layers):
        D, P, F = cfg.D_at(l), cfg.P_at(l), cfg.ffn_at(l)
        total += 2 * D                                  # ln1
        total += (4 if cfg.has_qk() else 2) * D * D     # attention projections
        if cfg.has_subnet():
            total += D * cfg.k + D * cfg.P_max          # dw kernels + W_p
        total += 2 * D                                  # ln2
        total += D * F + F + F * D + D                  # ffn
        if cfg.use_ctmlp:
            total += 2 * D                              # ln3
            cp = cfg.C * P
            total += cp * cfg.h + cfg.h + cfg.h * cp + cp
    head_in = cfg.d * cfg.L if cfg.use_wconv else cfg.P_at(0) * cfg.D_at(0)
    total += head_in * cfg.T + cfg.T                    # shared head
    return total


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
                sub = at.init_subnet(D, cfg.aware_heads, cfg.k, cfg.P_max, rng)
                par[f"{p}.subnet.dw"] = sub.dw_kernels
                par[f"{p}.subnet.w_p"] = sub.w_p
            self._norm(f"{p}.ln2", D)
            self._linear(f"{p}.ffn.w1", f"{p}.ffn.b1", D, F, rng)
            self._linear(f"{p}.ffn.w2", f"{p}.ffn.b2", F, D, rng)
            if cfg.use_ctmlp:
                cp = cfg.C * P
                self._norm(f"{p}.ln3", D)
                self._linear(f"{p}.ct.w1", f"{p}.ct.b1", cp, cfg.h, rng)
                self._linear(f"{p}.ct.w2", f"{p}.ct.b2", cfg.h, cp, rng)
        head_in = cfg.d * cfg.L if cfg.use_wconv else cfg.P_at(0) * cfg.D_at(0)
        self._linear("head.w", "head.b", head_in, cfg.T, rng)
        self._dropout_rng = np.random.default_rng(cfg.seed + 1)

    def parameters(self) -> list:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

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

    def _maybe_dropout(self, x: Tensor, training: bool) -> Tensor:
        if training and self.config.dropout > 0.0:
            return ad.dropout(x, self.config.dropout, self._dropout_rng)
        return x

    def _residual_block(self, h: Tensor, l: int, probe=None,
                        training: bool = False) -> Tensor:
        """Attention, FFN, and mixer branches with pre-norm residuals."""
        cfg = self.config
        p = f"layers.{l}"
        par = self.params
        z = ad.layer_norm(h, par[f"{p}.ln1.g"], par[f"{p}.ln1.b"])
        layer_probe = {} if probe is not None else None
        subnet = self.score_subnet(l) if cfg.has_subnet() else None
        a = at.attention_block(cfg.variant, z,
                               self.attention_weights(l), subnet,
                               probe=layer_probe)
        if probe is not None:
            probe.setdefault("attn_layers", []).append(layer_probe["attn"])
        h = ad.add(h, self._maybe_dropout(a, training))
        z = ad.layer_norm(h, par[f"{p}.ln2.g"], par[f"{p}.ln2.b"])
        f = feed_forward(z, par[f"{p}.ffn.w1"], par[f"{p}.ffn.b1"],
                         par[f"{p}.ffn.w2"], par[f"{p}.ffn.b2"])
        h = ad.add(h, self._maybe_dropout(f, training))
        if cfg.use_ctmlp:
            z = ad.layer_norm(h, par[f"{p}.ln3.g"], par[f"{p}.ln3.b"])
            m = ct_mlp(z, par[f"{p}.ct.w1"], par[f"{p}.ct.b1"],
                       par[f"{p}.ct.w2"], par[f"{p}.ct.b2"])
            h = ad.add(h, self._maybe_dropout(m, training))
        return h

    def encoder_layer(self, x_point: Tensor, l: int, probe=None,
                      training: bool = False) -> Tensor:
        """Unfold at this layer's scale, run the block, restore the point map."""
        cfg = self.config
        pm = pt.window_unfold(x_point, cfg.scale_at(l))
        r = cfg.roll_at(l)
        pm = pt.window_roll(pm, r)
        h = self._residual_block(pm.data, l, probe=probe, training=training)
        pm = replace(pm, data=h)
        pm = pt.window_roll(pm, -r)
        return pt.window_fold(pm)

    def forward(self, x, probe=None, training: bool = False) -> Tensor:
        """(1, C, L) raw window (batch prefix allowed) -> (C, T) forecast."""
        cfg = self.config
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.shape[-3] != 1 or x.shape[-2] != cfg.C or x.shape[-1] != cfg.L:
            raise ValueError(
                f"input {x.shape} does not match config (1, {cfg.C}, {cfg.L})"
            )
        xn, stats = instance_normalize(x)
        lead = x.shape[:-3]
        if cfg.use_wconv:
            pm = emb.wconv_embed(xn, self.params["embed.bank"])
            pm = emb.add_position(pm, self.params["embed.pos"])
            for l in range(cfg.n_layers):
                pm = self.encoder_layer(pm, l, probe=probe, training=training)
            n = pm.ndim
            z = ad.transpose(pm, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))
            flat = ad.reshape(z, lead + (cfg.C, cfg.d * cfg.L))
        else:
            h = emb.linear_patch_embed(xn, cfg.patch_len,
                                       self.params["embed.patch.w"],
                                       self.params["embed.patch.b"])
            for l in range(cfg.n_layers):
                h = self._residual_block(h, l, probe=probe, training=training)
            flat = ad.reshape(h, lead + (cfg.C, cfg.P_at(0) * cfg.D_at(0)))
        y = ad.add(ad.matmul(flat, self.params["head.w"]), self.params["head.b"])
        return instance_denormalize(y, stats)
