"""Analysis tooling: wavelet scalograms, attention export, complexity ledger,
and the four-variant ablation harness."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import attention as at
from . import autodiff as ad
from .autodiff import Tensor
from .data import SplitDataset
from .model import VARIANTS, ModelConfig, TwinSModel
from .training import train

OMEGA0 = 6.0
VOICES = 12


@dataclass
class Scalogram:
    scales: np.ndarray        # strictly increasing, positive
    energy: np.ndarray        # (num_scales, L), non-negative
    omega0: float = OMEGA0


@dataclass
class FlopReport:
    T: int
    P: int
    D: int
    k: int
    analytic_mhsa: int
    analytic_paa: int
    paa_cheaper: bool                      # the k < 2D condition
    measured_mhsa: Optional[int] = None
    measured_paa: Optional[int] = None


def default_scales(L: int) -> np.ndarray:
    """Geometric grid, ``VOICES`` per octave, from 2 up to L/2."""
    top = L / 2.0
    out = []
    j = 0
    while True:
        a = 2.0 * 2.0 ** (j / VOICES)
        if a > top * (1 + 1e-12):
            break
        out.append(a)
        j += 1
    return np.array(out)


def fourier_wavelength(a):
    """Wavelength of the oscillation a scale-a kernel responds to most."""
    return 4.0 * math.pi * a / (OMEGA0 + math.sqrt(2.0 + OMEGA0 ** 2))


def morlet_cwt(series: np.ndarray, scales=None) -> Scalogram:
    """Energy of the complex Morlet transform by direct summation.

    psi(t) = pi^(-1/4) exp(i*OMEGA0*t) exp(-t^2/2), support truncated at
    four standard deviations, and at L - 1 samples, past which no tap
    meets the series. energy(a, tau) = |a^(-1/2) * sum_t x(t)
    conj(psi)((t - tau)/a)|^2 with zero padding at the edges.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    L = x.size
    if L < 8:
        raise ValueError(f"series too short for a scalogram: L={L}")
    if scales is None:
        scales = default_scales(L)
    scales = np.asarray(scales, dtype=np.float64)
    if not np.all((scales > 0) & (scales < np.inf)):  # nan fails both
        raise ValueError(f"scales must be positive and finite, got {scales}")
    norm = math.pi ** -0.25
    energy = np.empty((scales.size, L))
    for si, a in enumerate(scales):
        R = min(int(math.floor(4.0 * a)), L - 1)
        u = np.arange(-R, R + 1) / a
        # w(u) = conj(psi)(u); the correlation sum_t x(t) w(t - tau) is the
        # convolution of x with w reversed
        w = norm * np.exp(-1j * OMEGA0 * u) * np.exp(-0.5 * u * u)
        # full convolution with the reversed kernel puts the lag-tau
        # correlation at index tau + R, valid even when 2R + 1 > L
        full = np.convolve(x, w[::-1])
        coeff = full[R:R + L] / math.sqrt(a)
        energy[si] = np.abs(coeff) ** 2
    return Scalogram(scales, energy)


def scalogram_to_csv(sg: Scalogram, path: str) -> None:
    """One row per scale: the scale value, then L energy columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scale"] + [f"t{i}" for i in range(sg.energy.shape[1])])
        for a, row in zip(sg.scales, sg.energy):
            writer.writerow([f"{a:.9g}"] + [f"{v:.9g}" for v in row])


def check_attention_indices(cfg: ModelConfig, layer: int, head: int,
                            channel: int) -> None:
    """Raise unless the model of ``cfg`` has this layer, head and channel."""
    for name, i, n in (("layer", layer, cfg.n_layers),
                       ("head", head, cfg.heads), ("channel", channel, cfg.C)):
        if not 0 <= i < n:
            raise ValueError(f"{name} {i} out of range 0..{n - 1}")


def export_attention(model: TwinSModel, window: np.ndarray, layer: int,
                     head: int, path: str, channel: int = 0) -> np.ndarray:
    """Write one post-softmax P x P attention matrix as CSV."""
    check_attention_indices(model.config, layer, head, channel)
    probe: dict = {}
    with ad.no_grad():
        model.forward(window, probe=probe)
    mat = probe["attn_layers"][layer][head, channel]       # (P, P)
    np.savetxt(path, mat, delimiter=",", fmt="%.12g")
    return mat


def _check_sizes(T: int, P: int, D: int, k: int) -> None:
    for name, value in dict(T=T, P=P, D=D, k=k).items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if T % P != 0:
        raise ValueError(f"P={P} must divide T={T}")


def flop_analytic(T: int, P: int, D: int, k: int) -> FlopReport:
    """Closed-form multiply-accumulate counts of both attention blocks.

    With N = T/P patch tokens:
      dot-product block: 4*N*D^2 (q,k,v,o maps) + 2*N^2*D (qk^T and attn*v)
      keyless block:     2*N*D^2 (v,o maps) + (k+N)*N*D (scoring) + N^2*D
    """
    _check_sizes(T, P, D, k)
    N = T // P
    mhsa = 4 * N * D * D + 2 * N * N * D
    paa = 2 * N * D * D + (k + N) * N * D + N * N * D
    return FlopReport(T, P, D, k, mhsa, paa, paa_cheaper=k < 2 * D)


def flop_measured(variant: str, T: int, P: int, D: int, k: int) -> int:
    """Instrumented MAC count of one forward attention block.

    Counts projections, score computation, and value aggregation only,
    on a single channel of N = T/P tokens, with one head and one score map:
    the count does not depend on how D is split, and every D allows it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant {variant!r} not one of {VARIANTS}")
    _check_sizes(T, P, D, k)
    N = T // P
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, N, D)))
    w = at.init_attention(D, 1, rng, keyless=(variant == "twins"))
    sub = at.init_subnet(D, 1, k, N, rng) if variant != "mhsa" else None
    ad.reset_mac_count()
    ad.enable_mac_counting(True)
    try:
        with ad.no_grad():
            at.attention_block(x, w, sub)
    finally:
        ad.enable_mac_counting(False)
    return ad.mac_count()


def complexity_report(T: int, P: int, D: int, k: int) -> FlopReport:
    """Analytic ledger plus measured counts from the instrumented ops."""
    rep = flop_analytic(T, P, D, k)
    return replace(rep,
                   measured_mhsa=flop_measured("mhsa", T, P, D, k),
                   measured_paa=flop_measured("twins", T, P, D, k))


ABLATION_VARIANTS = (
    ("full", {}),
    ("no_wconv_rwp", {"use_wconv": False}),
    ("no_ctmlp", {"use_ctmlp": False}),
    ("no_paa", {"variant": "mhsa"}),
)


def ablation_run(base: ModelConfig, dataset: SplitDataset,
                 log=print) -> list:
    """Train the four standard variants with a shared seed and budget.

    Returns rows (name, Metrics | None, seconds, error | None); one
    variant's failure does not stop the others.
    """
    rows = []
    for name, overrides in ABLATION_VARIANTS:
        t0 = time.monotonic()
        try:
            cfg = replace(base, **overrides)
            _, hist = train(cfg, dataset)
            rows.append((name, hist.test, time.monotonic() - t0, None))
        except Exception as err:  # noqa: BLE001 - isolate per-variant failures
            rows.append((name, None, time.monotonic() - t0, str(err)))
            if log:
                log(f"variant {name} failed: {err}")
    return rows


def ablation_to_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mse", "mae", "seconds"])
        for name, metrics, secs, _err in rows:
            if metrics is None:
                writer.writerow([name, "nan", "nan", f"{secs:.3f}"])
            else:
                writer.writerow([name, f"{metrics.mse:.6f}",
                                 f"{metrics.mae:.6f}", f"{secs:.3f}"])
