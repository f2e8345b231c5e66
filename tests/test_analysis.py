import math
import os
import tracemalloc

import numpy as np
import pytest

import twins.analysis as ana
from twins.analysis import (
    ablation_run,
    ablation_to_csv,
    complexity_report,
    default_scales,
    export_attention,
    flop_analytic,
    flop_measured,
    fourier_wavelength,
    morlet_cwt,
    scalogram_to_csv,
)
from twins.data import split_standardize, synth_multiperiod
from twins.model import ModelConfig, TwinSModel


def micro_config(**kw):
    base = dict(C=2, L=8, T=4, d=2, num_scales=2, n_layers=1, patch_len=4,
                heads=2, aware_heads=2, k=3, h=8, ffn_hidden=8,
                variant="twins", seed=7)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------- wavelets

def cwt_reference(x, a, w0=6.0):
    """Literal double-sum transcription, for one scale."""
    L = len(x)
    R = int(math.floor(4 * a))
    E = np.zeros(L)
    for tau in range(L):
        c = 0j
        for t in range(max(0, tau - R), min(L, tau + R + 1)):
            u = (t - tau) / a
            psi = math.pi ** -0.25 * np.exp(1j * w0 * u) * math.exp(-u * u / 2)
            c += x[t] * np.conj(psi)
        E[tau] = abs(c / math.sqrt(a)) ** 2
    return E


@pytest.mark.parametrize("a", [2.0, 3.7, 9.0, 15.0])
def test_cwt_matches_direct_sum(a):
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    got = morlet_cwt(x, [a]).energy[0]
    ref = cwt_reference(x, a)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_cwt_kernel_capped_at_series_length():
    # taps past L - 1 samples never meet the series, so a huge scale costs
    # no more than one just above L and loses nothing
    x = np.random.default_rng(4).normal(size=128)
    a = 130.0
    R = int(math.floor(4 * a))  # the uncapped kernel, 2R + 1 = 1041 taps
    u = np.arange(-R, R + 1) / a
    w = math.pi ** -0.25 * np.exp(-6j * u) * np.exp(-0.5 * u * u)
    uncapped = np.abs(np.convolve(x, w[::-1])[R:R + 128] / math.sqrt(a)) ** 2
    np.testing.assert_array_equal(morlet_cwt(x, [a]).energy[0], uncapped)

    tracemalloc.start()
    try:
        got = morlet_cwt(x, [1e7]).energy[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the uncapped kernel alone would be 1.28 GB
    ref = cwt_reference(x, 1e7)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_cwt_zero_series():
    sg = morlet_cwt(np.zeros(64))
    assert sg.energy.shape == (sg.scales.size, 64)
    assert np.all(sg.energy == 0.0)


def test_cwt_energy_nonnegative():
    rng = np.random.default_rng(11)
    sg = morlet_cwt(rng.normal(size=50), [2.0, 5.0])
    assert np.all(sg.energy >= 0.0)


def test_cwt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        morlet_cwt(np.zeros(4))
    with pytest.raises(ValueError):
        morlet_cwt(np.zeros(32), [2.0, -1.0])
    with pytest.raises(ValueError):
        morlet_cwt(np.zeros(32), [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cwt_rejects_non_finite_scales(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        morlet_cwt(np.zeros(32), [2.0, bad])


def test_default_scales_grid():
    sc = default_scales(256)
    assert sc[0] == 2.0
    assert sc[-1] <= 128.0
    assert np.all(np.diff(sc) > 0)
    ratios = sc[1:] / sc[:-1]
    assert np.allclose(ratios, 2.0 ** (1.0 / 12.0))


def test_fourier_wavelength_value():
    # scale whose response peaks at wavelength 16
    astar = 16.0 * (6.0 + math.sqrt(38.0)) / (4.0 * math.pi)
    assert abs(fourier_wavelength(astar) - 16.0) < 1e-12


def test_period16_peak_scale():
    L = 256
    t = np.arange(L)
    sg = morlet_cwt(np.sin(2 * np.pi * t / 16))
    astar = 16.0 * (sg.omega0 + math.sqrt(2.0 + sg.omega0 ** 2)) / (4.0 * math.pi)
    nearest = int(np.argmin(np.abs(sg.scales - astar)))
    # interior columns only, away from edge truncation
    band = sg.energy[:, L // 4:3 * L // 4].sum(axis=1)
    assert abs(int(np.argmax(band)) - nearest) <= 1


def test_shift_equivariance_interior():
    L = 256

    def bump(center):
        tt = np.arange(L)
        envelope = np.exp(-0.5 * ((tt - center) / 10.0) ** 2)
        return envelope * np.sin(2 * np.pi * (tt - center) / 12)

    scales = [4.0, 8.0, 16.0]
    e1 = morlet_cwt(bump(100), scales).energy
    e2 = morlet_cwt(bump(107), scales).energy
    # columns at least max kernel radius (64) plus shift away from edges
    assert np.max(np.abs(e2[:, 80:180] - e1[:, 73:173])) < 1e-9


def test_active_interval_energy_localized():
    L = 512
    t = np.arange(L)
    rng = np.random.default_rng(0)
    x = np.sin(2 * np.pi * t / 8) * ((t >= 180) & (t < 330))
    x = x + rng.normal(0.0, 0.05, size=L)
    sg = morlet_cwt(x)
    astar = 8.0 * (sg.omega0 + math.sqrt(2.0 + sg.omega0 ** 2)) / (4.0 * math.pi)
    row = sg.energy[int(np.argmin(np.abs(sg.scales - astar)))]
    margin = 16  # two periods
    inside = row[180 + margin:330 - margin].mean()
    outside = np.concatenate([row[32:180 - margin],
                              row[330 + margin:L - 32]]).mean()
    assert inside > 5.0 * outside


def test_scalogram_csv(tmp_path):
    sg = morlet_cwt(np.sin(np.arange(64.0)), [2.0, 4.0, 8.0])
    path = str(tmp_path / "sg.csv")
    scalogram_to_csv(sg, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0].split(",")[0] == "scale"
    assert len(lines) == 4
    back = np.array([float(row.split(",")[0]) for row in lines[1:]])
    assert np.allclose(back, sg.scales)


# ------------------------------------------------------------- complexity

def test_flop_analytic_reference_point():
    rep = flop_analytic(96, 8, 128, 3)
    assert rep.analytic_mhsa == 823296
    assert rep.analytic_paa == 434688
    assert rep.paa_cheaper


def test_flop_analytic_rejects_ragged_grid():
    with pytest.raises(ValueError):
        flop_analytic(96, 7, 128, 3)


def test_flop_equal_at_k_twice_d():
    rep = flop_analytic(96, 8, 128, 256)
    assert rep.analytic_mhsa == rep.analytic_paa
    assert not rep.paa_cheaper


@pytest.mark.parametrize("k", [3, 5, 9, 17])
@pytest.mark.parametrize("D", [32, 64, 128, 192, 256])
def test_flop_grid_keyless_strictly_cheaper(k, D):
    rep = flop_analytic(96, 8, D, k)
    assert rep.paa_cheaper
    assert rep.analytic_paa < rep.analytic_mhsa


def test_flop_measured_matches_analytic_exactly():
    rep = complexity_report(96, 8, 128, 3)
    assert rep.measured_mhsa == rep.analytic_mhsa == 823296
    assert rep.measured_paa == rep.analytic_paa == 434688


def test_flop_measured_second_shape():
    rep = flop_analytic(64, 8, 32, 5)
    assert flop_measured("mhsa", 64, 8, 32, 5) == rep.analytic_mhsa
    assert flop_measured("twins", 64, 8, 32, 5) == rep.analytic_paa


def test_flop_measured_twins_plus_adds_scoring_cost():
    # full dot-product stack plus the (k+N)ND score subnet
    base = flop_analytic(96, 8, 128, 3)
    N = 96 // 8
    expected = base.analytic_mhsa + (3 + N) * N * 128
    assert flop_measured("twins_plus", 96, 8, 128, 3) == expected == 846336


def test_flop_measured_unknown_variant():
    with pytest.raises(ValueError):
        flop_measured("qkv", 96, 8, 128, 3)


# ------------------------------------------------------- attention export

def test_export_attention_rows_sum_to_one(tmp_path):
    cfg = micro_config(variant="twins_plus")
    model = TwinSModel(cfg)
    rng = np.random.default_rng(5)
    window = rng.normal(size=(1, cfg.C, cfg.L))
    path = str(tmp_path / "attn.csv")
    mat = export_attention(model, window, layer=0, head=1, path=path)
    P = cfg.L // cfg.patch_len
    assert mat.shape == (P, P)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-6
    back = np.loadtxt(path, delimiter=",")
    assert back.shape == (P, P)
    assert np.allclose(back, mat)


def test_export_attention_zero_subnet_uniform(tmp_path):
    cfg = micro_config(variant="twins")
    model = TwinSModel(cfg)
    sub = model.score_subnet(0)
    sub.dw_kernels.data[...] = 0.0
    sub.w_p.data[...] = 0.0
    window = np.random.default_rng(9).normal(size=(1, cfg.C, cfg.L))
    path = str(tmp_path / "uniform.csv")
    mat = export_attention(model, window, layer=0, head=0, path=path,
                           channel=1)
    P = cfg.L // cfg.patch_len
    assert np.max(np.abs(mat - 1.0 / P)) < 1e-12


def test_export_attention_range_errors(tmp_path):
    cfg = micro_config()
    model = TwinSModel(cfg)
    window = np.zeros((1, cfg.C, cfg.L))
    path = str(tmp_path / "x.csv")
    with pytest.raises(ValueError, match="layer"):
        export_attention(model, window, layer=3, head=0, path=path)
    with pytest.raises(ValueError, match="head"):
        export_attention(model, window, layer=0, head=9, path=path)
    with pytest.raises(ValueError, match="channel"):
        export_attention(model, window, layer=0, head=0, path=path, channel=5)
    assert not os.path.exists(path)


# --------------------------------------------------------------- ablation

def tiny_dataset():
    raw = synth_multiperiod(140, 2, [(8, 1.0, None)], lag_per_channel=2,
                            seed=4)
    return split_standardize(raw)


def test_ablation_four_rows():
    base = micro_config(epochs=1, batch_size=16, lr=1e-3, patience=5)
    rows = ablation_run(base, tiny_dataset(), log=None)
    assert [r[0] for r in rows] == ["full", "no_wconv_rwp", "no_ctmlp",
                                    "no_paa"]
    for name, metrics, secs, err in rows:
        assert err is None, f"{name}: {err}"
        assert metrics is not None and np.isfinite(metrics.mse)
        assert secs >= 0.0


def test_ablation_isolates_failures(monkeypatch, tmp_path):
    real_train = ana.train

    def sabotaged(cfg, dataset, **kw):
        if not cfg.use_ctmlp:
            raise RuntimeError("boom")
        return real_train(cfg, dataset, **kw)

    monkeypatch.setattr(ana, "train", sabotaged)
    base = micro_config(epochs=1, batch_size=16, lr=1e-3)
    rows = ablation_run(base, tiny_dataset(), log=None)
    assert rows[2][1] is None and "boom" in rows[2][3]
    assert all(r[1] is not None for i, r in enumerate(rows) if i != 2)

    path = str(tmp_path / "ablate.csv")
    ablation_to_csv(rows, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "variant,mse,mae,seconds"
    assert len(lines) == 5
    assert lines[3].startswith("no_ctmlp,nan,nan")
