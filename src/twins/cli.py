"""Command line front end.

Exit codes: 0 success, 1 configuration or data errors, 2 training aborted
on a non-finite loss, 3 selfcheck failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np

from . import analysis as ana
from . import autodiff as ad
from . import data as dt
from .attention import init_subnet, paa_scores
from .autodiff import Tensor
from .gradcheck import OP_CALLS, run_op_checks
from .model import VARIANTS, ModelConfig, TwinSModel, \
    instance_denormalize, instance_normalize
from .patching import window_fold, window_unfold
from .training import TrainAbort, check_splits, evaluate, load_checkpoint, \
    lookback_mean_baseline, save_checkpoint, train

EXIT_USAGE = 1
EXIT_NAN = 2
EXIT_SELFCHECK = 3

OUT_ROOT_VAR = "TWINS_OUT"


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise CliError(EXIT_USAGE, message)


# ------------------------------------------------------------------ inputs

def _parse_synth(spec: str) -> dt.RawSeries:
    """Compact generator spec.

    Comma-separated key=value pairs; '|' may separate groups for
    readability. Global keys: len, channels, lag, noise, seed. Each
    period=N opens a component, modified by the amp=A and active=LO-HI
    keys that follow it. Example:
        len=2000,channels=2,lag=5|period=8|period=32,amp=0.5,active=400-1200
    """
    glob = {"len": 2000, "channels": 1, "lag": 0, "noise": 0.0, "seed": 0}
    comps: list = []
    for pair in spec.replace("|", ",").split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ValueError(f"synthetic spec: bad clause {pair!r}")
        key, val = (s.strip() for s in pair.split("=", 1))
        if key in ("amp", "active") and not comps:
            raise ValueError(f"synthetic spec: {key}= before any period=")
        if key == "active" and "-" not in val:
            raise ValueError(
                f"synthetic spec: active wants LO-HI, got {val!r}")
        if key not in glob and key not in ("period", "amp", "active"):
            raise ValueError(f"synthetic spec: unknown key {key!r}")
        try:
            if key == "period":
                comps.append([float(val), 1.0, None])  # period, amp, active
            elif key == "amp":
                comps[-1][1] = float(val)
            elif key == "active":
                lo, _, hi = val.partition("-")
                comps[-1][2] = (int(lo), int(hi))
            else:
                glob[key] = type(glob[key])(val)  # noise float, rest int
        except ValueError:
            raise ValueError(
                f"synthetic spec: bad value for {key}: {val!r}") from None
    if not comps:
        raise ValueError("synthetic spec: needs at least one period= entry")
    try:
        return dt.synth_multiperiod(glob["len"], glob["channels"], comps,
                                    lag_per_channel=glob["lag"],
                                    noise_std=glob["noise"], seed=glob["seed"])
    except ValueError as err:
        raise ValueError(f"synthetic spec: {err}") from None


def _load_series(args) -> tuple:
    if args.data and args.synthetic:
        raise CliError(EXIT_USAGE, "pass either --data or --synthetic, not both")
    if args.data:
        if not os.path.exists(args.data):
            raise CliError(EXIT_USAGE, f"data file not found: {args.data}")
        return dt.load_csv(args.data), args.data
    if args.synthetic:
        return _parse_synth(args.synthetic), f"synthetic:{args.synthetic}"
    raise CliError(EXIT_USAGE, "no input: pass --data CSV or --synthetic SPEC")


def _run_dir(args, source: str, cfg: ModelConfig | None) -> str:
    """The run's directory, with ``run.json`` and, given a config,
    ``config.json`` written: ``--out`` as given, made if missing; otherwise
    a new ``<subcommand>-<time>-<suffix>`` that no other run shares."""
    words = [args.command]
    if args.command == "analyze":
        words.append(args.analysis)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        run_dir = args.out
    else:
        root = os.environ.get(OUT_ROOT_VAR, "runs")
        os.makedirs(root, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_dir = tempfile.mkdtemp(prefix=f"{words[-1]}-{stamp}-", dir=root)
    config = cfg.to_dict() if cfg else None
    _write_json(os.path.join(run_dir, "run.json"), {
        "command": " ".join(words), "data": source, "config": config})
    if config is not None:
        _write_json(os.path.join(run_dir, "config.json"), config)
    return run_dir


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_from_args(args, C: int) -> ModelConfig:
    """Every ModelConfig field but C comes from the flag of the same dest."""
    cfg = ModelConfig(C=C, **{f.name: getattr(args, f.name)
                              for f in fields(ModelConfig) if f.name != "C"})
    cfg.validate()
    return cfg


def _training_run(args) -> tuple:
    """The flags' standardized splits and config, and the run's directory,
    made only once every split that training reads holds one window:
    (dataset, config, run_dir)."""
    raw, source = _load_series(args)
    ds = dt.split_standardize(raw)
    cfg = _config_from_args(args, C=raw.values.shape[0])
    check_splits(cfg, ds)
    return ds, cfg, _run_dir(args, source, cfg)


def _checkpoint_and_series(args) -> tuple:
    """The ``--ckpt`` model and the series checked against its channel
    count, as (model, raw, source, split)."""
    if not os.path.exists(args.ckpt):
        raise CliError(EXIT_USAGE, f"checkpoint not found: {args.ckpt}")
    model = load_checkpoint(args.ckpt)
    raw, source = _load_series(args)
    if raw.values.shape[0] != model.config.C:
        raise CliError(EXIT_USAGE,
                       f"series has {raw.values.shape[0]} channels, "
                       f"checkpoint expects {model.config.C}")
    return model, raw, source, dt.split_standardize(raw)


def _last_window(model: TwinSModel, ds: dt.SplitDataset,
                 raw: dt.RawSeries) -> np.ndarray:
    cfg = model.config
    if raw.values.shape[1] < cfg.L:
        raise CliError(EXIT_USAGE,
                       f"series length {raw.values.shape[1]} is shorter "
                       f"than the lookback {cfg.L}")
    std = (raw.values - ds.mean) / ds.scale
    return std[None, :, -cfg.L:]


# ---------------------------------------------------------------- commands

def cmd_train(args) -> int:
    ds, cfg, run_dir = _training_run(args)
    log_path = os.path.join(run_dir, "train_log.jsonl")
    with open(log_path, "w") as log_fh:
        def log_fn(record):
            log_fh.write(json.dumps(record) + "\n")
            if record["epoch"] is not None:
                print(f"epoch {record['epoch']}: "
                      f"train_loss={record['train_loss']:.6f} "
                      f"val_mse={record['val_mse']:.6f}")

        model, hist = train(cfg, ds, log_fn=log_fn)

    ckpt_path = os.path.join(run_dir, "model.ckpt")
    save_checkpoint(model, ckpt_path)
    base = lookback_mean_baseline(ds.test, cfg.L, cfg.T)
    metrics = {"best_epoch": hist.best_epoch,
               "best_val_mse": hist.best_val_mse,
               "epochs_run": len(hist.records),
               "test_mse": hist.test.mse, "test_mae": hist.test.mae,
               "baseline_mse": base.mse, "baseline_mae": base.mae}
    _write_json(os.path.join(run_dir, "metrics.json"), metrics)
    print(f"best epoch {hist.best_epoch}: val_mse={hist.best_val_mse:.6f}")
    print(f"test mse={hist.test.mse:.6f} mae={hist.test.mae:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    model, _, source, ds = _checkpoint_and_series(args)
    cfg = model.config
    dt.check_window_fit(ds.test, cfg.L, cfg.T, "test split")
    m = evaluate(model, ds.test, cfg.L, cfg.T)
    print(f"test mse={m.mse:.6f} mae={m.mae:.6f}")
    if args.out:
        _write_json(os.path.join(_run_dir(args, source, cfg), "metrics.json"),
                    {"test_mse": m.mse, "test_mae": m.mae})
    return 0


def cmd_forecast(args) -> int:
    model, raw, source, ds = _checkpoint_and_series(args)
    window = _last_window(model, ds, raw)
    with ad.no_grad():
        pred = model.forward(window)
    values = ds.destandardize(pred.data)          # (C, T) raw units
    run_dir = _run_dir(args, source, model.config)
    path = os.path.join(run_dir, "forecast.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(raw.names)
        for t in range(values.shape[1]):
            writer.writerow([f"{v:.9g}" for v in values[:, t]])
    print(f"forecast: {path} ({values.shape[0]} channels x "
          f"{values.shape[1]} steps)")
    return 0


def _selfcheck_cases(inject_bug):
    rng = np.random.default_rng(0)

    for name, ok, err in run_op_checks(inject_bug=inject_bug):
        yield f"gradcheck {name}", ok, f"rel err {err:.2e}"

    x = Tensor(rng.normal(size=(2, 3, 12)))
    pm = window_unfold(x, 3)
    back = window_fold(pm)
    yield "patch round-trip", bool(np.array_equal(back.data, x.data)), ""

    cfg = ModelConfig(C=2, L=8, T=4, d=2, num_scales=2, n_layers=1,
                      patch_len=4, heads=2, aware_heads=2, k=3, h=8,
                      ffn_hidden=8, seed=3)
    model = TwinSModel(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.ckpt")
        save_checkpoint(model, path)
        clone = load_checkpoint(path, expect_config=cfg)
    same = all(np.array_equal(model.params[k].data, clone.params[k].data)
               for k in model.params)
    yield "checkpoint round-trip", same, ""

    xn = rng.normal(size=(1, 3, 16))
    normed, stats = instance_normalize(Tensor(xn))
    rebuilt = instance_denormalize(normed, stats)
    err = float(np.max(np.abs(rebuilt.data - xn)))
    yield "instance-norm round-trip", err < 1e-10, f"max err {err:.2e}"

    sub = init_subnet(8, 2, 3, 6, rng)
    scores = paa_scores(Tensor(rng.normal(size=(1, 6, 8))), sub).data
    inside = bool(np.all(scores > 0.0) and np.all(scores < 1.0))
    yield "score range (0, 1)", inside, ""

    rep = ana.complexity_report(96, 8, 128, 3)
    ok = (rep.measured_mhsa == rep.analytic_mhsa
          and rep.measured_paa == rep.analytic_paa)
    yield ("flop ledger", ok,
           f"measured {rep.measured_mhsa}/{rep.measured_paa} vs "
           f"analytic {rep.analytic_mhsa}/{rep.analytic_paa}")


def cmd_selfcheck(args) -> int:
    if args.inject_bug is not None and args.inject_bug not in OP_CALLS:
        known = ", ".join(OP_CALLS)
        raise CliError(EXIT_USAGE,
                       f"unknown op for --inject-bug: {args.inject_bug!r} "
                       f"(known: {known})")
    failures = []
    for name, ok, detail in _selfcheck_cases(args.inject_bug):
        if ok:
            print(f"ok: {name}")
        else:
            suffix = f" ({detail})" if detail else ""
            print(f"FAIL: {name}{suffix}")
            failures.append(name)
    if failures:
        raise CliError(EXIT_SELFCHECK,
                       f"selfcheck failed: {', '.join(failures)}")
    print("selfcheck passed")
    return 0


def cmd_scalogram(args) -> int:
    raw, source = _load_series(args)
    C = raw.values.shape[0]
    if not 0 <= args.channel < C:
        raise CliError(EXIT_USAGE,
                       f"channel {args.channel} out of range 0..{C - 1}")
    series = raw.values[args.channel]
    sg = ana.morlet_cwt(series, args.scales)
    run_dir = _run_dir(args, source, None)
    path = os.path.join(run_dir, "scalogram.csv")
    ana.scalogram_to_csv(sg, path)
    L = series.size
    band = sg.energy[:, L // 4:3 * L // 4].sum(axis=1)
    peak = sg.scales[int(np.argmax(band))]
    print(f"peak scale {peak:.3f} "
          f"(wavelength {ana.fourier_wavelength(peak):.3f})")
    print(f"scalogram: {path}")
    return 0


def cmd_attn(args) -> int:
    model, raw, source, ds = _checkpoint_and_series(args)
    window = _last_window(model, ds, raw)
    run_dir = _run_dir(args, source, model.config)
    path = os.path.join(run_dir, "attention.csv")
    ana.export_attention(model, window, args.layer, args.head, path,
                         channel=args.channel)
    print(f"attention matrix: {path}")
    return 0


def cmd_flops(args) -> int:
    # the closed forms hold for any k (they meet at the even k = 2D), but
    # a ledger printed for a model needs a width the score subnet accepts
    if args.k % 2 == 0:
        raise ValueError(f"k must be odd, got {args.k}")
    report = ana.flop_analytic if args.no_measure else ana.complexity_report
    rep = report(args.T, args.P, args.D, args.k)
    N = args.T // args.P
    print(f"T={rep.T} P={rep.P} D={rep.D} k={rep.k} ({N} tokens)")
    print(f"analytic dot-product attention: {rep.analytic_mhsa} MACs")
    print(f"analytic keyless attention:     {rep.analytic_paa} MACs")
    if rep.measured_mhsa is not None:
        print(f"measured dot-product attention: {rep.measured_mhsa} MACs")
        print(f"measured keyless attention:     {rep.measured_paa} MACs")
    print(f"keyless cheaper (k < 2D): {'yes' if rep.paa_cheaper else 'no'}")
    return 0


def cmd_ablate(args) -> int:
    ds, base, run_dir = _training_run(args)
    rows = ana.ablation_run(base, ds, log=print)
    path = os.path.join(run_dir, "ablation.csv")
    ana.ablation_to_csv(rows, path)
    for name, metrics, secs, err in rows:
        if metrics is None:
            print(f"{name:14s} failed: {err}")
        else:
            print(f"{name:14s} mse={metrics.mse:.6f} "
                  f"mae={metrics.mae:.6f} ({secs:.1f}s)")
    print(f"table: {path}")
    return 0


# ------------------------------------------------------------------ parser

def _add_data_args(p):
    p.add_argument("--data", metavar="CSV",
                   help="CSV file, optional leading date column, one column "
                        "per channel")
    p.add_argument("--synthetic", metavar="SPEC",
                   help="generator spec, e.g. "
                        "'len=2000,channels=2|period=8|period=32,amp=0.5'")
    p.add_argument("--out", help="run directory (default: a new one under "
                                 f"${OUT_ROOT_VAR} or ./runs; eval writes "
                                 "none)")


def _list_of(kind):
    """argparse type: comma-separated ``kind`` values (int or float)."""
    noun = "integers" if kind is int else "numbers"

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(s) for s in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"wants comma-separated {noun}, got {text!r}") from None
    return parse


def _add_model_args(p):
    """Model and training flags; dest is the ModelConfig field, and each
    default but the lookback's and horizon's is that field's default."""
    g = p.add_argument_group("model")
    g.add_argument("--lookback", dest="L", type=int, default=96, metavar="L")
    g.add_argument("--horizon", dest="T", type=int, default=96, metavar="T")
    g.add_argument("--patch", dest="patch_len", type=int,
                   default=ModelConfig.patch_len, metavar="P",
                   help="window length used by every layer unless --scales")
    g.add_argument("--scales", type=_list_of(int), default=ModelConfig.scales,
                   metavar="S1,S2,..",
                   help="per-layer window lengths, overrides --patch")
    g.add_argument("--d", type=int, default=ModelConfig.d,
                   help="embedding width per time step")
    g.add_argument("--num-scales", type=int, default=ModelConfig.num_scales,
                   help="kernel bank size for the wavelet embedding")
    g.add_argument("--layers", dest="n_layers", type=int,
                   default=ModelConfig.n_layers, metavar="LAYERS")
    g.add_argument("--heads", type=int, default=ModelConfig.heads)
    g.add_argument("--aware-heads", type=int, default=ModelConfig.aware_heads,
                   help="score subnet head count")
    g.add_argument("--k", type=int, default=ModelConfig.k,
                   help="score subnet kernel width, odd")
    g.add_argument("--hidden", dest="h", type=int, default=ModelConfig.h,
                   metavar="HIDDEN", help="channel-time mixer hidden width")
    g.add_argument("--ffn-hidden", type=int, default=ModelConfig.ffn_hidden)
    g.add_argument("--variant", choices=VARIANTS, default=ModelConfig.variant)
    g.add_argument("--no-wconv", dest="use_wconv", action="store_false",
                   help="replace the wavelet embedding with a linear patch "
                        "map")
    g.add_argument("--no-ctmlp", dest="use_ctmlp", action="store_false")
    t = p.add_argument_group("training")
    t.add_argument("--lr", type=float, default=ModelConfig.lr)
    t.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    t.add_argument("--batch-size", type=int, default=ModelConfig.batch_size)
    t.add_argument("--patience", type=int, default=ModelConfig.patience)
    t.add_argument("--seed", type=int, default=ModelConfig.seed)
    t.add_argument("--dropout", type=float, default=ModelConfig.dropout)


def build_parser() -> _Parser:
    parser = _Parser(prog="twins",
                     description="Periodicity-aware multivariate forecaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    _add_data_args(p)
    _add_model_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="test-split metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    _add_data_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast",
                       help="continue the series past its last window")
    p.add_argument("--ckpt", required=True)
    _add_data_args(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("selfcheck",
                       help="gradient, round-trip, and ledger checks")
    p.add_argument("--inject-bug", metavar="OP",
                   help="corrupt one op's analytic gradient; the check "
                        "must then fail")
    p.set_defaults(func=cmd_selfcheck)

    az = sub.add_parser("analyze", help="diagnostics").add_subparsers(
        dest="analysis", required=True)

    p = az.add_parser("scalogram", help="wavelet energy map as CSV")
    _add_data_args(p)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--scales", type=_list_of(float), metavar="A1,A2,..",
                   help="explicit scale grid")
    p.set_defaults(func=cmd_scalogram)

    p = az.add_parser("attn", help="post-softmax attention matrix as CSV")
    p.add_argument("--ckpt", required=True)
    _add_data_args(p)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_attn)

    p = az.add_parser("flops", help="attention cost ledger")
    p.add_argument("--T", type=int, default=96, help="tokens before patching")
    p.add_argument("--P", type=int, default=8, help="patch length")
    p.add_argument("--D", type=int, default=128, help="token width")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--no-measure", action="store_true",
                   help="skip the instrumented forward pass")
    p.set_defaults(func=cmd_flops)

    p = az.add_parser("ablate", help="four-variant comparison table")
    _add_data_args(p)
    _add_model_args(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(f"error: {err.msg}", file=sys.stderr)
        return err.code
    except TrainAbort as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NAN
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
