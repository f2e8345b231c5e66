import json
import os

import numpy as np
import pytest

import twins.cli as cli
import twins.data as dt
from twins.model import ModelConfig
from twins.training import CKPT_MAGIC, TrainAbort

SPEC = "len=160,channels=2,lag=2,noise=0.05,seed=3|period=8|period=16,amp=0.5"
MODEL_FLAGS = ["--lookback", "8", "--horizon", "4", "--patch", "4",
               "--d", "2", "--num-scales", "2", "--layers", "1",
               "--heads", "2", "--aware-heads", "2", "--hidden", "8",
               "--ffn-hidden", "8", "--epochs", "2", "--batch-size", "16",
               "--lr", "1e-3"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = cli.main(["train", "--synthetic", SPEC, *MODEL_FLAGS,
                   "--out", str(out)])
    assert rc == 0
    return out


def test_train_artifacts(trained):
    for name in ("run.json", "config.json", "train_log.jsonl",
                 "model.ckpt", "metrics.json"):
        assert (trained / name).exists(), name
    cfg = json.loads((trained / "config.json").read_text())
    assert cfg["C"] == 2 and cfg["L"] == 8 and cfg["T"] == 4
    lines = (trained / "train_log.jsonl").read_text().strip().splitlines()
    records = [json.loads(s) for s in lines]
    assert len(records) == 3          # two epochs plus the final test record
    assert records[0]["epoch"] == 0
    assert records[-1]["epoch"] is None
    assert np.isfinite(records[-1]["test_mse"])
    metrics = json.loads((trained / "metrics.json").read_text())
    assert {"best_epoch", "test_mse", "test_mae",
            "baseline_mse"} <= set(metrics)


def test_eval_reproduces_train_metrics(trained, tmp_path):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--ckpt", str(trained / "model.ckpt"),
                   "--synthetic", SPEC, "--out", str(out)])
    assert rc == 0
    got = json.loads((out / "metrics.json").read_text())
    want = json.loads((trained / "metrics.json").read_text())
    assert got["test_mse"] == want["test_mse"]
    assert got["test_mae"] == want["test_mae"]


def test_eval_channel_mismatch(trained, capfd):
    rc = cli.main(["eval", "--ckpt", str(trained / "model.ckpt"),
                   "--synthetic", "len=120,period=8"])
    assert rc == 1
    assert "channels" in capfd.readouterr().err


def test_eval_names_the_short_test_split(trained, tmp_path, capfd):
    # len=55 leaves a test split of 11 steps, one short of L + T = 12
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--ckpt", str(trained / "model.ckpt"),
                   "--synthetic", "len=55,channels=2|period=8",
                   "--out", str(out)])
    assert rc == 1
    assert capfd.readouterr().err == (
        "error: test split of length 11 too short for L=8, T=4\n")
    assert not out.exists()


@pytest.mark.parametrize("header, message", [
    (b"[1]", "config: must be an object, got list"),
    (b'{"C": 2}', "config: missing keys ['L', 'T']"),
    (b"\xff\xfe", "corrupt checkpoint: config is not JSON"),
])
@pytest.mark.parametrize("command", [["eval"], ["forecast"],
                                     ["analyze", "attn"]])
def test_bad_config_header_exit_code(trained, tmp_path, capfd, command,
                                     header, message):
    blob = (trained / "model.ckpt").read_bytes()
    start = len(CKPT_MAGIC) + 4     # past the magic and the header length
    n = int.from_bytes(blob[start - 4:start], "little")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob[:start - 4] + len(header).to_bytes(4, "little")
                     + header + blob[start + n:])
    rc = cli.main([*command, "--ckpt", str(path), "--synthetic", SPEC,
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert message in capfd.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_checkpoint(tmp_path, capfd):
    missing = str(tmp_path / "ghost.ckpt")
    rc = cli.main(["eval", "--ckpt", missing, "--synthetic", SPEC])
    assert rc == 1
    assert "ghost.ckpt" in capfd.readouterr().err


def test_forecast_csv(trained, tmp_path):
    out = tmp_path / "fc"
    rc = cli.main(["forecast", "--ckpt", str(trained / "model.ckpt"),
                   "--synthetic", SPEC, "--out", str(out)])
    assert rc == 0
    lines = (out / "forecast.csv").read_text().strip().splitlines()
    assert len(lines) == 5            # header plus T=4 rows
    assert len(lines[0].split(",")) == 2
    body = np.array([[float(v) for v in s.split(",")] for s in lines[1:]])
    assert body.shape == (4, 2) and np.all(np.isfinite(body))


def test_attn_export(trained, tmp_path):
    out = tmp_path / "attn"
    rc = cli.main(["analyze", "attn", "--ckpt", str(trained / "model.ckpt"),
                   "--synthetic", SPEC, "--layer", "0", "--head", "1",
                   "--out", str(out)])
    assert rc == 0
    mat = np.loadtxt(out / "attention.csv", delimiter=",")
    assert mat.shape == (2, 2)        # L=8, patch 4
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-6


def test_scalogram_cmd(tmp_path, capfd):
    out = tmp_path / "sg"
    rc = cli.main(["analyze", "scalogram", "--synthetic",
                   "len=128,period=16", "--out", str(out)])
    assert rc == 0
    assert "peak scale" in capfd.readouterr().out
    lines = (out / "scalogram.csv").read_text().splitlines()
    assert lines[0].startswith("scale,")
    assert len(lines[1].split(",")) == 129


@pytest.mark.parametrize("scales", ["", "a,b", "2,,4"],
                         ids=["empty", "letters", "empty_item"])
def test_scalogram_bad_scales_rejected(scales, tmp_path, capfd):
    rc = cli.main(["analyze", "scalogram", "--synthetic", "len=128,period=16",
                   "--scales", scales, "--out", str(tmp_path / "sg")])
    assert rc == 1
    assert "argument --scales: wants comma-separated numbers" in \
        capfd.readouterr().err


def test_scalogram_scales_parsed():
    args = cli.build_parser().parse_args(
        ["analyze", "scalogram", "--scales", "2,4.5"])
    assert args.scales == (2.0, 4.5)


def test_flops_reference_values(capfd):
    rc = cli.main(["analyze", "flops", "--T", "96", "--P", "8",
                   "--D", "128", "--k", "3"])
    assert rc == 0
    out = capfd.readouterr().out
    assert "823296" in out and "434688" in out
    assert "yes" in out


def test_flops_any_width(capfd):
    # one head and one score map measure every D, not only multiples of 4
    rc = cli.main(["analyze", "flops", "--D", "6"])
    assert rc == 0
    out = capfd.readouterr().out
    assert "measured dot-product attention: 3456 MACs" in out
    assert "measured keyless attention:     2808 MACs" in out


def test_flops_bad_grid(capfd):
    rc = cli.main(["analyze", "flops", "--T", "96", "--P", "7"])
    assert rc == 1
    assert "divide" in capfd.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--T", "0"], "must be >= 1"), (["--D", "0"], "must be >= 1"),
    (["--no-measure", "--D", "0"], "must be >= 1"),
    (["--no-measure", "--k", "-1"], "must be >= 1"),
    (["--no-measure", "--k", "4"], "k must be odd"),
], ids=["T", "D", "D_no_measure", "k_no_measure", "k_even_no_measure"])
def test_flops_non_positive_rejected(flags, message, capfd):
    # an even k fits no model, with or without the measured counts
    rc = cli.main(["analyze", "flops", *flags])
    assert rc == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err


def test_missing_data_file(capfd):
    rc = cli.main(["train", "--data", "/no/such/file.csv", *MODEL_FLAGS])
    assert rc == 1
    assert "/no/such/file.csv" in capfd.readouterr().err


def test_both_sources_rejected(capfd):
    rc = cli.main(["train", "--data", "x.csv", "--synthetic", SPEC,
                   *MODEL_FLAGS])
    assert rc == 1


def test_no_source_rejected(capfd):
    rc = cli.main(["train", *MODEL_FLAGS])
    assert rc == 1
    assert "--data" in capfd.readouterr().err


def test_bad_config_exit_code(capfd):
    rc = cli.main(["train", "--synthetic", SPEC, "--lookback", "8",
                   "--horizon", "4", "--patch", "5"])
    assert rc == 1
    assert "error:" in capfd.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--heads", "0"), ("--batch-size", "0"), ("--patience", "0"),
])
def test_out_of_range_flag_exit_code(flag, value, tmp_path, capfd):
    rc = cli.main(["train", "--synthetic", SPEC, *MODEL_FLAGS, flag, value,
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "config: " in capfd.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("spec, message", [
    ("len=-5,channels=2|period=8", "length must be >= 1, got -5"),
    ("len=0|period=8", "length must be >= 1, got 0"),
    ("seed=-1|period=8", "seed must be >= 0, got -1"),
    ("noise=0.1,seed=-1|period=8", "seed must be >= 0, got -1"),
])
def test_bad_synth_length_or_seed_writes_no_run(spec, message, tmp_path,
                                                capfd):
    rc = cli.main(["train", "--synthetic", spec, *MODEL_FLAGS,
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capfd.readouterr().err == f"error: synthetic spec: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("spec", [
    "junk",
    "period=bad",
    "amp=2",                   # modifier before any component
    "period=8,active=5",       # missing the LO-HI dash
    "wibble=3",
    "channels=0|period=8",
    "noise=-1|period=8",
    "period=8,active=200-100",
])
def test_synth_spec_errors(spec, capfd):
    rc = cli.main(["analyze", "scalogram", "--synthetic", spec])
    assert rc == 1
    assert "synthetic spec" in capfd.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("junk", "bad clause 'junk'"),
    ("period=bad", "bad value for period: 'bad'"),
    ("active=1-2", "active= before any period="),
    ("period=8,active=5", "active wants LO-HI, got '5'"),
    ("period=8,active=a-b", "bad value for active: 'a-b'"),
    ("=3", "unknown key ''"),
    ("len=3.0|period=8", "bad value for len: '3.0'"),
    ("noise=abc|period=8", "bad value for noise: 'abc'"),
    ("len=64", "needs at least one period= entry"),
    ("period=1", "component period must be >= 2, got 1.0"),
    ("period=nan", "component period must be finite, got nan"),
    ("period=8,amp=inf", "component amplitude must be finite, got inf"),
    ("period=8,amp=nan", "component amplitude must be finite, got nan"),
    ("noise=nan|period=8", "noise std must be finite, got nan"),
    ("noise=-inf|period=8", "noise std must be finite, got -inf"),
])
def test_synth_spec_messages(spec, message):
    with pytest.raises(ValueError) as err:
        cli._parse_synth(spec)
    assert str(err.value) == f"synthetic spec: {message}"


def test_synth_spec_groups_and_spaces():
    raw = cli._parse_synth(" len = 64 , lag=2,channels=3|period=8,amp=0.5|"
                           "period=16,active=10-40,noise=0.3,seed=1")
    want = dt.synth_multiperiod(64, 3, [(8.0, 0.5, None), (16.0, 1.0, (10, 40))],
                                lag_per_channel=2, noise_std=0.3, seed=1)
    assert raw.names == want.names
    np.testing.assert_array_equal(raw.values, want.values)


def test_nan_abort_maps_to_exit_2(monkeypatch, tmp_path, capfd):
    def explode(cfg, dataset, **kw):
        raise TrainAbort(0, 1)

    monkeypatch.setattr(cli, "train", explode)
    rc = cli.main(["train", "--synthetic", SPEC, *MODEL_FLAGS,
                   "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "non-finite" in capfd.readouterr().err


def test_selfcheck_passes(capfd):
    rc = cli.main(["selfcheck"])
    out = capfd.readouterr().out
    assert rc == 0
    assert "selfcheck passed" in out
    assert "FAIL" not in out
    assert "ok: gradcheck matmul" in out
    assert "ok: flop ledger" in out


def test_selfcheck_inject_bug_fails_named_op(capfd):
    rc = cli.main(["selfcheck", "--inject-bug", "softmax"])
    captured = capfd.readouterr()
    assert rc == 3
    assert "FAIL: gradcheck softmax" in captured.out
    assert "softmax" in captured.err


def test_selfcheck_unknown_op(capfd):
    rc = cli.main(["selfcheck", "--inject-bug", "wibble"])
    assert rc == 1
    assert "wibble" in capfd.readouterr().err


def test_bare_train_parse_builds_config_defaults():
    args = cli.build_parser().parse_args(["train"])
    assert cli._config_from_args(args, C=2) == ModelConfig(C=2, L=96, T=96)


def test_scales_flag_parsed(capfd):
    args = cli.build_parser().parse_args(["train", "--scales", "2,4"])
    assert args.scales == (2, 4)
    assert cli.main(["train", "--scales", "2,x"]) == 1
    assert "comma-separated integers" in capfd.readouterr().err


def test_unknown_flag_is_usage_error(capfd):
    rc = cli.main(["train", "--bogus"])
    assert rc == 1


def test_ablate_cmd(tmp_path, capfd):
    out = tmp_path / "ab"
    rc = cli.main(["analyze", "ablate", "--synthetic",
                   "len=140,channels=2,period=8", *MODEL_FLAGS,
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,mse,mae,seconds"
    assert len(lines) == 5
    assert lines[1].startswith("full,")


@pytest.mark.parametrize("command", [
    ["train"], ["eval", "--ckpt", "m.ckpt"], ["forecast", "--ckpt", "m.ckpt"],
    ["analyze", "scalogram"], ["analyze", "attn", "--ckpt", "m.ckpt"],
    ["analyze", "ablate"],
], ids=lambda c: c[-1] if c[-1] != "m.ckpt" else c[-3])
def test_data_commands_take_out(command):
    args = cli.build_parser().parse_args([*command, "--out", "dir"])
    assert args.out == "dir"


def test_blank_csv_header_is_an_error(tmp_path, capfd):
    path = tmp_path / "blank.csv"
    path.write_text("\n\n")
    rc = cli.main(["analyze", "scalogram", "--data", str(path),
                   "--out", str(tmp_path / "sg")])
    assert rc == 1
    assert capfd.readouterr().err == f"error: {path}: blank header line\n"


def test_out_root_env_var(tmp_path, monkeypatch, capfd):
    monkeypatch.setenv(cli.OUT_ROOT_VAR, str(tmp_path))
    rc = cli.main(["analyze", "scalogram", "--synthetic",
                   "len=128,period=16"])
    assert rc == 0
    made = os.listdir(tmp_path)
    assert len(made) == 1 and made[0].startswith("scalogram-")


def test_runs_in_one_second_get_their_own_dirs(tmp_path, monkeypatch, capfd):
    monkeypatch.setenv(cli.OUT_ROOT_VAR, str(tmp_path))
    monkeypatch.setattr(cli.time, "strftime", lambda *a: "20260101-000000")
    for _ in range(2):
        assert cli.main(["train", "--synthetic", SPEC, *MODEL_FLAGS]) == 0
    made = os.listdir(tmp_path)
    assert len(made) == 2
    for name in made:
        assert name.startswith("train-20260101-000000-")
        assert (tmp_path / name / "model.ckpt").exists()
    # --out names one directory, reused as it is
    out = str(tmp_path / "fixed")
    args = cli.build_parser().parse_args(["train", "--out", out])
    cfg = cli._config_from_args(args, C=1)
    assert (cli._run_dir(args, "synthetic:x", cfg)
            == cli._run_dir(args, "synthetic:x", cfg) == out)


@pytest.mark.parametrize("where", ["env", "out"])
def test_short_split_train_writes_nothing(where, tmp_path, monkeypatch,
                                          capfd):
    # len=15 leaves a training split of 9 steps, short of L + T = 12
    root = tmp_path / "root"
    root.mkdir()
    monkeypatch.setenv(cli.OUT_ROOT_VAR, str(root))
    out = ["--out", str(root / "run")] if where == "out" else []
    rc = cli.main(["train", "--synthetic", "len=15,channels=2|period=8",
                   *MODEL_FLAGS, *out])
    assert rc == 1
    assert capfd.readouterr().err == (
        "error: training split of length 9 too short for L=8, T=4\n")
    assert os.listdir(root) == []


def test_short_split_ablate_writes_nothing(tmp_path, monkeypatch, capfd):
    # len=15 leaves a training split of 9 steps, short of L + T = 12
    monkeypatch.setenv(cli.OUT_ROOT_VAR, str(tmp_path))
    rc = cli.main(["analyze", "ablate", "--synthetic",
                   "len=15,channels=2|period=8", *MODEL_FLAGS])
    assert rc == 1
    assert capfd.readouterr().err == (
        "error: training split of length 9 too short for L=8, T=4\n")
    assert os.listdir(tmp_path) == []
