"""Tests of the benchmark itself, on tiny shapes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import attention_table  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_MODEL = dict(C=2, L=16, T=4, d=2, num_scales=2, n_layers=2, patch_len=4,
                  heads=2, aware_heads=2, k=3, h=8, batch_size=8, epochs=1)
TINY_TABLE = {"gate": (2, 1, 4, 8), "wide": (2, 1, 4, 16)}


def tiny(name):
    spec = workloads.WORKLOADS[name]
    return replace(spec, model=dict(TINY_MODEL, variant=spec.model["variant"]),
                   length=120, ratios=(0.6, 0.2, 0.2),
                   forecasts=min(spec.forecasts, 4))


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(attention_table, "SHAPES", TINY_TABLE)
    monkeypatch.setattr(attention_table, "REPEATS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, traced, small, tmp_path, capsys):
    result = workloads.run(name, seed=3, seconds=0.05, traced=traced,
                           import_s=0.0, out_dir=str(tmp_path),
                           spec=tiny(name))
    want = declared("per_layer" if traced else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    lines = capsys.readouterr().out.splitlines()
    for metric, unit in want.items():
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in lines), metric


@pytest.mark.parametrize("traced", [False, True])
def test_train_abort_is_a_reported_failure(traced, small, tmp_path, capsys,
                                           monkeypatch):
    def abort(cfg, dataset, **kwargs):
        raise workloads.training.TrainAbort(0, 0)

    monkeypatch.setattr(workloads.training, "train", abort)
    result = workloads.run("train-gate", seed=3, seconds=0.05, traced=traced,
                           import_s=0.0, out_dir=str(tmp_path),
                           spec=tiny("train-gate"))
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert result["metrics"] == {}
    out = capsys.readouterr().out
    assert f"checks: {result['attempted']} attempted, {result['failed']} " \
           "failed" in out


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def traced_run(request, tmp_path):
    s = workloads.prepare(tiny(request.param), 5, str(tmp_path / "m.ckpt"))
    workloads.warm_up(s)
    tally = workloads.Tally()
    (phase,) = workloads.measure(s, tally, 0.05, [tracer.Instrument(True)])
    assert tally.failed == 0
    return phase


def test_span_tree_is_well_formed(traced_run):
    spans = traced_run.inst.spans
    assert spans[0][tracer.NAME] == "run" and spans[0][tracer.PARENT] == -1
    for i, s in enumerate(spans):
        assert s[tracer.START] <= s[tracer.END]
        if i:
            p = spans[s[tracer.PARENT]]
            assert s[tracer.PARENT] < i
            assert p[tracer.START] <= s[tracer.START]
            assert s[tracer.END] <= p[tracer.END]
    own = tracer.self_times(spans)
    assert min(own) >= 0
    assert sum(own) == spans[0][tracer.END] - spans[0][tracer.START]
    assert min(tracer.self_times(spans, ops_count_as_self=True)) >= 0


def test_forward_self_time_excludes_block_ops(traced_run):
    """Norms and residual adds belong to the block, not to model.forward."""
    spans = traced_run.inst.spans
    direct = {s[tracer.NAME] for s in spans
              if s[tracer.PARENT] >= 0
              and spans[s[tracer.PARENT]][tracer.NAME] == "model.forward"}
    assert "model.residual_block" in direct
    assert tracer.OP_PREFIX + "layer_norm" not in direct


def test_step_spans_carry_counts(traced_run):
    inst = traced_run.inst
    first = min(inst.step_macs)
    ops, out_bytes = tracer.step_counts(inst.spans, first)
    assert ops > 0 and out_bytes > 0 and inst.step_macs[first] > 0
    assert len(inst.step_ms) == len(inst.step_macs)


def wrapped_attributes():
    import twins.autodiff as ad
    import twins.model as md
    pairs = [(ad, op) for op in tracer.OPS if hasattr(ad, op)]
    pairs += [(owner, attr) for owner, attr, _ in tracer.LAYER_FUNCTIONS]
    pairs += [(md.TwinSModel, "zero_grad"), (ad, "adam_step")]
    return [(owner, attr, getattr(owner, attr)) for owner, attr in pairs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrappers_are_restored(name, small, tmp_path):
    import twins.autodiff as ad
    before = wrapped_attributes()
    workloads.run(name, seed=4, seconds=0.05, traced=True, import_s=0.0,
                  out_dir=str(tmp_path), spec=tiny(name))
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    assert not ad._counting_macs and ad.mac_count() == 0


def test_restores_after_an_exception():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Instrument(traced=True):
            raise RuntimeError("inside")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the run exits non-zero."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
