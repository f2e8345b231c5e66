"""The heap tuning applied when the package is imported."""

import json
import os
import platform
import subprocess
import sys

import pytest

import twins
from twins import _alloc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(twins.__file__)))

# Trains the tier-1 learning-gate configuration for a few batches in a fresh
# process and prints the minor page faults of each step after warm-up.
FAULTS_PER_STEP = """
import json, resource
import numpy as np
import twins
from twins import autodiff as ad
from twins.model import ModelConfig, TwinSModel

cfg = ModelConfig(C=2, L=96, T=24, d=8, h=64, variant="twins", lr=1e-3)
model = TwinSModel(cfg)
params = model.parameters()
opt = ad.AdamState(params, lr=cfg.lr)
rng = np.random.default_rng(0)
x = rng.normal(size=(32, 1, 2, 96))
y = ad.Tensor(rng.normal(size=(32, 2, 24)))
faults = []
for step in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.zero_grad()
    loss = ad.mse(model.forward(x, training=True), y)
    ad.backward(loss)
    grads, _ = ad.clip_grad_norm([p.grad for p in params], 1.0)
    ad.adam_step(params, grads, opt)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"status": twins.allocator_status, "faults": faults[4:]}))
"""

# With glibc's defaults a step of this configuration faults in about four
# thousand pages; with the tuned heap it reuses the previous step's blocks
# (0 in most steps, a stray step near 100 as the heap settles).
MAX_MEAN_FAULTS_PER_STEP = 100


def run_python(code, **env):
    full = {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(
                [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for var in _alloc._ENV_SETTINGS + ("GLIBC_TUNABLES",):
        if var not in env:
            full.pop(var, None)
    out = subprocess.run([sys.executable, "-c", code], env=full, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap tuning applies to glibc only")
def test_training_step_after_warm_up_faults_little():
    result = json.loads(run_python(FAULTS_PER_STEP, OPENBLAS_NUM_THREADS="1"))
    assert result["status"] == "tuned"
    faults = result["faults"]
    assert sum(faults) / len(faults) < MAX_MEAN_FAULTS_PER_STEP, faults


@pytest.mark.parametrize("env", [
    {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
], ids=["mmap_threshold", "trim_threshold", "tunables"])
def test_glibc_settings_in_the_environment_win(env):
    status = run_python("import twins; print(twins.allocator_status)", **env)
    assert status == "skipped: glibc malloc settings in the environment"


def test_other_libc_left_alone(monkeypatch):
    for var in _alloc._ENV_SETTINGS + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(_alloc.ctypes, "CDLL", lambda name: object())
    assert _alloc.tune_allocator() == "skipped: not glibc"
