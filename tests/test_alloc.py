"""The heap tuning, the BLAS thread count and the erf loading applied when
the package is imported."""

import glob
import importlib.machinery
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

import twins
from twins import _alloc
from twins import autodiff as ad

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

# The same at the ETTh1 shape, where a batch of 32 is six chunks that run on
# two worker threads, whatever the machine.
THREADED_FAULTS_PER_STEP = """
import json, resource
import numpy as np
import twins
from twins import autodiff as ad, model as md, training as tr

md._cpus = lambda: 2
cfg = md.ModelConfig(C=7, L=96, T=96, d=16, h=128, variant="twins_plus")
model = md.TwinSModel(cfg)
params = model.parameters()
opt = ad.AdamState(params, lr=cfg.lr)
rng = np.random.default_rng(0)
x = rng.normal(size=(32, 1, 7, 96))
y = rng.normal(size=(32, 7, 96))
faults = []
for step in range(14):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.batch_gradients(model, x, y)
    grads, _ = ad.clip_grad_norm([p.grad for p in params], 1.0)
    ad.adam_step(params, grads, opt)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"status": twins.allocator_status, "faults": faults[4:]}))
"""

# With glibc's defaults such a step faults in six to fifteen thousand pages.
# Tuned, most steps fault in under 20; the order in which the two threads
# allocate varies, so a stray step faults in a few hundred as the heap
# settles, and the median is compared.
MAX_MEDIAN_THREADED_FAULTS_PER_STEP = 100


# Prints the thread count of the OpenBLAS bundled with numpy, after
# importing twins if the first argument says so, and what import did.
BLAS_THREADS = """
import ctypes, glob, json, os, sys
import numpy as np
status = None
if sys.argv[1] == "twins":
    import twins
    status = twins.blas_status

def threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None

print(json.dumps({"status": status, "threads": threads()}))
"""

# Saves the gradients of a recorded pass and of a training step at the
# ETTh1 shape to the file named by the second argument, first pinning the
# process to one CPU if the first argument says so.
PINNED_GRADIENTS = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from twins import autodiff as ad, model as md, training as tr

cfg = md.ModelConfig(C=7, L=96, T=96, d=16, h=128, variant="twins_plus")
rng = np.random.default_rng(0)
x = rng.normal(size=(13, 1, 7, 96))
y = rng.normal(size=(13, 7, 96))
model = md.TwinSModel(cfg)
ad.backward(ad.mse(model.forward(x), ad.Tensor(y)))
out = {"pass/" + k: t.grad for k, t in model.params.items()}
tr.batch_gradients(model, x, y)
out.update(("step/" + k, t.grad) for k, t in model.params.items())
np.savez(sys.argv[2], cpus=len(os.sched_getaffinity(0)), **out)
print(sys.argv[2])
"""

# scipy's ufunc extension that autodiff loads erf from by path
SCIPY_ERF_FILES = glob.glob(os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0],
    "special", "_special_ufuncs*"))

# Imports the package's entry points, then says whether scipy.special was
# imported with them.
SPECIAL_IMPORTED = """
import json, sys
import twins.training, twins.cli
print(json.dumps("scipy.special" in sys.modules))
"""

# Imports twins, then scipy.special and scipy.stats, and uses them.
SCIPY_AFTER_TWINS = """
import json
import twins.training
import scipy.special, scipy.stats
print(json.dumps([hasattr(scipy.special, "_special_ufuncs"),
                  float(scipy.special.gamma(5.0)),
                  float(scipy.special.erfc(0.0)),
                  float(scipy.stats.norm.cdf(0.0))]))
"""


def run_python(code, *args, **env):
    full = {**os.environ, **env,
            "PYTHONPATH": os.pathsep.join(
                [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for var in _alloc._ENV_SETTINGS + ("GLIBC_TUNABLES",
                                       "OPENBLAS_NUM_THREADS"):
        if var not in env:
            full.pop(var, None)
    out = subprocess.run([sys.executable, "-c", code, *args], env=full,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap tuning applies to glibc only")
def test_training_step_after_warm_up_faults_little():
    result = json.loads(run_python(FAULTS_PER_STEP, OPENBLAS_NUM_THREADS="1"))
    assert result["status"] == "tuned"
    faults = result["faults"]
    assert sum(faults) / len(faults) < MAX_MEAN_FAULTS_PER_STEP, faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap tuning applies to glibc only")
def test_threaded_chunk_step_after_warm_up_faults_little():
    result = json.loads(run_python(THREADED_FAULTS_PER_STEP,
                                   OPENBLAS_NUM_THREADS="1"))
    assert result["status"] == "tuned"
    faults = result["faults"]
    assert statistics.median(faults) < MAX_MEDIAN_THREADED_FAULTS_PER_STEP, \
        faults


@pytest.mark.parametrize("env", [
    {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"MALLOC_ARENA_MAX": "2"},
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
], ids=["mmap_threshold", "trim_threshold", "arena_max", "tunables"])
def test_glibc_settings_in_the_environment_win(env):
    status = run_python("import twins; print(twins.allocator_status)", **env)
    assert status == "skipped: glibc malloc settings in the environment"


def test_other_libc_left_alone(monkeypatch):
    for var in _alloc._ENV_SETTINGS + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(_alloc.ctypes, "CDLL", lambda name: object())
    assert _alloc.tune_allocator() == "skipped: not glibc"


def test_import_holds_blas_to_one_thread():
    result = json.loads(run_python(BLAS_THREADS, "twins"))
    if result["threads"] is None:
        pytest.skip("numpy bundles no OpenBLAS")
    assert result == {"status": "one thread", "threads": 1}


def test_blas_threads_in_the_environment_win():
    env = {"OPENBLAS_NUM_THREADS": "2"}
    plain = json.loads(run_python(BLAS_THREADS, "numpy", **env))
    result = json.loads(run_python(BLAS_THREADS, "twins", **env))
    assert result == {"status": "skipped: OPENBLAS_NUM_THREADS in the "
                                "environment", "threads": plain["threads"]}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare with one")
def test_same_gradients_on_one_cpu_and_on_every_cpu(tmp_path):
    runs = []
    for how in ("pinned", "free"):
        path = tmp_path / f"{how}.npz"
        run_python(PINNED_GRADIENTS, how, str(path))
        with np.load(path) as f:
            runs.append({k: f[k] for k in f.files})
    pinned, free = runs
    assert pinned.pop("cpus") == 1 and free.pop("cpus") >= 2
    assert sorted(pinned) == sorted(free)
    for name, g in free.items():
        np.testing.assert_array_equal(pinned[name], g, err_msg=name)


@pytest.mark.skipif(not SCIPY_ERF_FILES,
                    reason="this scipy has no special/_special_ufuncs file")
def test_import_leaves_scipy_special_out():
    assert json.loads(run_python(SPECIAL_IMPORTED)) is False


def test_erf_same_bits_as_scipy_special(erf_inputs):
    x = np.concatenate([erf_inputs, -erf_inputs, [-0.0, np.nan, -np.nan]])
    assert np.array_equal(ad.erf(x).view(np.uint64),
                          scipy.special.erf(x).view(np.uint64))


@pytest.mark.parametrize("content", [b"not a shared object", None],
                         ids=["unloadable", "missing"])
def test_erf_falls_back_to_scipy_special(monkeypatch, tmp_path, content):
    special = tmp_path / "special"
    special.mkdir()
    if content is not None:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (special / f"_special_ufuncs{suffix}").write_bytes(content)
    root = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    root.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: root)
    assert ad._load_erf() is scipy.special.erf


def test_scipy_special_works_after_import():
    assert json.loads(run_python(SCIPY_AFTER_TWINS)) == [True, 24.0, 1.0, 0.5]
