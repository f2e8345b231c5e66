"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: training steps run back to
back inside ``training.train``, and forecasts are issued one after the other.
The seed only chooses the noise of the synthetic series the program receives;
the model configuration (and its initialisation seed) is fixed, so the same
seed always gives the same inputs and the same MSE.

Work is done in rounds of fixed content, repeated until the time is up: one
``training.train`` call (train-*), or one ``training.evaluate`` of the test
split plus a fixed set of batch-1 forecasts (infer). A round is started only
if it is expected to end in time, and per-layer metrics are reported per
round, so a faster program does more rounds but its per-round figures stay
comparable.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import twins.autodiff as ad
import twins.data as data
import twins.model as model
import twins.training as training
from twins.autodiff import Tensor

import attention_table
import tracer

# the tier-1 learning-gate series (two periods, channels lagged 5 steps
# apart) with less noise, so that the MSE after one epoch differs little
# between seeds
SERIES = ((8, 1.0, None), (32, 0.6, None))
LAG = 5
NOISE = 0.02

SETUP_REPEATS = 5
EVAL_BATCH = 64
FORECAST_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    kind: str                  # "train" or "infer"
    model: dict                # ModelConfig fields; the rest keep defaults
    length: int                # synthetic series length
    ratios: tuple = (0.6, 0.2, 0.2)
    forecasts: int = 0         # infer: batch-1 forecasts per round


# Why each workload exists is recorded in BENCHMARK.json. One training round
# is a single epoch: the validation MSE after one epoch varies least between
# seeds, and short rounds waste little of the time budget.
WORKLOADS = {
    # the tier-1 learning-gate config: 1081 windows, 34 steps per epoch
    "train-gate": Workload(
        "train",
        dict(C=2, L=96, T=24, d=8, h=64, variant="twins", lr=1e-3, epochs=1),
        length=2000),
    # ETTh1 shape; 383 train points give 192 windows (six full batches) and
    # 255 validation points one batch of 64 windows
    "train-wide": Workload(
        "train",
        dict(C=7, L=96, T=96, d=16, h=128, variant="twins_plus", lr=1e-4,
             epochs=1),
        length=1277, ratios=(0.3, 0.2, 0.2)),
    # ETTh1 shape; 447 test points give 256 windows to score (four batches)
    "infer": Workload(
        "infer",
        dict(C=7, L=96, T=96, d=16, h=128, variant="twins"),
        length=2235, forecasts=EVAL_BATCH),
}

# differentiable ops reported one by one in the traced run
REPORTED_OPS = ("matmul", "gelu", "layer_norm", "add", "mul", "conv1d",
                "depthwise_conv1d", "softmax", "sigmoid", "transpose",
                "reshape", "roll", "narrow", "mse")

# what each end-to-end metric is on each kind of workload
MEANING = {
    "train": {
        "setup_s": ("setup_s", "import, data, split, windows, model build"),
        "latency_ms.p50": ("step_ms.p50", "zero_grad..adam_step"),
        "latency_ms.p90": ("step_ms.p90", "zero_grad..adam_step"),
        "windows_per_s": ("train_windows_per_s",
                          "training.train wall time, validation included"),
        "peak_rss_mb": ("peak_rss_mb", "max resident set"),
        "mse": ("mse", "validation MSE after training.train"),
    },
    "infer": {
        "setup_s": ("setup_s", "import, data, split, windows, "
                               "checkpoint build/save/load"),
        "latency_ms.p50": ("forecast_ms.p50", "one batch-1 forecast"),
        "latency_ms.p90": ("forecast_ms.p90", "one batch-1 forecast"),
        "windows_per_s": ("infer_windows_per_s",
                          "training.evaluate at batch 64"),
        "peak_rss_mb": ("peak_rss_mb", "max resident set"),
        "mse": ("mse", "test-split MSE from training.evaluate"),
    },
}


@dataclass
class Setup:
    spec: Workload
    cfg: model.ModelConfig
    dataset: data.SplitDataset
    windows: data.WindowBatch   # train split (train-*) or test split (infer)
    model: model.TwinSModel
    path: str                   # checkpoint file of this run
    reference: np.ndarray = None  # infer: batch-64 predictions to match
    mse: float = None           # first round's MSE; every round must match

    @property
    def window_count(self) -> int:
        return self.windows.inputs.shape[0]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def passed(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Phase:
    rounds: int = 0
    windows: int = 0
    seconds: float = 0.0        # time of the calls windows/s divides by
    mse: float = None
    inst: tracer.Instrument = None


# ---------------------------------------------------------------------------
# set-up

def prepare(spec: Workload, seed: int, path: str) -> Setup:
    cfg = model.ModelConfig(**spec.model)
    raw = data.synth_multiperiod(spec.length, cfg.C, SERIES,
                                 lag_per_channel=LAG, noise_std=NOISE,
                                 seed=seed)
    ds = data.split_standardize(raw, spec.ratios)
    if spec.kind == "train":
        wb = data.make_windows(ds.train, cfg.L, cfg.T)
        net = model.TwinSModel(cfg)
    else:
        wb = data.make_windows(ds.test, cfg.L, cfg.T)
        training.save_checkpoint(model.TwinSModel(cfg), path)
        net = training.load_checkpoint(path)
    return Setup(spec, cfg, ds, wb, net, path)


def warm_up(s: Setup) -> None:
    """Untimed first pass, so allocator and BLAS set-up are not measured."""
    if s.spec.kind == "train":
        n = s.cfg.batch_size
        pred = s.model.forward(s.windows.inputs[:n], training=True)
        ad.backward(ad.mse(pred, Tensor(s.windows.targets[:n])))
        return
    with ad.no_grad():
        batch = s.model.forward(s.windows.inputs[:EVAL_BATCH]).data
        s.reference = batch[:s.spec.forecasts]
        s.model.forward(s.windows.inputs[0])


# ---------------------------------------------------------------------------
# rounds and checks

def _check_mse(s: Setup, phase: Phase, tally: Tally, mse: float) -> None:
    if s.mse is None:
        s.mse = mse
    tally.check(math.isfinite(mse) and mse == s.mse,
                f"round MSE {mse!r} differs from first round {s.mse!r}")
    phase.mse = mse


def _check_roundtrip(net: model.TwinSModel, path: str, tally: Tally) -> None:
    training.save_checkpoint(net, path)
    back = training.load_checkpoint(path)
    same = list(back.params) == list(net.params) and all(
        back.params[k].data.tobytes() == t.data.tobytes()
        for k, t in net.params.items())
    tally.check(same, "checkpoint save/load round trip is not bit-exact")


def _forecast_ok(y: np.ndarray, ref: np.ndarray) -> bool:
    if y.shape != ref.shape or not np.all(np.isfinite(y)):
        return False
    return np.max(np.abs(y - ref)) <= FORECAST_RTOL * np.max(np.abs(ref))


def _train_round(s: Setup, phase: Phase, tally: Tally) -> None:
    steps = phase.inst.step_ms
    before = len(steps)
    t0 = time.perf_counter()
    try:
        net, hist = training.train(s.cfg, s.dataset, eval_test=False)
    except training.TrainAbort as exc:
        tally.passed(len(steps) - before)
        tally.check(False, str(exc))
        return
    phase.seconds += time.perf_counter() - t0
    # train raises TrainAbort on the first non-finite loss, so every step
    # that reached adam_step had a finite loss
    tally.passed(len(steps) - before)
    phase.windows += s.window_count * len(hist.records)
    tally.check(all(math.isfinite(r.train_loss) and math.isfinite(r.val_mse)
                    for r in hist.records), "non-finite epoch loss")
    _check_mse(s, phase, tally, hist.best_val_mse)
    _check_roundtrip(net, s.path, tally)


def _infer_round(s: Setup, phase: Phase, tally: Tally) -> None:
    cfg, inst = s.cfg, phase.inst
    t0 = time.perf_counter()
    metrics = training.evaluate(s.model, s.dataset.test, cfg.L, cfg.T,
                                batch_size=EVAL_BATCH)
    phase.seconds += time.perf_counter() - t0
    phase.windows += s.window_count
    _check_mse(s, phase, tally, metrics.mse)
    with ad.no_grad():
        for i, ref in enumerate(s.reference):
            inst.begin_step("forecast")
            y = s.model.forward(s.windows.inputs[i])
            inst.end_step()
            tally.check(_forecast_ok(y.data, ref),
                        f"forecast {i}: shape {y.shape}, not finite or off "
                        f"its batch-{EVAL_BATCH} prediction")
    _check_roundtrip(s.model, s.path, tally)


def measure(s: Setup, tally: Tally, seconds: float, instruments) -> list:
    """Play rounds for ``seconds`` under each instrument in turn.

    A cycle (one round per instrument) starts only if it is expected to end
    in time. Alternating untraced and traced rounds keeps the machine's
    drift out of the measured tracing overhead.
    """
    phases = [Phase(inst=inst) for inst in instruments]
    play = _train_round if s.spec.kind == "train" else _infer_round
    roots = [p.inst.open("run") if p.inst.traced else -1 for p in phases]
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while phases[0].rounds == 0 or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        for phase in phases:
            with phase.inst:
                play(s, phase, tally)
            phase.rounds += 1
        longest = max(longest, time.perf_counter() - t0)
    for phase, root in zip(phases, roots):
        if root >= 0:
            phase.inst.close(root)
    return phases


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s: float, phase: Phase) -> dict:
    lat = phase.inst.step_ms
    return {
        "setup_s": (setup_s, "s"),
        "latency_ms.p50": (statistics.median(lat), "ms"),
        "latency_ms.p90": (float(np.percentile(lat, 90)), "ms"),
        "windows_per_s": (phase.windows / phase.seconds, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "mse": (phase.mse, "sq_std"),
    }


def per_layer(phase: Phase, untraced_p50: float, table: dict) -> dict:
    """Per-round times (ms) and calls of each layer, plus exact step counts."""
    inst = phase.inst
    tot = tracer.totals(inst.spans)
    rounds = phase.rounds

    def field_of(i, *names):
        return sum(tot[n][i] for n in names if n in tot) / rounds

    def ms(*names):                  # inclusive time
        return (field_of(1, *names) / 1e6, "ms")

    def self_ms(name):               # time outside every child span
        return (field_of(2, name) / 1e6, "ms")

    def layer_self_ms(name):         # ops called directly stay included
        return (field_of(3, name) / 1e6, "ms")

    def calls(name):                 # whole rounds repeat the same calls
        total = tot[name][0] if name in tot else 0
        return (total // rounds if total % rounds == 0 else total / rounds,
                "count")

    out = {"autodiff.backward.ms": ms("autodiff.backward")}
    for op in REPORTED_OPS:
        name = tracer.OP_PREFIX + op
        out[f"{name}.ms"] = self_ms(name)
        out[f"{name}.calls"] = calls(name)
    first = min(inst.step_macs)
    ops, out_bytes = tracer.step_counts(inst.spans, first)
    out.update({
        "autodiff.clip_grad_norm.ms": ms("autodiff.clip_grad_norm"),
        "autodiff.adam_step.ms": ms("autodiff.adam_step"),
        "autodiff.ops_per_step": (ops, "count"),
        "autodiff.macs_per_step": (inst.step_macs[first], "count"),
        "autodiff.out_bytes_per_step": (out_bytes, "B_computed"),
        "embedding.wconv_embed.ms": ms("embedding.wconv_embed"),
        "patching.ms": ms("patching.unfold", "patching.fold",
                          "patching.roll"),
        "attention.paa_scores.ms": ms("attention.paa_scores"),
        "attention.attend.ms": ms("attention.attend"),
        "model.feed_forward.ms": ms("model.feed_forward"),
        "model.ct_mlp.ms": ms("model.ct_mlp"),
        "model.forward.self_ms": layer_self_ms("model.forward"),
        "data.make_windows.ms": ms("data.make_windows"),
        "data.make_windows.calls": calls("data.make_windows"),
        "training.evaluate.ms": ms("training.evaluate"),
        "training.loop.self_ms": layer_self_ms("training.train"),
        "training.load_checkpoint.ms": ms("training.load_checkpoint"),
        "training.save_checkpoint.ms": ms("training.save_checkpoint"),
        "trace.overhead_ms": (statistics.median(inst.step_ms) - untraced_p50,
                              "ms"),
    })
    out.update(table)
    return out


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# one run

def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        line = f"  {name:<40} {value:>16.6g} {unit:<10} {notes.get(name, '')}"
        print(line.rstrip())


def run(name: str, seed: int, seconds: float, traced: bool, import_s: float,
        out_dir: str, spec: Workload = None) -> dict:
    """Set up, measure and check one workload; print and return the result."""
    spec = WORKLOADS[name] if spec is None else spec
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}.seed{seed}")
    env = environment()
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(traced)}")
    print("env " + json.dumps(env))

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        s = prepare(spec, seed, stem + ".ckpt")
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    warm_up(s)

    tally = Tally()
    instruments = [tracer.Instrument(False)]
    if traced:
        instruments.append(tracer.Instrument(True))
    phases = measure(s, tally, seconds, instruments)
    phase = phases[-1]
    # a round that raises TrainAbort leaves no MSE behind; the failed check
    # is reported, and there is nothing to compute metrics from
    complete = all(p.mse is not None and p.inst.step_ms for p in phases)
    if not complete:
        metrics = {}
        print("  no round finished, so no metrics")
    elif not traced:
        metrics = end_to_end(setup_s, phase)
        notes = {k: f"{alias}: {what}"
                 for k, (alias, what) in MEANING[spec.kind].items()}
        unit = "steps" if spec.kind == "train" else "forecasts"
        for k in ("latency_ms.p50", "latency_ms.p90"):
            notes[k] += (f", n={len(phase.inst.step_ms)} {unit} in "
                         f"{phase.rounds} rounds")
        _print_metrics(metrics, notes)
    else:
        table = attention_table.measure(seed)
        metrics = per_layer(phase, statistics.median(phases[0].inst.step_ms),
                            table)
        tracer.write_spans(phase.inst.spans, stem + ".spans.csv")
        print(f"  traced rounds: {phase.rounds}; .ms and .calls are per "
              f"round, *_per_step are for the first traced step")
        _print_metrics(metrics, {})
    if os.path.exists(s.path):
        os.remove(s.path)
    print(f"  checks: {tally.attempted} attempted, {tally.failed} failed")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    result = {
        "correct": complete and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{stem}.trace{int(traced)}.json", "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, seconds=seconds,
                       rounds=phase.rounds, env=env), fh, indent=1)
    return result
