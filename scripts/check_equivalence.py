#!/usr/bin/env python3
"""Check that this tree computes like another tree of the package.

    python3 scripts/check_equivalence.py PARENT_SRC

PARENT_SRC is the directory that holds the other tree's ``twins`` package
(its ``src``). Each tree runs in its own subprocess: for every config below
it builds the model, then takes 2 training steps on fixed random batches,
each the step ``training.train`` takes (the loss and gradients of
``training.batch_gradients``, then gradient clipping and Adam), and saves
the losses, every parameter gradient of each step and the final
parameters. A tree without ``batch_gradients`` trains on one recorded pass
per batch, as its ``train`` does. It then forecasts 100 fresh windows in
one no-grad forward with the final parameters, and the first of them once
more as a single ``(1, C, L)`` window with no batch prefix, the path of
``twins forecast`` and of the benchmark's batch-1 forecasts.

Both a training step and a no-grad pass run in the balanced chunks of
``model.chunk_slices``: at most 42 windows at the gate shape and 6 at the
ETTh1 shape, and at least two chunks once each half of the batch holds a
quarter of ``model.CHUNK_BYTES`` (128 KiB) of residual map, 11 windows at
the gate shape and 2 at the ETTh1 shape. So a batch of 32 is two chunks
of 16 at the gate shape and six chunks of 5 or 6 at the ETTh1 shape, and
the 100-window no-grad forecast is several chunks at both shapes. Matrix
products over fewer rows may round differently, so against a tree that
cuts its batches otherwise these arrays need only agree within 1e-12. The
single-window forecast is one chunk on every tree, so it is bit-identical
whenever the arithmetic and the parameters are.

A chunk draws its dropout masks from a generator spawned for it. Against
a tree that ran a gate-shape batch of 32 as one pass on the model's own
generator, as trees before balanced chunks did, the masks of
``twins_plus_gate_dropout`` differ, so that config differs far beyond
1e-12 and the script exits 1 on it; the other configs stay within 1e-12.

This tree runs twice, with its chunks on two worker threads and on the
calling thread alone, and those two runs must agree bit for bit: the
worker count may change when a chunk runs, never what it computes.

The script prints, per config and in total, how many arrays are
bit-identical and the worst relative difference, max|a - b| / max|b|, and
the bit-identical count of the recorded arrays alone, first for the two
runs of this tree and then for this tree against PARENT_SRC. It exits 1
when an array is missing on one side, when the runs of this tree differ in
a bit, or when an array differs from PARENT_SRC by more than 1e-12, and 2
on a bad argument.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-12
STEPS = 2
BATCH = 32
NO_GRAD_WINDOWS = 100   # chunks of unequal size at either shape
GATE = dict(C=2, L=96, T=24, d=8, h=64, lr=1e-3)      # the learning gate
ETTH1 = dict(C=7, L=96, T=96, d=16, h=128, lr=1e-4)   # the paper's ETTh1 runs
CONFIGS = {
    **{f"{v}_{name}": dict(shape, variant=v)
       for name, shape in (("gate", GATE), ("etth1", ETTH1))
       for v in ("mhsa", "twins", "twins_plus")},
    "twins_plus_gate_dropout": dict(GATE, variant="twins_plus", dropout=0.1),
    "twins_plus_gate_no_wconv": dict(GATE, variant="twins_plus",
                                     use_wconv=False),
    "twins_plus_gate_no_ctmlp": dict(GATE, variant="twins_plus",
                                     use_ctmlp=False),
    "twins_gate_scales_8_4": dict(GATE, variant="twins", scales=[8, 4]),
}
HERE_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src")


def run_tree(src: str, out_path: str, workers: int = 0) -> None:
    """Worker: train every config with the package under ``src``, its
    chunks on ``workers`` threads (0: as many as the tree chooses)."""
    sys.path.insert(0, os.path.abspath(src))
    import twins
    import twins.autodiff as ad
    import twins.model as md
    import twins.training as tr

    pkg = os.path.dirname(os.path.realpath(twins.__file__))
    if os.path.dirname(pkg) != os.path.realpath(src):
        raise SystemExit(f"imported twins from {pkg}, not from {src}")
    if workers:
        md._cpus = lambda: workers

    def one_pass(model, x, y):
        model.zero_grad()
        loss = ad.mse(model.forward(x, training=True), ad.Tensor(y))
        ad.backward(loss)
        return loss.item()

    batch_gradients = getattr(tr, "batch_gradients", one_pass)
    arrays = {}
    for name, fields in CONFIGS.items():
        cfg = md.ModelConfig(**fields)
        rng = np.random.default_rng(0)
        model = md.TwinSModel(cfg)
        params = model.parameters()
        opt = ad.AdamState(params, lr=cfg.lr)
        for step in range(STEPS):
            x = rng.standard_normal((BATCH, 1, cfg.C, cfg.L))
            y = rng.standard_normal((BATCH, cfg.C, cfg.T))
            arrays[f"{name}/{step}/loss"] = batch_gradients(model, x, y)
            for pname, p in model.params.items():
                arrays[f"{name}/{step}/grad/{pname}"] = p.grad
            grads, _ = ad.clip_grad_norm([p.grad for p in params],
                                         tr.CLIP_NORM)
            ad.adam_step(params, grads, opt)
        for pname, p in model.params.items():
            arrays[f"{name}/param/{pname}"] = p.data
        x = rng.standard_normal((NO_GRAD_WINDOWS, 1, cfg.C, cfg.L))
        with ad.no_grad():
            arrays[f"{name}/no_grad/forecast"] = model.forward(x).data
            arrays[f"{name}/no_grad/single"] = model.forward(x[0]).data
    np.savez(out_path, **arrays)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    err = float(np.max(np.abs(a - b))) if b.size else 0.0
    return err / scale if scale > 0.0 else err


def compare(mine: dict, theirs: dict, other: str, tol: float) -> bool:
    """Print how ``mine`` and ``theirs`` agree; True if every array is on
    both sides and within ``tol`` (0: bit-identical)."""
    ok = True
    for key in sorted(set(mine) ^ set(theirs)):
        print(f"only in {'this tree' if key in mine else other}: {key}")
        ok = False
    total_same = total = recorded_same = recorded = 0
    overall = 0.0
    for name in CONFIGS:
        keys = sorted(k for k in set(mine) & set(theirs)
                      if k.startswith(name + "/"))
        same = [k for k in keys if np.array_equal(mine[k], theirs[k])]
        worst = max((rel_diff(mine[k], theirs[k]) for k in keys), default=0.0)
        print(f"{name:26s} {len(same):4d}/{len(keys):<4d} bit-identical, "
              f"worst relative difference {worst:.3e}")
        total_same += len(same)
        total += len(keys)
        overall = max(overall, worst)
        recorded_same += sum("/no_grad/" not in k for k in same)
        recorded += sum("/no_grad/" not in k for k in keys)
    print(f"{'total':26s} {total_same:4d}/{total:<4d} bit-identical, "
          f"worst relative difference {overall:.3e}")
    print(f"{'recorded arrays':26s} {recorded_same:4d}/{recorded:<4d} "
          f"bit-identical")
    if tol == 0.0:
        return ok and total_same == total
    return ok and overall <= tol


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        run_tree(argv[1], argv[2], int(argv[3]))
        return 0
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "twins")):
        print("usage: check_equivalence.py PARENT_SRC, a directory that "
              "holds a twins package", file=sys.stderr)
        return 2
    runs = (("two workers", HERE_SRC, 2), ("one worker", HERE_SRC, 1),
            ("PARENT_SRC", argv[0], 0))
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, (_, src, workers) in enumerate(runs):
            out = os.path.join(tmp, f"tree{i}.npz")
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--worker", os.path.abspath(src), out,
                            str(workers)], check=True)
            with np.load(out) as f:
                results.append({k: f[k] for k in f.files})
    here, alone, parent = results
    print("this tree, two workers against one worker:")
    same_bits = compare(here, alone, "the one-worker run", 0.0)
    print("this tree against PARENT_SRC:")
    same = compare(here, parent, "PARENT_SRC", TOL)
    print("worker counts " + ("bit-identical" if same_bits
                              else "NOT bit-identical"))
    print("equivalent" if same else f"NOT equivalent (tolerance {TOL:g})")
    return 0 if same and same_bits else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
