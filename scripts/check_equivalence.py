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

Both a training step and a no-grad pass run in chunks of windows sized
from the config: 85 windows at the gate shape and 12 at the ETTh1 shape.
So a change that leaves the arithmetic alone keeps every recorded array
(losses, gradients, parameters) of the gate-shape configs bit-identical,
since a batch of 32 is one chunk there. At the ETTh1 shape a batch is
three chunks whose matrix products see other shapes than one batch, and
the 100-window no-grad forecast is several chunks at both shapes; these
arrays need only agree within 1e-12 when compared with a tree that runs
them as one batch. The single-window forecast is one chunk on every tree,
so it is bit-identical whenever the arithmetic is.

The script prints, per config and in total, how many arrays are
bit-identical and the worst relative difference, max|a - b| / max|b|, and
the bit-identical count of the recorded arrays alone. It exits 1 when an
array is missing on one side or differs by more than 1e-12, and 2 on a bad
argument.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np

TOL = 1e-12
STEPS = 2
BATCH = 32
NO_GRAD_WINDOWS = 100   # not a multiple of the chunk size at either shape
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


def run_tree(src: str, out_path: str) -> None:
    """Worker: train every config with the package under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import twins
    import twins.autodiff as ad
    import twins.model as md
    import twins.training as tr

    pkg = os.path.dirname(os.path.realpath(twins.__file__))
    if os.path.dirname(pkg) != os.path.realpath(src):
        raise SystemExit(f"imported twins from {pkg}, not from {src}")

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


def compare(mine: dict, theirs: dict) -> bool:
    ok = True
    for key in sorted(set(mine) ^ set(theirs)):
        print(f"only in {'this tree' if key in mine else 'PARENT_SRC'}: {key}")
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
    return ok and overall <= TOL


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        run_tree(argv[1], argv[2])
        return 0
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "twins")):
        print("usage: check_equivalence.py PARENT_SRC, a directory that "
              "holds a twins package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, src in enumerate((HERE_SRC, argv[0])):
            out = os.path.join(tmp, f"tree{i}.npz")
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--worker", os.path.abspath(src), out], check=True)
            with np.load(out) as f:
                results.append({k: f[k] for k in f.files})
    same = compare(*results)
    print("equivalent" if same else f"NOT equivalent (tolerance {TOL:g})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
