#!/usr/bin/env python3
"""Check that this tree computes like its parent tree of the package.

    python3 scripts/check_equivalence.py PARENT_SRC

PARENT_SRC is the directory that holds the parent tree's ``twins`` package
(its ``src``), which must define ``training.batch_gradients``. Each tree
runs in its own subprocess: for every config below it builds the model,
then takes 2 training steps on fixed random batches, each the step
``training.train`` takes (the loss and gradients of
``training.batch_gradients``, then gradient clipping and Adam), and saves
the losses, every parameter gradient of each step and the final
parameters. With the final parameters it then forecasts 100 fresh windows
in one no-grad forward, and the first of them once more as a single
``(1, C, L)`` window with no batch prefix, the path of ``twins forecast``
and of the benchmark's batch-1 forecasts. Last, it scores a fixed split of
70 windows with ``training.evaluate``, the path of the benchmark's ``mse``
and ``windows_per_s``: batches of 64 copied out of a strided window view
into the chunked forward.

Both a training step and a no-grad pass run in the balanced chunks of
``model.chunk_slices``: at most 42 windows at the gate shape and 6 at the
ETTh1 shape, and at least two chunks once each half of the batch holds a
quarter of ``model.CHUNK_BYTES`` (128 KiB) of residual map. So, the
single window aside, every batch above runs as several chunks at the
ETTh1 shape, and all but the last scored batch of 6 at the gate shape.
Matrix products over fewer rows may round differently, so against a tree
that cuts its batches otherwise these arrays need only agree within 1e-12.
The single-window forecast is one chunk on every tree, so it is
bit-identical whenever the arithmetic and the parameters are.

Each tree also saves every config's final model with its own
``training.save_checkpoint``. The files of this tree and PARENT_SRC must be
byte-identical wherever the final parameters are, and this tree's
``training.load_checkpoint`` must restore, bit for bit, PARENT_SRC's final
parameters from PARENT_SRC's file and its own final parameters from its
own file, which matters where the final parameters differ.

This tree runs twice, with its chunks on two worker threads and on the
calling thread alone, and those two runs must agree bit for bit: the
worker count may change when a chunk runs, never what it computes.

For information, each tree also counts, per config, the graph nodes of
one recorded chunk: the ops reachable from the loss of a training-mode
forward over the first chunk of a batch, before any backward; the bytes
that graph keeps: the distinct arrays its nodes' backward closures hold,
directly or through the calls (rebuilds) they hold, each counted once as
the array that owns its memory and the model's parameters left out, in
total and by the op whose node holds it first in creation order; the
tracemalloc peak of a second forward over that chunk plus its
``backward``, which graph bytes miss: the backward's transients and how
long the arrays it rebuilds live; and the ops of one batch-1 no-grad
forecast, the single window above, as calls to ``autodiff._make``. These
are the op counts and memory a change to the forward or backward can
cite; they change no exit code. The peak is taken with the public API
only (``forward``, ``mse``, ``backward``), so it is the same measurement
on both trees.

The script prints, per config and in total, how many arrays are
bit-identical and the worst relative difference, max|a - b| / max|b|, and
the bit-identical count of the recorded arrays alone, first for the two
runs of this tree and then for this tree against PARENT_SRC, then one line
per config on its checkpoint files, then one per config on the graph
nodes, graph bytes, forward-plus-backward peak and batch-1 forecast ops
of both trees, followed by that config's graph MiB split by the op whose
node first holds each array, in creation order. It exits 1
when an array is missing on one side, when the runs of this tree differ
in a bit, when an array differs from PARENT_SRC by more than 1e-12, or
when a checkpoint file differs or does not restore its parameters, and 2
on a bad argument, a PARENT_SRC without ``training.batch_gradients``
included. Last, it prints each tree's package size: the lines of each
``twins/<name>.py`` module side by side, then the lines of all of them,
in total and without blank and comment-only lines.
"""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types

import numpy as np

TOL = 1e-12
STEPS = 2
BATCH = 32
NO_GRAD_WINDOWS = 100   # chunks of unequal size at either shape
SCORED = 70             # windows evaluate scores: batches of 64 and 6
GATE = dict(C=2, L=96, T=24, d=8, h=64, lr=1e-3)      # the learning gate
ETTH1 = dict(C=7, L=96, T=96, d=16, h=128, lr=1e-4)   # the paper's ETTh1 runs
CONFIGS = {
    **{f"{v}_{name}": dict(shape, variant=v)
       for name, shape in (("gate", GATE), ("etth1", ETTH1))
       for v in ("mhsa", "twins", "twins_plus")},
    "twins_plus_gate_dropout": dict(GATE, variant="twins_plus", dropout=0.1),
    "twins_plus_gate_no_wconv": dict(GATE, variant="twins_plus",
                                     use_wconv=False),
    # the ablation's no_wconv_rwp row: keyless attention, linear patch map
    "twins_gate_no_wconv": dict(GATE, variant="twins", use_wconv=False),
    "twins_plus_gate_no_ctmlp": dict(GATE, variant="twins_plus",
                                     use_ctmlp=False),
    "twins_gate_scales_8_4": dict(GATE, variant="twins", scales=[8, 4]),
}
HERE_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src")


def graph_nodes(loss) -> list:
    """The records of the op nodes reachable from ``loss``, which no
    backward has consumed."""
    found, stack = {}, [loss._rec]
    while stack:
        r = stack.pop()
        if r is None or r.node is None or id(r) in found:
            continue
        found[id(r)] = r
        stack.extend(r.node[2])
    return list(found.values())


def graph_bytes(records, params) -> dict:
    """Bytes of the distinct arrays that the backward closures of the
    nodes of ``records`` hold, directly or through functions they hold,
    each counted as the array that owns its memory, by the op whose node
    holds it first in creation order (the function that defines the
    node's backward); the arrays of ``params`` belong to the model, not
    the graph, and are left out."""
    skip = {id(p.data) for p in params}
    seen, by_op = set(), {}
    for r in sorted(records, key=lambda r: r.node[0]):
        op = r.node[1].__qualname__.split(".")[0]
        fns = [r.node[1]]
        while fns:
            fn = fns.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            for cell in fn.__closure__ or ():
                try:
                    v = cell.cell_contents
                except ValueError:  # a variable the op never assigned
                    continue
                if isinstance(v, types.FunctionType):
                    fns.append(v)
                elif isinstance(v, np.ndarray):
                    while isinstance(v.base, np.ndarray):
                        v = v.base
                    if id(v) not in skip:
                        skip.add(id(v))
                        by_op[op] = by_op.get(op, 0) + v.nbytes
    return by_op


def peak_bytes(call) -> int:
    """tracemalloc's peak of the bytes allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_calls(ad, call) -> int:
    """Calls to ``ad._make``, one per op, while ``call()`` runs."""
    real, calls = ad._make, []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    ad._make = counting
    try:
        call()
    finally:
        ad._make = real
    return len(calls)


def module_lines(src: str) -> dict:
    """``twins/<name>.py`` -> (all lines, lines neither blank nor
    comment-only), for each module of ``src/twins``."""
    out = {}
    pkg = os.path.join(src, "twins")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines = [s.strip() for s in fh]
            out[f"twins/{name}"] = (len(lines), sum(
                bool(s) and not s.startswith("#") for s in lines))
    return out


def run_tree(src: str, out_dir: str, workers: int = 0) -> None:
    """Worker: train every config with the package under ``src``, its
    chunks on ``workers`` threads (0: as many as the tree chooses); write
    the arrays to ``out_dir/arrays.npz``, each final model to
    ``out_dir/<config>.ckpt`` and, per config, the graph nodes, bytes
    and bytes by op of one recorded chunk, the peak bytes of its forward
    and backward and the ops of one batch-1 forecast to
    ``out_dir/counts.json``."""
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
    if not hasattr(tr, "batch_gradients"):
        print(f"{src}: twins.training has no batch_gradients; this script "
              "compares only with a tree that has it", file=sys.stderr)
        raise SystemExit(2)
    arrays, counts = {}, {}
    for name, fields in CONFIGS.items():
        cfg = md.ModelConfig(**fields)
        rng = np.random.default_rng(0)
        model = md.TwinSModel(cfg)
        params = model.parameters()
        opt = ad.AdamState(params, lr=cfg.lr)
        for step in range(STEPS):
            x = rng.standard_normal((BATCH, 1, cfg.C, cfg.L))
            y = rng.standard_normal((BATCH, cfg.C, cfg.T))
            arrays[f"{name}/{step}/loss"] = tr.batch_gradients(model, x, y)
            for pname, p in model.params.items():
                arrays[f"{name}/{step}/grad/{pname}"] = p.grad
            grads, _ = ad.clip_grad_norm([p.grad for p in params],
                                         tr.CLIP_NORM)
            ad.adam_step(params, grads, opt)
        for pname, p in model.params.items():
            arrays[f"{name}/param/{pname}"] = p.data
        tr.save_checkpoint(model, os.path.join(out_dir, f"{name}.ckpt"))
        x = rng.standard_normal((NO_GRAD_WINDOWS, 1, cfg.C, cfg.L))
        with ad.no_grad():
            arrays[f"{name}/no_grad/forecast"] = model.forward(x).data
            arrays[f"{name}/no_grad/single"] = model.forward(x[0]).data
            ops = make_calls(ad, lambda: model.forward(x[0]))
        split = rng.standard_normal((cfg.C, cfg.L + cfg.T + SCORED - 1))
        m = tr.evaluate(model, split, cfg.L, cfg.T)
        arrays[f"{name}/no_grad/evaluate"] = np.array([m.mse, m.mae])
        # last, so its draws and dropout masks change no array above
        n = md.chunk_slices(BATCH, cfg)[0].stop
        x = rng.standard_normal((n, 1, cfg.C, cfg.L))
        y = ad.Tensor(rng.standard_normal((n, cfg.C, cfg.T)))
        records = graph_nodes(ad.mse(model.forward(x, training=True), y))
        by_op = graph_bytes(records, params)
        counts[name] = [len(records), sum(by_op.values()), ops]
        del records
        for p in params:
            p.zero_grad()
        counts[name] += [peak_bytes(lambda: ad.backward(
            ad.mse(model.forward(x, training=True), y))), by_op]
    np.savez(os.path.join(out_dir, "arrays.npz"), **arrays)
    with open(os.path.join(out_dir, "counts.json"), "w") as fh:
        json.dump(counts, fh)


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


def restores(tr, path: str, final: dict, name: str) -> bool:
    """Whether ``tr.load_checkpoint(path)`` gives the final parameters of
    config ``name`` in ``final`` bit for bit, and no other array."""
    loaded = tr.load_checkpoint(path).params
    keys = [k for k in final if k.startswith(f"{name}/param/")]
    return len(loaded) == len(keys) and all(
        np.array_equal(loaded[k.rsplit("/", 1)[1]].data, final[k])
        for k in keys)


def compare_checkpoints(here_dir: str, parent_dir: str, here: dict,
                        parent: dict) -> bool:
    """Print, per config, whether the two trees' checkpoint files are
    byte-identical and whether this tree restores each tree's final
    parameters (``here``, ``parent``) from that tree's file; True if
    nothing differs that should not."""
    sys.path.insert(0, os.path.abspath(HERE_SRC))
    import twins.training as tr

    ok = True
    for name in CONFIGS:
        mine, theirs = (os.path.join(d, f"{name}.ckpt")
                        for d in (here_dir, parent_dir))
        final = [k for k in parent if k.startswith(f"{name}/param/")]
        if not all(np.array_equal(here[k], parent[k]) for k in final):
            files = "final parameters differ, bytes not compared"
        else:
            with open(mine, "rb") as a, open(theirs, "rb") as b:
                same = a.read() == b.read()
            files = "files byte-identical" if same else "files DIFFER"
            ok = ok and same
        own = restores(tr, mine, here, name)
        restored = restores(tr, theirs, parent, name)
        ok = ok and own and restored
        word = {True: "restores", False: "does NOT restore"}
        print(f"{name:26s} {files}; this tree's file {word[own]} its final "
              f"parameters, PARENT_SRC's file {word[restored]} its own")
    return ok


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        run_tree(argv[1], argv[2], int(argv[3]))
        return 0
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "twins")):
        print("usage: check_equivalence.py PARENT_SRC, a directory that "
              "holds a twins package", file=sys.stderr)
        return 2
    # PARENT_SRC first, so a tree this script cannot compare with fails fast
    runs = ((argv[0], 0), (HERE_SRC, 2), (HERE_SRC, 1))
    with tempfile.TemporaryDirectory() as tmp:
        results, dirs = [], []
        for i, (src, workers) in enumerate(runs):
            out = os.path.join(tmp, f"tree{i}")
            os.mkdir(out)
            code = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--worker", os.path.abspath(src), out,
                                   str(workers)]).returncode
            if code:
                return code
            with np.load(os.path.join(out, "arrays.npz")) as f:
                results.append({k: f[k] for k in f.files})
            dirs.append(out)
        parent, here, alone = results
        print("this tree, two workers against one worker:")
        same_bits = compare(here, alone, "the one-worker run", 0.0)
        print("this tree against PARENT_SRC:")
        same = compare(here, parent, "PARENT_SRC", TOL)
        print("checkpoints of this tree against PARENT_SRC's:")
        files_ok = compare_checkpoints(dirs[1], dirs[0], here, parent)
        print("graph nodes and MiB of one recorded chunk, the peak MiB of "
              "its forward and backward, and ops of one batch-1 forecast, "
              "PARENT_SRC -> this tree:")
        counts = []
        for d in dirs[:2]:
            with open(os.path.join(d, "counts.json")) as fh:
                counts.append(json.load(fh))
        for name in CONFIGS:
            (n0, b0, o0, p0, op0), (n1, b1, o1, p1, op1) = (
                c[name] for c in counts)
            print(f"{name:26s} nodes {n0:4d} -> {n1:4d}, "
                  f"MiB {b0 / 2**20:6.2f} -> {b1 / 2**20:6.2f}, "
                  f"peak MiB {p0 / 2**20:6.2f} -> {p1 / 2**20:6.2f}, "
                  f"forecast ops {o0:4d} -> {o1:4d}")
            ops = sorted(set(op0) | set(op1),
                         key=lambda op: (-op0.get(op, 0), op))
            print(f"{'':26s} MiB by op: " + ", ".join(
                f"{op} {op0.get(op, 0) / 2**20:.2f} -> "
                f"{op1.get(op, 0) / 2**20:.2f}" for op in ops))
    sizes = [module_lines(src) for src in (argv[0], HERE_SRC)]
    print("lines per module, all and neither blank nor comment-only, "
          "PARENT_SRC -> this tree:")
    for name in sorted(set(sizes[0]) | set(sizes[1])):
        (t0, c0), (t1, c1) = (s.get(name, (0, 0)) for s in sizes)
        print(f"{name:26s} {t0:4d} -> {t1:4d}, {c0:4d} -> {c1:4d}")
    for label, size in zip(("PARENT_SRC", "this tree"), sizes):
        total, code = map(sum, zip(*size.values()))
        print(f"{label:10s} twins package: {total} lines, {code} neither "
              "blank nor comment-only")
    print("worker counts " + ("bit-identical" if same_bits
                              else "NOT bit-identical"))
    print("checkpoints " + ("agree" if files_ok else "DISAGREE"))
    print("equivalent" if same else f"NOT equivalent (tolerance {TOL:g})")
    return 0 if same and same_bits and files_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
