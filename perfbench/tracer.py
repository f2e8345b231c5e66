"""Outside-in instrumentation of the twins package.

The benchmark never edits ``src/twins``. It swaps public attributes of the
twins modules (functions, and methods of ``TwinSModel``) for wrappers while it
measures and puts the original objects back afterwards.

Two modes share one class:

* untraced: only the step clock is installed. A training step runs from
  ``TwinSModel.zero_grad`` to the return of ``autodiff.adam_step``, the order
  in which ``training.train`` calls them; a forecast step is opened and
  closed by the benchmark around ``TwinSModel.forward``. The clock costs two
  timer reads per step.
* traced: every wrapper below also records a span (name, start, end, parent,
  step id, output bytes for autodiff ops) in memory, and MAC counting is on
  while the wrappers are installed. Spans are written out and reduced to
  per-layer metrics after the run.
"""

from __future__ import annotations

import csv
import time

import twins.attention as attention
import twins.autodiff as autodiff
import twins.data as data
import twins.embedding as embedding
import twins.model as model
import twins.patching as patching
import twins.training as training

# Differentiable ops of twins.autodiff; a name missing from the module is
# skipped, so the list may name ops that a later version removes.
OPS = ("add", "sub", "mul", "scale", "sigmoid", "gelu", "relu", "matmul",
       "conv1d", "depthwise_conv1d", "reshape", "transpose", "concat",
       "narrow", "roll", "repeat_heads", "softmax", "layer_norm", "sum_all",
       "mse", "mae", "dropout")

OP_PREFIX = "autodiff.op."

# (owner, attribute, span name). training imports make_windows by name, so
# both module attributes are swapped.
LAYER_FUNCTIONS = (
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "clip_grad_norm", "autodiff.clip_grad_norm"),
    (model.TwinSModel, "__init__", "model.build"),
    (model.TwinSModel, "forward", "model.forward"),
    (model.TwinSModel, "_residual_block", "model.residual_block"),
    (model, "feed_forward", "model.feed_forward"),
    (model, "ct_mlp", "model.ct_mlp"),
    (embedding, "wconv_embed", "embedding.wconv_embed"),
    (embedding, "add_position", "embedding.add_position"),
    (patching, "window_unfold", "patching.unfold"),
    (patching, "window_fold", "patching.fold"),
    (patching, "window_roll", "patching.roll"),
    (attention, "paa_scores", "attention.paa_scores"),
    (attention, "mhsa", "attention.attend"),
    (attention, "twins_attention", "attention.attend"),
    (attention, "twins_plus_attention", "attention.attend"),
    (data, "make_windows", "data.make_windows"),
    (training, "make_windows", "data.make_windows"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
)

# span fields
NAME, START, END, PARENT, STEP, OUT_BYTES = range(6)


class Instrument:
    """Step clock, and in traced mode a span recorder, over the twins API."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.step_ms: list = []       # latency of every finished step
        self.step_macs: dict = {}     # traced: step id -> forward MACs
        self.spans: list = []
        self._stack: list = []
        self._step = -1               # id of the open step, -1 outside
        self._steps_begun = 0
        self._step_t0 = None
        self._step_span = -1
        self._saved: list = []        # (owner, attribute, original)

    # ---- spans ----

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self._step, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span still open inside it."""
        if self.spans[idx][END]:
            return
        t = time.perf_counter_ns()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = t
            if top == idx:
                break

    # ---- steps ----

    def begin_step(self, name: str) -> None:
        """Start a step; a step left open by an exception is dropped."""
        if self.traced:
            if self._step_span >= 0:
                self.close(self._step_span)
            self._step = self._steps_begun
            self._step_span = self.open(name)
            autodiff.reset_mac_count()
        self._steps_begun += 1
        self._step_t0 = time.perf_counter_ns()

    def end_step(self) -> None:
        t = time.perf_counter_ns()
        if self._step_t0 is None:
            return
        self.step_ms.append((t - self._step_t0) / 1e6)
        self._step_t0 = None
        if self.traced:
            self.step_macs[self._step] = autodiff.mac_count()
            self.close(self._step_span)
            self._step_span = -1
            self._step = -1

    # ---- attribute swapping ----

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _spanned_op(self, fn, name: str):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                self.spans[idx][OUT_BYTES] = out.data.nbytes
                return out
            finally:
                self.close(idx)
        return wrapper

    def install(self) -> None:
        zero_grad = model.TwinSModel.zero_grad
        adam_step = autodiff.adam_step
        if self.traced:
            adam_step = self._spanned(adam_step, "autodiff.adam_step")

        def zero_grad_begins_step(model_self):
            self.begin_step("training.step")
            return zero_grad(model_self)

        def adam_step_ends_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.end_step()
            return out

        self._swap(model.TwinSModel, "zero_grad", zero_grad_begins_step)
        self._swap(autodiff, "adam_step", adam_step_ends_step)
        if not self.traced:
            return
        for op in OPS:
            fn = getattr(autodiff, op, None)
            if fn is not None:
                self._swap(autodiff, op, self._spanned_op(fn, OP_PREFIX + op))
        for owner, attr, name in LAYER_FUNCTIONS:
            self._swap(owner, attr, self._spanned(getattr(owner, attr), name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        if self.traced:
            autodiff.enable_mac_counting(True)
        return self

    def __exit__(self, *exc):
        if self.traced:
            autodiff.enable_mac_counting(False)
            autodiff.reset_mac_count()
        self.restore()
        return False


# ---------------------------------------------------------------------------
# reductions over the span list

def self_times(spans, ops_count_as_self: bool = False) -> list:
    """Duration minus the time covered by direct children, per span (ns).

    Spans on one thread nest, so children never overlap each other. With
    ``ops_count_as_self`` a layer keeps the time of the autodiff ops it calls
    directly: ``model.forward`` then covers instance normalization, the head
    and layout ops, which it runs as ops of its own. The pre-norms and
    residual adds sit in ``model.residual_block`` and the position add in
    ``embedding.add_position``, both spans of their own, so they stay out.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0 and not (ops_count_as_self
                                   and s[NAME].startswith(OP_PREFIX)):
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def totals(spans) -> dict:
    """name -> [calls, inclusive ns, self ns, layer self ns]."""
    own = self_times(spans)
    layer = self_times(spans, ops_count_as_self=True)
    out: dict = {}
    for s, o, l in zip(spans, own, layer):
        t = out.setdefault(s[NAME], [0, 0, 0, 0])
        t[0] += 1
        t[1] += s[END] - s[START]
        t[2] += o
        t[3] += l
    return out


def step_counts(spans, step: int) -> tuple:
    """(op calls, computed output bytes) of the ops inside one step."""
    ops = 0
    out_bytes = 0
    for s in spans:
        if s[STEP] == step and s[NAME].startswith(OP_PREFIX):
            ops += 1
            out_bytes += s[OUT_BYTES]
    return ops, out_bytes


def write_spans(spans, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "name", "start_ns", "end_ns", "parent", "step",
                    "out_bytes"))
        for i, s in enumerate(spans):
            w.writerow((i,) + tuple(s))
