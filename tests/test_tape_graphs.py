"""Drawn graphs over the exported ops, checked against properties of the
tape that span nodes: a rebuild shared by several readers, read-only
arrays shared between records, reshape and transpose rebuilt over
rebuilds, a producer's node run after all its readers, and the graph a
``backward`` consumes.

A graph is a list of steps, each a trainable leaf, a constant or an op
over earlier steps' values, so the same graph can be built again on
other leaf arrays, with or without recording. Every op output is read by
one to four later steps; the loss weights each output that no op reads
by a leaf of its shape and sums the results. Shapes stay within at most
three axes of at most 6 and 120 elements, all float64.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins import autodiff as ad
from twins import gradcheck as gc

MAX_READERS = 4
MAX_DIM = 6
MAX_SIZE = 4 * 5 * 6


def fits(shape) -> bool:
    return (len(shape) <= 3 and all(n <= MAX_DIM for n in shape)
            and math.prod(shape) <= MAX_SIZE)


def reshapes(shape) -> list:
    """Every shape of the same size that ``fits``, ``shape`` first."""
    size = math.prod(shape)
    out = [tuple(shape)]
    for ndim in (1, 2, 3):
        for s in itertools.product(range(1, MAX_DIM + 1), repeat=ndim):
            if math.prod(s) == size and s not in out:
                out.append(s)
    return out


def out_shape(op, in_shapes, kw):
    """The shape ``op`` gives on inputs of ``in_shapes``, by running it."""
    with ad.no_grad():
        return getattr(ad, op)(*(ad.Tensor(np.zeros(s)) for s in in_shapes),
                               **kw).shape


@st.composite
def graphs(draw):
    """(steps, seed): steps are ``(kind, refs, kwargs, shape)`` with kind
    "leaf", "const" or the name of an ``autodiff`` op, and refs the
    indices of its inputs."""
    steps, readers = [], []

    def add(kind, refs=(), kw=None, shape=None):
        for i in refs:
            readers[i] += 1
        steps.append((kind, tuple(refs), kw or {}, shape))
        readers.append(0)
        return len(steps) - 1

    def operand(shape, kind, a):
        """A fresh leaf or constant of ``shape``, or a value of that
        shape with a reader slot free once ``a`` has taken its own."""
        same = [i for i, s in enumerate(steps) if s[3] == shape
                and s[0] != "const" and readers[i] + (i == a) < MAX_READERS]
        if same and not draw(st.booleans()):
            return same[-1 - draw(st.integers(0, len(same) - 1))]
        return add(kind, shape=shape)

    dims = st.integers(1, MAX_DIM)
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.lists(dims, min_size=1, max_size=3).filter(fits))
        add("leaf", shape=tuple(shape))
    for _ in range(draw(st.integers(3, 10))):
        # newer values first, so that drawn graphs grow deep
        free = [i for i, s in enumerate(steps)
                if s[0] != "const" and readers[i] < MAX_READERS]
        a = free[-1 - draw(st.integers(0, len(free) - 1))]
        sa = steps[a][3]
        nd = len(sa)
        # the ops whose outputs have rebuilds, or read an input array,
        # first
        names = (["layer_norm", "linear", "gelu", "mul", "reshape"]
                 + ["transpose", "matmul", "depthwise_conv1d"] * (nd >= 2)
                 + ["add", "softmax", "sigmoid", "roll", "sum_all"])
        if nd == 0:
            names = ["gelu", "mul", "add", "sigmoid", "sum_all"]
        op = draw(st.sampled_from(names))
        refs, kw = [a], {}
        # the last-axis width of a product of a that keeps to MAX_SIZE
        width = lambda: draw(st.integers(
            1, min(MAX_DIM, MAX_SIZE * sa[-1] // math.prod(sa))))
        if op in ("add", "mul"):
            # the other operand: the same shape, a trailing part of it, or
            # a 0-d constant; leaf or constant, or an earlier value
            cut = draw(st.integers(0, nd))
            kind = draw(st.sampled_from(["leaf", "const"]))
            b = operand(sa[cut:], kind, a)
            refs = [a, b] if draw(st.booleans()) else [b, a]
        elif op == "roll":
            kw = dict(shift=draw(st.integers(-3, 3)),
                      axis=draw(st.integers(-nd, nd - 1)))
        elif op == "reshape":
            kw = dict(shape=draw(st.sampled_from(reshapes(sa))))
        elif op == "transpose":
            k = draw(st.integers(2, nd))
            kw = dict(axes=tuple(draw(st.permutations(range(k)))))
        elif op == "matmul":
            n = width()
            refs.append(operand(sa[:-2] + (sa[-1], n), "leaf", a))
        elif op == "linear":
            n = width()
            refs.append(add(draw(st.sampled_from(["leaf", "const"])),
                            shape=(sa[-1], n)))
            if draw(st.booleans()):
                refs.append(add("leaf", shape=(n,)))
        elif op == "layer_norm":
            refs += [add("leaf", shape=sa[-1:]), add("leaf", shape=sa[-1:])]
        elif op == "depthwise_conv1d":
            k = draw(st.sampled_from([1, 3, 5]))
            refs.append(add("leaf", shape=(sa[-1], k)))
        shape = out_shape(op, [steps[i][3] for i in refs], kw)
        assert fits(shape), (op, shape)
        add(op, refs, kw, shape)
    # the loss reads every value that nothing reads: sum(v * W_v) over
    # them, with each W_v a leaf, so that mul keeps v
    total = None
    for i in [i for i, s in enumerate(steps)
              if s[0] != "const" and readers[i] == 0]:
        weighted = add("mul", [i, add("leaf", shape=steps[i][3])],
                       shape=steps[i][3])
        term = add("sum_all", [weighted], shape=())
        total = term if total is None else add("add", [total, term], shape=())
    return steps, draw(st.integers(0, 2 ** 32 - 1))


def draw_arrays(steps, seed) -> dict:
    """Step index -> array, uniform in [-1, 1], of each leaf and constant."""
    rng = np.random.default_rng(seed)
    return {i: rng.uniform(-1.0, 1.0, s[3]) for i, s in enumerate(steps)
            if s[0] in ("leaf", "const")}


def build(steps, arrays) -> list:
    """The value of every step, the loss last."""
    vals = []
    for i, (kind, refs, kw, _) in enumerate(steps):
        if kind in ("leaf", "const"):
            vals.append(ad.Tensor(arrays[i], requires_grad=kind == "leaf"))
        else:
            vals.append(getattr(ad, kind)(*(vals[j] for j in refs), **kw))
    return vals


def leaf_ids(steps) -> list:
    return [i for i, s in enumerate(steps) if s[0] == "leaf"]


def reached(loss) -> list:
    """The records of the op nodes reachable from ``loss``."""
    found, stack = {}, [loss._rec]
    while stack:
        r = stack.pop()
        if r is None or r.node is None or id(r) in found:
            continue
        found[id(r)] = r
        stack.extend(r.node[2])
    return list(found.values())


def gradients(steps, arrays) -> dict:
    vals = build(steps, arrays)
    ad.backward(vals[-1])
    return {i: vals[i].grad for i in leaf_ids(steps)}


GRAPHS = settings(max_examples=60, deadline=None, derandomize=True)


@GRAPHS
@given(graph=graphs())
def test_directional_finite_differences(graph):
    steps, seed = graph
    arrays = draw_arrays(steps, seed)
    grads = gradients(steps, arrays)
    rng = np.random.default_rng(seed)
    analytic, numeric = [], []
    for _ in range(3):
        v = {i: rng.uniform(-1.0, 1.0, arrays[i].shape)
             for i in leaf_ids(steps)}

        def f(sign):
            moved = dict(arrays)
            for i, d in v.items():
                moved[i] = arrays[i] + sign * gc.STEP * d
            with ad.no_grad():
                return build(steps, moved)[-1].item()

        analytic.append(sum(float((grads[i] * d).sum())
                            for i, d in v.items()))
        numeric.append((f(1.0) - f(-1.0)) / (2.0 * gc.STEP))
    err = gc.rel_error(np.array(analytic), np.array(numeric))
    assert err < gc.TOL, (err, analytic, numeric)


@GRAPHS
@given(graph=graphs())
def test_rebuilds_change_no_bit(graph):
    # a node that keeps every input array gives the same gradients
    steps, seed = graph
    arrays = draw_arrays(steps, seed)
    on, real = gradients(steps, arrays), ad._rebuild_of
    ad._rebuild_of = lambda t: None
    try:
        off = gradients(steps, arrays)
    finally:
        ad._rebuild_of = real
    for i, g in on.items():
        assert g.tobytes() == off[i].tobytes(), steps[i]


@GRAPHS
@given(graph=graphs())
def test_backward_consumes_every_reached_node(graph):
    steps, seed = graph
    handed, rebuilt = [], ad._Record.rebuilt

    def recorded(rec):
        handed.append(rebuilt(rec))
        return handed[-1]

    ad._Record.rebuilt = recorded
    try:
        vals = build(steps, draw_arrays(steps, seed))
        records = reached(vals[-1])
        ad.backward(vals[-1])
    finally:
        ad._Record.rebuilt = rebuilt
    for r in records:
        assert r.node is ad._CONSUMED
        assert r.rebuild is None and r.memo is None
    for v in vals:
        g = v._rec and v._rec.grad
        if g is not None:
            assert not g.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g[...] = 0.0
    for a in handed:
        assert not a.flags.writeable


@GRAPHS
@given(graph=graphs(), pick=st.integers(0, 2 ** 16))
def test_second_loss_through_consumed_nodes_raises(graph, pick):
    steps, seed = graph
    vals = build(steps, draw_arrays(steps, seed))
    loss = vals[-1]
    ad.backward(loss)
    before = {i: vals[i].grad for i in leaf_ids(steps)}
    ad.backward(loss)  # the consumed loss itself stays a no-op
    for i, g in before.items():
        assert vals[i].grad is g
    outputs = [v for v, s in zip(vals, steps)
               if s[0] not in ("leaf", "const") and v.requires_grad]
    mid = outputs[pick % len(outputs)]
    with pytest.raises(ValueError, match=(
            r"backward: the graph reaches a tensor of shape .* whose graph "
            r"an earlier backward\(\) consumed")):
        ad.backward(ad.sum_all(mid))
