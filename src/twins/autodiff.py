"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is its value, ``data``; one that needs a gradient also carries
a record of its shape, its gradient and, if an op made it, its backward
node. A node points to its inputs' records, never to the tensors, and keeps
only the arrays its backward reads (``gelu`` its CDF, ``layer_norm`` the
normalized rows), so an intermediate such as the residual stream into
``add`` is freed as soon as the forward code drops it. ``backward`` runs the
nodes reachable from the loss newest first, accumulating gradients into
every reachable leaf, and consumes them; a pass that never reaches
``backward`` is freed with its tensors. Under ``no_grad()`` ops record
nothing.

A recorded output that can be computed again, bit for bit, from arrays
the graph keeps anyway holds that computation, its rebuild, on its
record: ``layer_norm``'s is its affine step on the normalized rows its
node keeps, ``matmul``'s the product of the operands its node keeps,
``linear``'s its product (plus bias) on what its node keeps of its
input, ``depthwise_conv1d``'s its correlation of the same, ``gelu``'s
its CDF times what its node keeps of its input, and ``reshape`` and
``transpose`` apply themselves to their input's rebuild. The ops whose
backward reads an input array (``linear``, ``matmul``, ``mul``,
``depthwise_conv1d``, ``gelu``) keep that input's rebuild, when it has
one, in place of the array and run it only when the backward needs the
array, so a pass holds none of its layer-norm outputs, attention
projections or GELU inputs and outputs, for instance. A rebuild runs at
most once per ``backward``: the record memoises the array for every later
reader, read-only since they share it, and ``backward`` drops the memo
when it runs the output's own node, after every reader. Under
``no_grad()`` no output has a record, so none has a rebuild. Rebuilds
read parameter arrays (``gamma``, ``beta``, a weight such as ``w_q``,
``w_p`` or the subnet's kernels) when the backward runs, so nothing may
write a parameter between a recorded pass and its ``backward``: training
runs ``adam_step`` only after it.

One op computes each product: ``linear`` every one with a weight shared
by every leading row, its gradients one flattened GEMM each (a
convolution of data with trainable kernels is one, over the data's
sliding windows); ``matmul`` only operands with the same batch axes;
``mul`` by a 0-d constant every scaling. Gradients are read-only: the
first one a record receives is stored as it is, later ones are added out
of place, and a stored array may share memory with another record's
gradient (``reshape`` and ``transpose`` hand views straight through). Ops
compute in place only on arrays they have allocated themselves, never on
their inputs, their upstream gradient or an array their backward still
needs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "AdamState",
    "no_grad",
    "is_recording",
    "backward",
    "uniform_init",
    "add",
    "mul",
    "sigmoid",
    "gelu",
    "matmul",
    "linear",
    "depthwise_conv1d",
    "reshape",
    "transpose",
    "roll",
    "softmax",
    "layer_norm",
    "sum_all",
    "mse",
    "dropout",
    "adam_step",
    "clip_grad_norm",
    "enable_mac_counting",
    "mac_count",
    "reset_mac_count",
]


def _load_erf():
    """scipy's compiled erf, without importing scipy.special.

    erf is the only scipy function the package calls, and importing
    scipy.special for it is slow and large (README "Memory allocator"). So
    the ufunc extension that defines it is loaded by path, under a name of
    our own: a later ``import scipy.special`` loads its own copy as usual.
    The last part of the name must stay ``_special_ufuncs``, from which
    Python finds the extension's init function. A scipy without that file,
    or whose file does not load or defines no erf, falls back to the import.
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "special", "_special_ufuncs" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(
                "twins._special_ufuncs", path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module.erf
            except (ImportError, OSError, AttributeError):
                break
    from scipy.special import erf
    return erf


erf = _load_erf()
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


_recording = True
_creation = itertools.count()  # orders nodes: inputs before outputs
# Marks the record of an op output whose node an earlier ``backward`` ran; it
# is not a leaf, so a new graph through it cannot get a correct gradient.
_CONSUMED = object()

# Multiply-accumulate counters for the complexity report; the lock keeps
# the increments of ops running on several threads.
_counting_macs = False
_mac_total = 0
_mac_lock = threading.Lock()


def enable_mac_counting(enabled: bool = True) -> None:
    global _counting_macs
    _counting_macs = bool(enabled)


def reset_mac_count() -> None:
    global _mac_total
    _mac_total = 0


def mac_count() -> int:
    """Multiply-accumulate count since the last reset (0 unless enabled)."""
    return _mac_total


def _add_macs(n: int) -> None:
    global _mac_total
    if _counting_macs:
        with _mac_lock:
            _mac_total += int(n)


@contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


def is_recording() -> bool:
    """False inside ``no_grad``, where no op builds a graph node."""
    return _recording


class _Record:
    """Autograd state of a tensor that needs a gradient: its shape, its
    gradient and, for an op output, the node ``(creation order, backward fn,
    input records)``; an input that needs no gradient has ``None`` there.
    An op output that can be computed again also holds its rebuild and,
    once ``rebuilt`` has run it, the memo of its array, until ``backward``
    runs the node."""

    __slots__ = ("shape", "grad", "node", "rebuild", "memo")

    def __init__(self, shape, node=None, rebuild=None):
        self.shape = shape
        self.grad = None
        self.node = node
        self.rebuild = rebuild
        self.memo = None

    def rebuilt(self) -> np.ndarray:
        """The rebuild's array, computed on the first call only and then
        handed to every node that reads the output, so read-only."""
        if self.memo is None:
            self.memo = self.rebuild()
            self.memo.flags.writeable = False
        return self.memo

    def accum(self, g):
        """Add ``g`` into the gradient without writing either array.

        The first ``g`` is stored as it is, so it may be a view of another
        record's gradient; neither may be written afterwards.
        """
        g = g if self.grad is None else self.grad + g
        self.grad = np.asarray(g)  # 0-d arithmetic yields numpy scalars


class Tensor:
    """A dense float64 array plus, if it needs a gradient, its record (which
    holds the rebuild of an op output)."""

    __slots__ = ("data", "_rec")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._rec = _Record(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self):
        return self._rec is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def grad(self):
        """Accumulated gradient; zeros for leaves no backward pass reached.

        Read-only: it may share memory with another tensor's gradient.
        """
        if self._rec is None or self._rec.grad is None:
            return np.zeros_like(self.data)
        return self._rec.grad

    def zero_grad(self):
        if self._rec is not None:
            self._rec.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Trainable tensor drawn uniformly from +-1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _make(out_data: np.ndarray, backward_fn, *inputs: Tensor,
          rebuild=None) -> Tensor:
    """Wrap op output; give it a record if any input needs grad, holding
    ``rebuild``, if given: a call that returns ``out_data``'s bits anew.

    ``backward_fn(g, *input_records)`` must hold neither the inputs nor the
    output (a cycle outlives the pass), only the arrays it reads; so must
    ``rebuild``.
    """
    out = Tensor(out_data)
    if _recording:
        recs = tuple(t._rec for t in inputs)
        if any(recs):
            out._rec = _Record(out.data.shape,
                               (next(_creation), backward_fn, recs), rebuild)
    return out


def _rebuild_of(t: Tensor):
    """``t``'s ``_Record.rebuilt`` if it has a rebuild, else None."""
    return t._rec and t._rec.rebuild and t._rec.rebuilt


def _keep(t: Tensor):
    """What a node keeps of input ``t``: its rebuild if it has one, else
    its array; ``_kept`` gives the array back."""
    return _rebuild_of(t) or t.data


def _kept(v) -> np.ndarray:
    return v() if callable(v) else v


def backward(loss: Tensor) -> None:
    """Run the graph behind ``loss`` in reverse creation order, consuming it.

    Every leaf reachable from ``loss`` receives its accumulated gradient;
    leaves off the path keep a zero gradient. A repeated ``backward(loss)``
    does nothing; a new loss whose graph reaches an op output that an earlier
    ``backward`` consumed raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
    root = loss._rec
    if root is None or root.node is _CONSUMED:
        return
    found = {}
    stack = [root]
    while stack:
        r = stack.pop()
        if r is None or r.node is None or id(r) in found:
            continue
        if r.node is _CONSUMED:
            raise ValueError(
                f"backward: the graph reaches a tensor of shape {r.shape} "
                "whose graph an earlier backward() consumed"
            )
        found[id(r)] = r
        stack.extend(r.node[2])
    root.accum(np.ones(root.shape))
    order = sorted(found.values(), key=lambda r: r.node[0])
    del found  # from here each node's arrays die once it has run
    while order:
        r = order.pop()
        _, fn, recs = r.node
        # every node that reads r's output is newer, so has run
        r.node, r.rebuild, r.memo = _CONSUMED, None, None
        if r.grad is not None:
            fn(r.grad, *recs)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    """Raise unless numpy broadcasting aligns the two shapes (its rule,
    checked in Python: trailing axes agree or one of them is 1)."""
    sa, sb = a.shape, b.shape
    if sa != sb and any(m != n and m != 1 and n != 1
                        for m, n in zip(sa[::-1], sb[::-1])):
        raise ValueError(f"{op}: shapes {sa} and {sb} do not align")


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes("add", a, b)

    def bwd(g, ra, rb):
        for r in (ra, rb):
            if r:
                r.accum(_unbroadcast(g, r.shape))

    return _make(a.data + b.data, bwd, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; the node keeps a factor only for the other's
    gradient, so a product with a constant keeps only the constant."""
    _check_binary_shapes("mul", a, b)
    out = a.data * b.data
    da = _keep(b) if a.requires_grad else None
    db = _keep(a) if b.requires_grad else None

    def bwd(g, ra, rb):
        if ra:
            ra.accum(_unbroadcast(g * _kept(da), ra.shape))
        if rb:
            rb.accum(_unbroadcast(g * _kept(db), rb.shape))

    return _make(out, bwd, a, b)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function from one exp(-|x|), stable in both tails."""
    x = a.data
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0)  # 1 / (1 + e) for x >= 0, e / (1 + e) below
    e += 1.0
    y /= e

    def bwd(g, ra):
        d = g * y
        d *= 1.0 - y
        ra.accum(d)

    return _make(y, bwd, a)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with the Gaussian CDF (erf form). A recorded
    pass keeps Phi(x) and what ``_keep`` keeps of x; its backward computes
    the derivative Phi(x) + x * pdf(x) from them, and the output's rebuild
    is Phi(x) * x.

    erf is odd, and scipy's is exactly so: it computes erf(x < 0) as
    -erf(-x). On mixed-sign activations that branch mispredicts and costs
    about as much as the arithmetic, so erf takes |x| / sqrt(2) and the
    sign comes back by copysign, with the same bits for every non-NaN x.
    """
    x = a.data
    cdf = np.abs(x)
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not (_recording and a.requires_grad):  # no node: the output is cdf
        cdf *= x
        return _make(cdf, None, a)
    kx = _keep(a)

    def bwd(g, ra):
        xd = _kept(kx)
        d = np.multiply(xd, xd)
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= xd
        d += cdf
        d *= g
        ra.accum(d)

    return _make(cdf * x, bwd, a, rebuild=lambda: cdf * _kept(kx))


# ---------------------------------------------------------------------------
# contractions and convolutions

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes of operands with the same
    batch axes; a weight shared by every leading row goes to ``linear``."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul needs tensors with at least 2 dims")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul: shapes disagree, {a.shape} x {b.shape}")
    out = a.data @ b.data
    _add_macs(out.size * a.shape[-1])
    ka, kb = _keep(a), _keep(b)

    def bwd(g, ra, rb):
        if ra:
            ra.accum(g @ _kept(kb).swapaxes(-1, -2))
        if rb:
            rb.accum(_kept(ka).swapaxes(-1, -2) @ g)

    return _make(out, bwd, a, b, rebuild=lambda: _kept(ka) @ _kept(kb))


def linear(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """``x @ w``, plus ``b`` if given: a (K, N) weight shared by every
    leading row of x and an optional (N,) bias, added in place on the fresh
    product. Each gradient is one GEMM over the flattened rows."""
    inputs = (x, w) if b is None else (x, w, b)
    if (w.ndim != 2 or x.shape[-1:] != w.shape[:1]
            or b is not None and b.shape != w.shape[1:]):
        raise ValueError("linear: needs (..., K) input, (K, N) weight and "
                         "optionally an (N,) bias, got "
                         + ", ".join(str(t.shape) for t in inputs))
    k, n = w.shape
    kx, wd, bd = _keep(x), w.data, None if b is None else b.data

    def product(xd):
        y = xd @ wd
        if bd is not None:
            y += bd
        return y

    out = product(x.data)
    _add_macs(out.size * k)

    def bwd(g, rx, rw, rb=None):
        g2 = g.reshape(-1, n)
        if rx:
            rx.accum((g2 @ wd.T).reshape(rx.shape))
        if rw:
            rw.accum(_kept(kx).reshape(-1, k).T @ g2)
        if rb:
            rb.accum(np.ones(g2.shape[0]) @ g2)

    return _make(out, bwd, *inputs, rebuild=lambda: product(_kept(kx)))


def _tap_slices(k: int, n: int):
    """(tap, output rows, input rows) of an odd width-k zero-padded
    correlation along an axis of length n; taps that miss it are skipped."""
    pad = (k - 1) // 2
    for j in range(k):
        s = j - pad
        if abs(s) < n:
            yield (j, slice(max(0, -s), n - max(0, s)),
                   slice(max(0, s), n + min(0, s)))


def _dw_correlate(a: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """out[..., p, c] = sum_j kd[c, j] * a[..., p + j - pad, c], zero padded."""
    k = kd.shape[1]
    mid = (k - 1) // 2
    taps = kd.T
    out = a * taps[mid]
    for j, dst, src in _tap_slices(k, a.shape[-2]):
        if j != mid:
            out[..., dst, :] += a[..., src, :] * taps[j]
    return out


def depthwise_conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Per-feature correlation along the second-last axis, stride 1,
    symmetric zero padding.

    x: (..., P, Ch) with features innermost; kernels: (Ch, K) with K odd
    -> (..., P, Ch). Computed tap by tap on shifted slices.
    """
    if kernels.ndim != 2:
        raise ValueError(f"depthwise kernels must be (Ch, K), got {kernels.shape}")
    ch, k = kernels.shape
    if k % 2 == 0:
        raise ValueError(f"depthwise kernel width must be odd, got {k}")
    if x.ndim < 2 or x.shape[-1] != ch:
        raise ValueError(
            f"depthwise_conv1d: input {x.shape} has feature extent "
            f"{x.shape[-1] if x.ndim else '?'}, kernels expect {ch}"
        )
    kd, P = kernels.data, x.shape[-2]
    out = _dw_correlate(x.data, kd)
    _add_macs(out.size * k)
    kx = _keep(x)

    def bwd(g, rx, rk):
        if rk:
            g3, x3 = g.reshape(-1, P, ch), _kept(kx).reshape(-1, P, ch)
            gk = np.zeros(kd.shape)
            for j, dst, src in _tap_slices(k, P):
                gk[:, j] = np.einsum("npc,npc->c", g3[:, dst], x3[:, src])
            rk.accum(gk)
        if rx:
            rx.accum(_dw_correlate(g, kd[:, ::-1]))

    return _make(out, bwd, x, kernels,
                 rebuild=lambda: _dw_correlate(_kept(kx), kd))


# ---------------------------------------------------------------------------
# data movement

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ValueError(f"reshape {a.shape} -> {shape} changes element count")

    def bwd(g, ra):
        ra.accum(g.reshape(ra.shape))

    r = _rebuild_of(a)
    return _make(a.data.reshape(shape), bwd, a, rebuild=r and (
        lambda: r().reshape(shape)))


@functools.lru_cache(maxsize=None)
def _permutation(ndim: int, axes: tuple) -> tuple:
    """The permutation of all ``ndim`` axes that ``transpose`` applies for
    ``axes``, and its inverse; worked out once per pair."""
    k = len(axes)
    if k > ndim or sorted(axes) != list(range(k)):
        raise ValueError(f"transpose axes {axes} invalid for ndim {ndim}")
    n = ndim - k
    perm = tuple(range(n)) + tuple(n + i for i in axes)
    return perm, tuple(sorted(range(ndim), key=perm.__getitem__))


def transpose(a: Tensor, axes) -> Tensor:
    """Permute the last ``len(axes)`` axes of ``a`` by ``axes``, numbered
    from the first of them, and keep the axes before them: ``(1, 0)`` swaps
    the last two axes of any array, a full-length ``axes`` permutes them all.
    """
    perm, inv = _permutation(a.ndim, tuple(axes))

    def bwd(g, ra):
        ra.accum(g.transpose(inv))

    r = _rebuild_of(a)
    return _make(a.data.transpose(perm), bwd, a, rebuild=r and (
        lambda: r().transpose(perm)))


def _roll(x: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """``np.roll(x, shift, axis)`` as two slice copies."""
    n = x.shape[axis]
    s = shift % (n or 1)
    lead = (slice(None),) * axis
    out = np.empty_like(x)
    out[lead + (slice(s, None),)] = x[lead + (slice(None, n - s),)]
    out[lead + (slice(None, s),)] = x[lead + (slice(n - s, None),)]
    return out


def roll(a: Tensor, shift: int, axis: int) -> Tensor:
    axis = axis % a.ndim

    def bwd(g, ra):
        ra.accum(_roll(g, -shift, axis))

    return _make(_roll(a.data, shift, axis), bwd, a)


# ---------------------------------------------------------------------------
# normalization and reductions

def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g, ra):
        d = g * y
        dot = d.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=d)
        d *= y
        ra.accum(d)

    return _make(y, bwd, a)


@functools.lru_cache(maxsize=None)
def _row_mean(D: int) -> np.ndarray:
    """Read-only vector of 1/D, built once per width."""
    v = np.empty(D)
    v.fill(1.0 / D)
    v.flags.writeable = False
    return v


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance,
    then scale by ``gamma`` and shift by ``beta`` (both of that length).

    Row means are products with a vector of 1/D, so they run as BLAS calls.
    The output's rebuild is the same affine step on the normalized rows.
    """
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise ValueError(
            f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must be "
            f"({D},) for input {x.shape}"
        )
    xd, gd, bd = x.data, gamma.data, beta.data
    row_mean = _row_mean(D)
    xhat = xd - (xd @ row_mean)[..., None]
    var = np.einsum("...i,...i->...", xhat, xhat) / D
    inv = (1.0 / np.sqrt(var + LAYER_NORM_EPS))[..., None]
    xhat *= inv

    def affine():
        y = xhat * gd
        y += bd
        return y

    def bwd(g, rx, rg, rb):
        g2 = g.reshape(-1, D)
        if rg:
            rg.accum(np.einsum("ni,ni->i", g2, xhat.reshape(-1, D)))
        if rb:
            rb.accum(np.ones(g2.shape[0]) @ g2)
        if rx:
            d = g * gd
            m1 = d @ row_mean
            m2 = np.einsum("...i,...i->...", d, xhat) / D
            d -= m1[..., None]
            d -= xhat * m2[..., None]
            d *= inv
            rx.accum(d)

    return _make(affine(), bwd, x, gamma, beta, rebuild=affine)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g, ra):
        ra.accum(np.full(ra.shape, float(g)))

    return _make(np.asarray(a.data.sum()), bwd, a)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ValueError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def bwd(g, rp, rt):
        c = 2.0 * float(g) / n
        if rp:
            rp.accum(c * diff)
        if rt:
            rt.accum(-c * diff)

    return _make(np.asarray((diff * diff).mean()), bwd, pred, target)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, a product with a fixed mask; identity when p == 0."""
    if p <= 0.0:
        return a
    if p >= 1.0:
        raise ValueError("dropout rate must be < 1")
    return mul(a, Tensor((rng.random(a.shape) >= p) / (1.0 - p)))


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    """First/second moment estimates per parameter, keyed by position."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, grads, state: AdamState):
    """Bias-corrected Adam update, in place on ``param.data`` and on the
    moment estimates, with two scratch arrays per parameter."""
    if len(params) != len(state.m):
        raise ValueError("adam_step: parameter count differs from state")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: grad shape {g.shape} != param shape {p.data.shape}"
            )
        m, v = state.m[i], state.v[i]
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step                                   # b1*m + (1-b1)*g
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v *= b2
        v += step                                   # b2*v + (1-b2)*(g*g)
        np.divide(m, c1, out=step)
        step *= state.lr                            # lr * m_hat
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS                           # sqrt(v_hat) + eps
        step /= denom
        p.data -= step
    return params, state


def clip_grad_norm(grads, max_norm: float):
    """Scale the whole gradient list so its global L2 norm is <= max_norm
    (a non-finite norm leaves the list as it is)."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if 0 < max_norm < total < math.inf:
        f = max_norm / total
        grads = [g * f for g in grads]
    return grads, total
