"""Dense float64 tensors with reverse-mode automatic differentiation.

Each op output that needs a gradient carries its backward node. ``backward``
runs the nodes reachable from the loss newest first, accumulating gradients
into every reachable leaf, and consumes them; a pass that never reaches
``backward`` is freed with its tensors. Wrap evaluation-only code in
``no_grad()`` so it records nothing.

A weight shared by every leading row of a ``matmul`` gets its gradient from
one flattened GEMM, and a gradient array an op has just allocated is stored
as it is rather than copied. Ops compute in place only on arrays they have
allocated themselves, never on their inputs, their upstream gradient or an
array their backward still needs.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "AdamState",
    "no_grad",
    "backward",
    "uniform_init",
    "add",
    "mul",
    "scale",
    "sigmoid",
    "gelu",
    "matmul",
    "conv1d",
    "depthwise_conv1d",
    "reshape",
    "transpose",
    "narrow",
    "roll",
    "repeat_heads",
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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


_recording = True
_creation = itertools.count()  # orders nodes: inputs before outputs
# Marks an op output whose node an earlier ``backward`` ran; such a tensor is
# not a leaf, so a new graph through it cannot get a correct gradient.
_CONSUMED = object()

# Multiply-accumulate counters for the complexity report.
_counting_macs = False
_mac_total = 0


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


class Tensor:
    """A dense float64 array plus optional gradient."""

    __slots__ = ("data", "requires_grad", "_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._node = None

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
        """Accumulated gradient; zeros for leaves no backward pass reached."""
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self):
        self._grad = None

    def _accum(self, g, fresh: bool = False):
        """Add ``g`` into the gradient.

        ``fresh`` hands over an array the caller has just allocated and keeps
        no other reference to, so the first one is stored without a copy. A
        view or a pass-through of another tensor's gradient must be copied.
        """
        if self._grad is None:
            self._grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
        else:
            self._grad += g

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


def _make(out_data: np.ndarray, backward_fn, *inputs: Tensor) -> Tensor:
    """Wrap op output; give it a backward node if anything needs grad."""
    needs = _recording and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:  # backward_fn must not hold ``out``: a cycle outlives the pass
        out._node = (next(_creation), backward_fn, inputs)
    return out


def backward(loss: Tensor) -> None:
    """Run the graph behind ``loss`` in reverse creation order, consuming it.

    Every leaf reachable from ``loss`` receives its accumulated gradient;
    leaves off the path keep a zero gradient. A repeated ``backward(loss)``
    does nothing; a new loss whose graph reaches an op output that an earlier
    ``backward`` consumed raises ``ValueError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss._node is _CONSUMED:
        return
    found = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._node is None or id(t) in found:
            continue
        if t._node is _CONSUMED:
            raise ValueError(
                f"backward: the graph reaches a tensor of shape {t.shape} "
                "whose graph an earlier backward() consumed"
            )
        found[id(t)] = t
        stack.extend(t._node[2])
    loss._accum(np.ones_like(loss.data), fresh=True)
    order = sorted(found.values(), key=lambda t: t._node[0])
    del found  # from here each node's arrays die once it has run
    while order:
        t = order.pop()
        _, fn, _ = t._node
        t._node = _CONSUMED
        if t._grad is not None:
            fn(t._grad)


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
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{op}: shapes {a.shape} and {b.shape} do not align"
        ) from None


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes("add", a, b)

    def bwd(g):
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.shape)
                t._accum(gt, fresh=gt is not g)

    return _make(a.data + b.data, bwd, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary_shapes("mul", a, b)
    ad, bd = a.data, b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * bd, a.shape), fresh=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g * ad, b.shape), fresh=True)

    return _make(ad * bd, bwd, a, b)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * c, fresh=True)

    return _make(a.data * c, bwd, a)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function from one exp(-|x|), stable in both tails."""
    x = a.data
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.where(x >= 0, 1.0, e)  # 1 / (1 + e) for x >= 0, e / (1 + e) below
    e += 1.0
    y /= e

    def bwd(g):
        if a.requires_grad:
            d = g * y
            d *= 1.0 - y
            a._accum(d, fresh=True)

    return _make(y, bwd, a)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with the Gaussian CDF (erf form)."""
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def bwd(g):
        if a.requires_grad:
            d = np.multiply(x, x)  # becomes g * (cdf + x * pdf)
            d *= -0.5
            np.exp(d, out=d)
            d *= _INV_SQRT2PI
            d *= x
            d += cdf
            d *= g
            a._accum(d, fresh=True)

    return _make(x * cdf, bwd, a)


# ---------------------------------------------------------------------------
# contractions and convolutions

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the trailing two axes.

    A 2-D ``b`` is one weight shared by every leading row of ``a``; its
    backward flattens those rows so that each gradient is a single GEMM.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul needs tensors with at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul: inner dims disagree, {a.shape} x {b.shape}"
        )
    ad, bd = a.data, b.data
    out = ad @ bd
    _add_macs(out.size // out.shape[-1] * ad.shape[-1] * out.shape[-1])

    def bwd(g):
        if bd.ndim == 2:
            k, n = bd.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                a._accum((g2 @ bd.T).reshape(a.shape), fresh=True)
            if b.requires_grad:
                b._accum(ad.reshape(-1, k).T @ g2, fresh=True)
            return
        if a.requires_grad:
            a._accum(_unbroadcast(g @ bd.swapaxes(-1, -2), a.shape), fresh=True)
        if b.requires_grad:
            b._accum(_unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape), fresh=True)

    return _make(out, bwd, a, b)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(..., Cin, L) -> (..., Cin*k, L) zero-padded columns; row c*k + j
    holds channel c shifted by tap j."""
    pad = (k - 1) // 2
    L = x.shape[-1]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])
    win = np.lib.stride_tricks.sliding_window_view(xp, L, axis=-1)
    return win.reshape(x.shape[:-2] + (x.shape[-2] * k, L))  # copies the view


def _correlate(x: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """(..., Cin, L) correlated with (Cout, Cin, K) -> (..., Cout, L)."""
    cout, cin, k = kd.shape
    return kd.reshape(cout, cin * k) @ _im2col(x, k)


def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Length-preserving correlation, stride 1, symmetric zero padding.

    x: (..., Cin, L); kernels: (Cout, Cin, K) with K odd -> (..., Cout, L).
    Computed as one GEMM over sliding-window columns (im2col).
    """
    if kernels.ndim != 3:
        raise ValueError(f"conv1d kernels must be (Cout, Cin, K), got {kernels.shape}")
    cout, cin, k = kernels.shape
    if k % 2 == 0:
        raise ValueError(f"conv1d kernel width must be odd, got {k}")
    if x.ndim < 2 or x.shape[-2] != cin:
        raise ValueError(
            f"conv1d: input {x.shape} does not match kernels {kernels.shape}"
        )
    xd, kd = x.data, kernels.data
    out = _correlate(xd, kd)
    L = xd.shape[-1]
    _add_macs(out.size // (cout * L) * cout * L * cin * k)

    def bwd(g):
        if kernels.requires_grad:
            # columns rebuilt here rather than kept alive through the pass
            cols = _im2col(xd, k)
            gk = (g @ cols.swapaxes(-1, -2)).reshape(-1, cout, cin * k)
            kernels._accum(gk.sum(axis=0).reshape(kd.shape), fresh=True)
        if x.requires_grad:
            # the adjoint: correlate with the kernels flipped and transposed
            x._accum(_correlate(g, kd.transpose(1, 0, 2)[:, :, ::-1]),
                     fresh=True)

    return _make(out, bwd, x, kernels)


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
    xd, kd = x.data, kernels.data
    out = _dw_correlate(xd, kd)
    _add_macs(out.size * k)

    def bwd(g):
        if kernels.requires_grad:
            P = xd.shape[-2]
            g3, x3 = g.reshape(-1, P, ch), xd.reshape(-1, P, ch)
            gk = np.zeros(kd.shape)
            for j, dst, src in _tap_slices(k, P):
                gk[:, j] = np.einsum("npc,npc->c", g3[:, dst], x3[:, src])
            kernels._accum(gk, fresh=True)
        if x.requires_grad:
            x._accum(_dw_correlate(g, kd[:, ::-1]), fresh=True)

    return _make(out, bwd, x, kernels)


# ---------------------------------------------------------------------------
# data movement

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape {a.shape} -> {shape} changes element count")
    old = a.shape

    def bwd(g):
        if a.requires_grad:
            a._accum(g.reshape(old))

    return _make(a.data.reshape(shape), bwd, a)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ValueError(f"transpose axes {axes} invalid for ndim {a.ndim}")
    inv = np.argsort(axes)

    def bwd(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return _make(a.data.transpose(axes), bwd, a)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward scatters into the slice."""
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ValueError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} "
            f"of shape {a.shape}"
        )
    idx = tuple(
        slice(start, start + length) if i == axis else slice(None)
        for i in range(a.ndim)
    )

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            a._accum(full, fresh=True)

    return _make(a.data[idx].copy(), bwd, a)


def roll(a: Tensor, shift: int, axis: int) -> Tensor:
    axis = axis % a.ndim

    def bwd(g):
        if a.requires_grad:
            a._accum(np.roll(g, -shift, axis=axis), fresh=True)

    return _make(np.roll(a.data, shift, axis=axis), bwd, a)


def repeat_heads(a: Tensor, reps: int) -> Tensor:
    """Repeat each leading-axis slice ``reps`` times consecutively.

    Backward sums the gradients of all replicas of a slice.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    s = a.shape[0]

    def bwd(g):
        if a.requires_grad:
            a._accum(g.reshape((s, reps) + a.shape[1:]).sum(axis=1), fresh=True)

    return _make(np.repeat(a.data, reps, axis=0), bwd, a)


# ---------------------------------------------------------------------------
# normalization and reductions

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            d = g * y
            dot = d.sum(axis=axis, keepdims=True)
            np.subtract(g, dot, out=d)
            d *= y
            a._accum(d, fresh=True)

    return _make(y, bwd, a)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance,
    then scale by ``gamma`` and shift by ``beta`` (both of that length).

    Row means are products with a vector of 1/D, so they run as BLAS calls.
    """
    D = x.shape[-1]
    if gamma.shape != (D,) or beta.shape != (D,):
        raise ValueError(
            f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must be "
            f"({D},) for input {x.shape}"
        )
    xd, gd = x.data, gamma.data
    row_mean = np.full(D, 1.0 / D)
    xhat = xd - (xd @ row_mean)[..., None]
    var = np.einsum("...i,...i->...", xhat, xhat) / D
    inv = (1.0 / np.sqrt(var + eps))[..., None]
    xhat *= inv
    y = xhat * gd
    y += beta.data

    def bwd(g):
        g2 = g.reshape(-1, D)
        if gamma.requires_grad:
            gamma._accum(np.einsum("ni,ni->i", g2, xhat.reshape(-1, D)),
                         fresh=True)
        if beta.requires_grad:
            beta._accum(np.ones(g2.shape[0]) @ g2, fresh=True)
        if x.requires_grad:
            d = g * gd
            m1 = d @ row_mean
            m2 = np.einsum("...i,...i->...", d, xhat) / D
            d -= m1[..., None]
            d -= xhat * m2[..., None]
            d *= inv
            x._accum(d, fresh=True)

    return _make(y, bwd, x, gamma, beta)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a._accum(np.full(a.shape, float(g)), fresh=True)

    return _make(np.asarray(a.data.sum()), bwd, a)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ValueError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def bwd(g):
        c = 2.0 * float(g) / n
        if pred.requires_grad:
            pred._accum(c * diff, fresh=True)
        if target.requires_grad:
            target._accum(-c * diff, fresh=True)

    return _make(np.asarray((diff * diff).mean()), bwd, pred, target)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    if p >= 1.0:
        raise ValueError("dropout rate must be < 1")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * mask, fresh=True)

    return _make(a.data * mask, bwd, a)


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    """First/second moment estimates per parameter, keyed by position."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, grads, state: AdamState):
    """Bias-corrected Adam update, in place on ``param.data``."""
    if len(params) != len(state.m):
        raise ValueError("adam_step: parameter count differs from state")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: grad shape {g.shape} != param shape {p.data.shape}"
            )
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state


def clip_grad_norm(grads, max_norm: float):
    """Scale the whole gradient list so its global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm > 0:
        f = max_norm / total
        grads = [g * f for g in grads]
    return grads, total
