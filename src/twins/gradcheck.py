"""Finite-difference verification of the analytic gradients.

Central differences with step 1e-5 against float64 analytic gradients.
The error metric is max|analytic - fd| / max(max|fd|, 1e-12), so a perfectly
zero true gradient is compared absolutely rather than blowing up.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def numeric_grads(f, tensors, h: float = DEFAULT_STEP):
    """Central-difference gradient of scalar-valued ``f`` w.r.t. each tensor."""
    grads = []
    with ad.no_grad():
        for t in tensors:
            g = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                gflat[i] = (fp - fm) / (2.0 * h)
            grads.append(g)
    return grads


def analytic_grads(f, tensors):
    for t in tensors:
        t.zero_grad()
    loss = f()
    ad.backward(loss)
    return [t.grad for t in tensors]


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(numeric))) if numeric.size else 0.0, 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / denom


def gradcheck(f, tensors, h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
              grad_tweak=None):
    """Compare analytic and numeric gradients of scalar ``f``.

    ``grad_tweak``, if given, is applied to the analytic gradient list before
    comparison; the selfcheck uses it to prove a corrupted gradient is caught.
    Returns (ok, worst relative error).
    """
    ana = analytic_grads(f, tensors)
    if grad_tweak is not None:
        ana = grad_tweak(ana)
    num = numeric_grads(f, tensors, h=h)
    worst = max((rel_error(a, n) for a, n in zip(ana, num)), default=0.0)
    return worst < tol, worst


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def op_cases():
    """One scalarized case per differentiable op, shapes kept tiny.

    An op with more than one backward path has a case per path, named
    ``<op>_<path>``.

    Returns an ordered dict: name -> (builder() -> (f, tensors)).
    """
    cases = {}

    def case(name):
        def deco(fn):
            cases[name] = fn
            return fn
        return deco

    def P(shape, seed, lo=-1.0, hi=1.0):
        return ad.Tensor(_rng(seed).uniform(lo, hi, shape), requires_grad=True)

    @case("add")
    def _add():
        a, b = P((3, 4), 0), P((4,), 1)
        return (lambda: ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b)))), [a, b]

    @case("mul")
    def _mul():
        a, b = P((2, 5), 4), P((2, 5), 5)
        return (lambda: ad.sum_all(ad.mul(ad.mul(a, b), a))), [a, b]

    @case("scale")
    def _scale():
        a = P((4, 3), 6)
        return (lambda: ad.sum_all(ad.mul(ad.scale(a, 1.7), a))), [a]

    @case("sigmoid")
    def _sigmoid():
        a = P((3, 3), 7, -3, 3)
        return (lambda: ad.sum_all(ad.mul(ad.sigmoid(a), a))), [a]

    @case("gelu")
    def _gelu():
        a = P((3, 3), 8, -3, 3)
        return (lambda: ad.sum_all(ad.mul(ad.gelu(a), a))), [a]

    @case("matmul")
    def _matmul():
        a, b = P((2, 3, 4), 11), P((4, 5), 12)
        return (lambda: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b)))), [a, b]

    @case("matmul_batched")
    def _matmul_batched():
        # a per-batch b, and an (S, 1, 1, K, N) b broadcast over two axes
        a, b = P((2, 3, 4), 36), P((2, 4, 5), 37)
        c, w = P((2, 2, 3, 2, 4), 38), P((2, 1, 1, 4, 3), 39)

        def f():
            ab, cw = ad.matmul(a, b), ad.matmul(c, w)
            return ad.add(ad.sum_all(ad.mul(ab, ab)), ad.sum_all(ad.mul(cw, cw)))
        return f, [a, b, c, w]

    @case("conv1d")
    def _conv1d():
        x, k = P((2, 3, 7), 13), P((4, 3, 3), 14)
        return (lambda: ad.sum_all(ad.mul(ad.conv1d(x, k), ad.conv1d(x, k)))), [x, k]

    @case("depthwise_conv1d")
    def _dwconv():
        x, k = P((2, 6, 3), 15), P((3, 3), 16)  # (..., P, Ch)
        return (lambda: ad.sum_all(
            ad.mul(ad.depthwise_conv1d(x, k), ad.depthwise_conv1d(x, k)))), [x, k]

    @case("reshape")
    def _reshape():
        a = P((2, 6), 17)
        return (lambda: ad.sum_all(
            ad.mul(ad.reshape(a, (3, 4)), ad.reshape(a, (3, 4))))), [a]

    @case("transpose")
    def _transpose():
        a = P((2, 3, 4), 18)
        f = lambda: ad.sum_all(ad.mul(ad.transpose(a, (2, 0, 1)),
                                      ad.transpose(a, (2, 0, 1))))
        return f, [a]

    @case("narrow")
    def _narrow():
        a = P((3, 6), 21)
        f = lambda: ad.sum_all(ad.mul(ad.narrow(a, 1, 2, 3), ad.narrow(a, 1, 2, 3)))
        return f, [a]

    @case("roll")
    def _roll():
        a = P((3, 5), 22)
        f = lambda: ad.sum_all(ad.mul(ad.roll(a, 2, axis=1), a))
        return f, [a]

    @case("repeat_heads")
    def _repeat():
        a = P((2, 3), 23)
        b = P((6, 3), 24)
        f = lambda: ad.sum_all(ad.mul(ad.repeat_heads(a, 3), b))
        return f, [a, b]

    @case("softmax")
    def _softmax():
        a = P((2, 5), 25, -2, 2)
        w = P((2, 5), 26)
        f = lambda: ad.sum_all(ad.mul(ad.softmax(a, axis=-1), w))
        return f, [a, w]

    @case("layer_norm")
    def _layer_norm():
        x = P((2, 3, 6), 27)
        g = P((6,), 28, 0.5, 1.5)
        b = P((6,), 29)
        f = lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), x))
        return f, [x, g, b]

    @case("sum_all")
    def _sum_all():
        a = P((4, 4), 30)
        return (lambda: ad.sum_all(ad.mul(a, a))), [a]

    @case("mse")
    def _mse():
        p, t = P((3, 4), 31), P((3, 4), 32)
        return (lambda: ad.mse(p, t)), [p, t]

    @case("dropout")
    def _dropout():
        a = P((4, 4), 35)

        def f():
            # same mask every call: reseed before each evaluation
            return ad.sum_all(ad.mul(ad.dropout(a, 0.3, np.random.default_rng(99)), a))
        return f, [a]

    return cases


def run_op_checks(inject_bug: str | None = None, tol: float = DEFAULT_TOL):
    """Gradcheck every registered op; returns list of (name, ok, err).

    ``inject_bug`` names one op whose analytic gradient is corrupted by 1%
    before comparison; that case must then FAIL, demonstrating sensitivity.
    """
    results = []
    for name, builder in op_cases().items():
        f, tensors = builder()
        tweak = None
        if inject_bug == name:
            tweak = lambda gs: [g * 1.01 for g in gs]
        ok, err = gradcheck(f, tensors, tol=tol, grad_tweak=tweak)
        results.append((name, ok, err))
    return results
