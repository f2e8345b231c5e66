"""Finite-difference verification of the analytic gradients.

Central differences with step 1e-5 against float64 analytic gradients.
The error metric is max|analytic - fd| / max(max|fd|, 1e-12), so a perfectly
zero true gradient is compared absolutely rather than blowing up.
``OP_CALLS`` is the one table of op calls: the finite-difference cases, the
``twins selfcheck`` lines and the op tests are all built from it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .embedding import sliding_windows

STEP = 1e-5
TOL = 1e-4


def numeric_grads(f, tensors):
    """Central-difference gradient of scalar-valued ``f`` w.r.t. each tensor."""
    grads = []
    with ad.no_grad():
        for t in tensors:
            g = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + STEP
                fp = f().item()
                flat[i] = orig - STEP
                fm = f().item()
                flat[i] = orig
                gflat[i] = (fp - fm) / (2.0 * STEP)
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


def gradcheck(f, tensors, grad_tweak=None):
    """Compare analytic and numeric gradients of scalar ``f``.

    ``grad_tweak``, if given, is applied to the analytic gradient list before
    comparison; the selfcheck uses it to prove a corrupted gradient is caught.
    Returns (ok, worst relative error).
    """
    ana = analytic_grads(f, tensors)
    if grad_tweak is not None:
        ana = grad_tweak(ana)
    num = numeric_grads(f, tensors)
    worst = max((rel_error(a, n) for a, n in zip(ana, num)), default=0.0)
    return worst < TOL, worst


# name -> (call, input shapes): one row per exported op and per further
# backward path of an op, named "<op>_<path>"
OP_CALLS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "mul": (ad.mul, [(2, 5), (2, 5)]),
    "sigmoid": (ad.sigmoid, [(3, 3)]),
    "gelu": (ad.gelu, [(3, 3)]),
    "matmul": (ad.matmul, [(3, 4), (4, 5)]),
    "matmul_batched": (ad.matmul, [(2, 3, 4), (2, 4, 5)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 5), (5,)]),
    "linear_no_bias": (ad.linear, [(2, 3, 4), (4, 5)]),
    # the wavelet embedding's product: read-only sliding windows of fixed
    # data, only the weight differentiated
    "linear_windows": (lambda w: ad.linear(ad.Tensor(sliding_windows(
        np.linspace(-1.0, 1.0, 42).reshape(2, 3, 7), 3)), w), [(3, 4)]),
    "depthwise_conv1d": (ad.depthwise_conv1d, [(2, 6, 3), (3, 3)]),
    "reshape": (lambda a: ad.reshape(a, (3, 4)), [(2, 6)]),
    "transpose": (lambda a: ad.transpose(a, (2, 0, 1)), [(2, 3, 4)]),
    "roll": (lambda a: ad.roll(a, 2, axis=1), [(3, 5)]),
    "softmax": (ad.softmax, [(2, 5)]),
    "layer_norm": (ad.layer_norm, [(2, 3, 6), (6,), (6,)]),
    "sum_all": (ad.sum_all, [(4, 4)]),
    "mse": (ad.mse, [(3, 4), (3, 4)]),
}


def _case(call, shapes, rng):
    """Loss sum(call(*inputs) * W), W a fixed random tensor of the output's
    shape, so the check covers the whole vector-Jacobian product."""
    inputs = [ad.Tensor(rng.uniform(-1.0, 1.0, s), requires_grad=True)
              for s in shapes]
    with ad.no_grad():
        shape = call(*inputs).shape
    w = ad.Tensor(rng.uniform(-1.0, 1.0, shape))

    def f():
        return ad.sum_all(ad.mul(call(*inputs), w))
    return f, inputs


def op_cases():
    """name -> (f, tensors): one scalar case per ``OP_CALLS`` row."""
    rng = np.random.default_rng(0)
    return {name: _case(call, shapes, rng)
            for name, (call, shapes) in OP_CALLS.items()}


def run_op_checks(inject_bug: str | None = None):
    """Gradcheck every ``OP_CALLS`` row; returns list of (name, ok, err).

    ``inject_bug`` names one case whose analytic gradient is corrupted by 1%
    before comparison; that case must then FAIL, demonstrating sensitivity.
    """
    results = []
    for name, (f, tensors) in op_cases().items():
        tweak = None
        if inject_bug == name:
            tweak = lambda gs: [g * 1.01 for g in gs]
        ok, err = gradcheck(f, tensors, grad_tweak=tweak)
        results.append((name, ok, err))
    return results
