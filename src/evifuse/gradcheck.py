"""Finite-difference verification of reverse-mode gradients.

Gradient checks must run in double precision; central differences in
float32 lose too many digits to be conclusive. ``check_param`` probes a
closed-over forward against one tensor it reads by rebinding that tensor's
data; ``check_input`` is built on it. The central-difference step is
fixed at ``EPSILON``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tape

EPSILON = 1e-6


def _max_rel_error(analytic, point_data, eval_fn):
    """Central differences against an analytic gradient, coordinate-wise."""
    flat = point_data.reshape(-1)
    a = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPSILON
        fp = eval_fn()
        flat[i] = orig - EPSILON
        fm = eval_fn()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * EPSILON)
        denom = max(abs(a[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(a[i] - numeric) / denom)
    return worst


def check_param(forward_fn, param):
    """Max relative gradient error for one parameter of a closed-over forward.

    ``forward_fn`` takes no arguments and returns a scalar Tensor; it must
    read ``param`` (a requires_grad Tensor, float64). The parameter's data
    is perturbed in place for the numeric probes and restored afterwards.
    """
    if param.data.dtype != np.float64:
        raise ValueError("check_param requires float64 parameters")
    with Tape() as tape:
        y = forward_fn()
    grads = tape.backward(y)
    analytic = grads[param] if param in grads else np.zeros_like(param.data)

    original = param.data
    work = original.copy()
    param.data = work
    try:
        def eval_fn():
            return forward_fn().item()

        return _max_rel_error(analytic, work, eval_fn)
    finally:
        param.data = original


def check_input(forward_fn, tensor):
    """Like check_param but for a non-parameter input tensor."""
    tensor.requires_grad = True
    try:
        return check_param(forward_fn, tensor)
    finally:
        tensor.requires_grad = False
