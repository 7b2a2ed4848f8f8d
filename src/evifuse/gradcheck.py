"""Finite-difference verification of reverse-mode gradients.

Gradient checks must run in double precision; central differences in
float32 lose too many digits to be conclusive. ``finite_difference_check``
probes a pure scalar function of one tensor. ``check_param`` probes a
closed-over forward against one named parameter by rebinding its data.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tape, Tensor

DEFAULT_EPSILON = 1e-6


def _scalar_value(t):
    if t.size != 1:
        raise ShapeError("gradient check target must be scalar-valued")
    return float(t.data.reshape(-1)[0])


def _max_rel_error(analytic, point_data, eval_fn, epsilon):
    """Central differences against an analytic gradient, coordinate-wise."""
    flat = point_data.reshape(-1)
    a = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        fp = eval_fn()
        flat[i] = orig - epsilon
        fm = eval_fn()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * epsilon)
        denom = max(abs(a[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(a[i] - numeric) / denom)
    return worst


def finite_difference_check(f, point, epsilon=DEFAULT_EPSILON):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps one Tensor to a scalar Tensor and must be pure in that
    argument. ``point`` is promoted to float64 before probing.
    """
    base = point.data.astype(np.float64).copy()
    x = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(x)
        _scalar_value(y)
    tape.backward(y)
    analytic = x.grad_array()

    probe = Tensor(base)  # shares the buffer the loop below mutates in place

    def eval_fn():
        return _scalar_value(f(probe))

    return _max_rel_error(analytic, base, eval_fn, epsilon)


def check_param(forward_fn, param, epsilon=DEFAULT_EPSILON):
    """Max relative gradient error for one parameter of a closed-over forward.

    ``forward_fn`` takes no arguments and returns a scalar Tensor; it must
    read ``param`` (a requires_grad Tensor, float64). The parameter's data
    is perturbed in place for the numeric probes and restored afterwards.
    """
    if param.data.dtype != np.float64:
        raise ValueError("check_param requires float64 parameters")
    param.grad = None
    with Tape() as tape:
        y = forward_fn()
        _scalar_value(y)
    tape.backward(y)
    analytic = param.grad_array()

    original = param.data
    work = original.copy()
    param.data = work
    try:
        def eval_fn():
            return _scalar_value(forward_fn())

        return _max_rel_error(analytic, work, eval_fn, epsilon)
    finally:
        param.data = original
        param.grad = None


def check_input(forward_fn, tensor, epsilon=DEFAULT_EPSILON):
    """Like check_param but for a non-parameter input tensor."""
    tensor.requires_grad = True
    try:
        return check_param(forward_fn, tensor, epsilon)
    finally:
        tensor.requires_grad = False
