"""Dense tensors plus a reverse-mode differentiation tape.

A Tensor wraps a numpy array (float32 by default, float64 for gradient
checks) and is treated as an immutable value once produced. Operations
are pure functions (``linear``, ``reshape``, ``rearrange``, ``tsum``, ...);
the class itself only overloads ``+`` and ``*``. When a Tape is active
and an operand requires gradients, the operation appends a record to the
tape. ``Tape.backward`` replays the records in exact reverse order,
accumulating gradients into every tensor flagged with ``requires_grad``.

Every operation validates that its output is finite; NaN/Inf anywhere is
an error state, never silently propagated. Ops that only move or select
values (views, copies, concatenation, max, relu) skip the check: finite
inputs cannot give them a non-finite output.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


def _float_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    if arr.size == 0:
        raise ShapeError("tensors must have positive extents")
    return arr


def _check_finite(arr):
    # a non-finite entry makes the float64 sum non-finite (values in this
    # artifact are far too small for an all-finite sum to overflow)
    if not math.isfinite(np.add.reduce(arr, None, np.float64)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor holds NaN/Inf values")


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = _float_array(data, dtype)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

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
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g):
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != value shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def grad_array(self):
        """Accumulated gradient, zeros if this tensor was never reached."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"

    # the only operator sugar; heavy ops live in ops.py
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


class TapeConsumedError(RuntimeError):
    """backward() was called twice on the same tape."""


class Tape:
    """Append-only record of operations for one forward/backward pass.

    Single-writer: one pass owns one tape. Use as a context manager; ops
    executed inside record themselves when any input requires gradients.
    The active tape is per thread, so concurrent passes do not interfere.
    """

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)
        self._consumed = False
        self._token = None

    def __enter__(self):
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, output):
        """Accumulate d(output)/d(x) into every recorded requires_grad tensor.

        ``output`` must hold a single value. Tensors never touched by the
        recorded computation keep a zero (absent) gradient. Intermediate
        adjoints live in a side table; only leaves (tensors not produced by
        any record on this tape) receive a persistent ``.grad``.
        """
        if self._consumed:
            raise TapeConsumedError("tape has already been consumed by backward()")
        if output.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
        self._consumed = True
        produced = {id(out) for out, _, _ in self._records}
        adjoint = {id(output): np.ones_like(output.data)}
        for out, inputs, backward_fn in reversed(self._records):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue  # this record does not feed the requested output
            for inp, gin in zip(inputs, backward_fn(g)):
                if gin is None or not isinstance(inp, Tensor) or not inp.requires_grad:
                    continue
                if id(inp) in produced:
                    key = id(inp)
                    adjoint[key] = adjoint[key] + gin if key in adjoint else gin
                else:
                    inp.accumulate_grad(gin)


# per thread (and per asyncio task): one thread's tape never sees another's ops
_ACTIVE_TAPE = contextvars.ContextVar("evifuse_active_tape", default=None)


def _make(out_data, inputs, backward_fn, check_finite=True):
    """Wrap an op result; record on the active tape when gradients flow.

    ``check_finite=False`` is only for ops whose output values are copies
    of input values (or zeros), which are finite whenever the inputs are.
    """
    arr = _float_array(out_data)
    if check_finite:
        _check_finite(arr)
    out = object.__new__(Tensor)
    out.data = arr
    out.requires_grad = False
    out.grad = None
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(
        isinstance(x, Tensor) and x.requires_grad for x in inputs
    ):
        out.requires_grad = True
        tape._records.append((out, inputs, backward_fn))
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    if not isinstance(b, Tensor):
        b_val = np.asarray(b, dtype=a.data.dtype)
        out = a.data + b_val

        def bwd(g):
            return (g,)

        return _make(out, (a,), bwd)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), bwd)


def mul(a, b):
    if not isinstance(b, Tensor):
        scalar = float(b)
        out = a.data * scalar

        def bwd(g):
            return (g * scalar,)

        return _make(out, (a,), bwd)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (
            _unbroadcast(g * b_data, a_data.shape),
            _unbroadcast(g * a_data, b_data.shape),
        )

    return _make(out, (a, b), bwd)


def linear(x, w, b=None):
    """x . w (+ b) as one record: a batched matrix product plus an optional bias."""
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError("linear operands must have rank >= 2")
    x_data, w_data = x.data, w.data
    out = np.matmul(x_data, w_data)
    if b is not None:
        out = out + b.data

    def bwd(g):
        gx = np.matmul(g, np.swapaxes(w_data, -1, -2))
        gw = np.matmul(np.swapaxes(x_data, -1, -2), g)
        grads = (_unbroadcast(gx, x_data.shape), _unbroadcast(gw, w_data.shape))
        return grads if b is None else (*grads, _unbroadcast(g, b.data.shape))

    return _make(out, (x, w) if b is None else (x, w, b), bwd)


def reshape(t, shape):
    src_shape = t.data.shape
    out = t.data.reshape(shape)

    def bwd(g):
        return (g.reshape(src_shape),)

    return _make(out, (t,), bwd, check_finite=False)


def _inverse_axes(axes):
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    return tuple(inv)


def rearrange(t, axes, shape, split=None):
    """reshape(split), then transpose(axes), then reshape(shape): one record.

    ``split`` defaults to the input shape. Token and head layouts are built
    with this op, so each layout change costs one record and one adjoint.
    """
    src_shape = t.data.shape
    moved = t.data if split is None else t.data.reshape(split)
    moved = moved.transpose(axes)
    moved_shape = moved.shape
    out = moved.reshape(shape)
    inv = _inverse_axes(tuple(axes))

    def bwd(g):
        return (g.reshape(moved_shape).transpose(inv).reshape(src_shape),)

    return _make(out, (t,), bwd, check_finite=False)


def astype(t, dtype):
    """Dtype conversion; the gradient converts back to the source dtype."""
    src_dtype = t.data.dtype
    out = t.data.astype(dtype)

    def bwd(g):
        return (g.astype(src_dtype),)

    return _make(out, (t,), bwd)


def concat(tensors, axis):
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _make(out, tuple(tensors), bwd, check_finite=False)


def narrow(t, axis, start, length):
    """Contiguous slice along one axis."""
    idx = [slice(None)] * t.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = t.data[idx]
    src_shape = t.data.shape

    def bwd(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _make(out, (t,), bwd, check_finite=False)


def tsum(t, axis=None, keepdims=False):
    out = t.data.sum(axis=axis, keepdims=keepdims)
    src_shape = t.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, src_shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, src_shape).copy(),)

    return _make(out, (t,), bwd)


def tmean(t, axis=None, keepdims=False):
    src_shape = t.data.shape
    # a Python int: a numpy int64 count would promote float32 gradients
    count = t.data.size if axis is None else math.prod(
        src_shape[a] for a in _norm_axes(axis, t.ndim)
    )
    # ndarray.mean's own reduction and division, without its Python wrapper
    out = np.add.reduce(t.data, axis=axis, keepdims=keepdims) / count

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, src_shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, src_shape).copy(),)

    return _make(out, (t,), bwd)


def tmax(t, axis, keepdims=False):
    """Maximum along one axis; gradient routes to the first argmax."""
    out = t.data.max(axis=axis, keepdims=keepdims)
    arg = np.expand_dims(t.data.argmax(axis=axis), axis)
    src_shape = t.data.shape

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        full = np.zeros(src_shape, dtype=g.dtype)
        np.put_along_axis(full, arg, g, axis=axis)
        return (full,)

    return _make(out, (t,), bwd, check_finite=False)


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)
