"""Dense tensors plus a reverse-mode differentiation tape.

A Tensor wraps a numpy array (float32 by default, float64 for gradient
checks) and is treated as an immutable value once produced. Operations
are pure functions; when a Tape is active and an operand requires
gradients, the operation appends a record to the tape. ``Tape.backward``
replays the records in exact reverse order, accumulating gradients into
every tensor flagged with ``requires_grad``.

Every operation validates that its output is finite; NaN/Inf anywhere is
an error state, never silently propagated.
"""

from __future__ import annotations

import math

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        if arr.size == 0:
            raise ShapeError("tensors must have positive extents")
        # a non-finite entry makes the float64 sum non-finite (values in this
        # artifact are far too small for an all-finite sum to overflow)
        if not math.isfinite(float(arr.sum(dtype=np.float64))):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError("tensor holds NaN/Inf values")
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

    @property
    def precision(self):
        """Compute mode: 'single' for normal runs, 'double' for grad checks."""
        return "double" if self.data.dtype == np.float64 else "single"

    def item(self):
        return float(self.data.reshape(-1)[0])

    def numpy(self):
        return self.data

    def astype(self, dtype):
        return astype(self, dtype)

    def detach(self):
        return Tensor(self.data)

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

    # operator sugar; heavy ops live in ops.py
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) > 1 else axes[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class TapeConsumedError(RuntimeError):
    """backward() was called twice on the same tape."""


class Tape:
    """Append-only record of operations for one forward/backward pass.

    Single-writer: one pass owns one tape. Use as a context manager; ops
    executed inside record themselves when any input requires gradients.
    """

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)
        self._consumed = False
        self._prev = None

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
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


_ACTIVE_TAPE = None


def backward(tape, output):
    """Run reverse-mode accumulation; module-level alias for Tape.backward."""
    tape.backward(output)


def _make(out_data, inputs, backward_fn):
    """Wrap an op result; record on the active tape when gradients flow."""
    out = Tensor(out_data)
    tape = _ACTIVE_TAPE
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


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    out = np.matmul(a.data, b.data)
    a_data, b_data = a.data, b.data

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
        gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
        return _unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)

    return _make(out, (a, b), bwd)


def reshape(t, shape):
    src_shape = t.data.shape
    out = t.data.reshape(shape)

    def bwd(g):
        return (g.reshape(src_shape),)

    return _make(out, (t,), bwd)


def transpose(t, axes):
    axes = tuple(axes)
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    inv = tuple(inv)
    out = t.data.transpose(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _make(out, (t,), bwd)


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

    return _make(out, tuple(tensors), bwd)


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

    return _make(out, (t,), bwd)


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
    out = t.data.mean(axis=axis, keepdims=keepdims)
    src_shape = t.data.shape
    # a Python int: a numpy int64 count would promote float32 gradients
    count = t.data.size if axis is None else math.prod(
        src_shape[a] for a in _norm_axes(axis, t.ndim)
    )

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

    return _make(out, (t,), bwd)


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)
