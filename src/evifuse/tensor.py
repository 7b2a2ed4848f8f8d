"""Dense tensors plus a reverse-mode differentiation tape.

A Tensor wraps a numpy array (float32 by default, float64 for gradient
checks) and is treated as an immutable value once produced. Operations
are pure functions (``linear``, ``reshape``, ``narrow``, ``tsum``, ...);
the class itself only overloads ``+`` and ``*``. ``linear`` projects the
channels of a [B,C,H,W] map and leaves the result channels-last in memory.
``tsum`` sums the whole tensor; ``tmean`` and ``tmax`` keep the reduced
axes at extent 1. When a Tape is active and an operand requires
gradients, the operation appends a record; ``Tape.backward`` replays the
records in exact reverse order and returns the gradients as a dict keyed
by tensor identity. Tensors hold no gradient state.

Every operation validates that its output is finite; NaN/Inf anywhere is
an error state, never silently propagated. Ops that only move or select
values (views, copies, concatenation, max, relu) skip the check: finite
inputs cannot give them a non-finite output.
"""

from __future__ import annotations

import contextvars

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
    # runs on every op: an entry-wise test warns on no overflow, unlike a sum,
    # and the bare reduce skips ndarray.all's Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(arr), None):
        raise NonFiniteError("tensor holds NaN/Inf values")


class Tensor:
    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = _float_array(data, dtype)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)

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
        """The value of a one-value tensor as a Python float; ShapeError otherwise."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-value tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"

    # the only operator sugar; heavy ops live in ops.py
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


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
        """Gradients of ``output`` with respect to the leaves it depends on.

        ``output`` must hold a single value. Returns a dict keyed by tensor
        identity: each ``requires_grad`` leaf (a tensor no record on this
        tape produced) that the recorded computation connects to ``output``
        maps to d(output)/d(leaf), an array of the leaf's shape. Leaves the
        output does not depend on have no entry. A ``requires_grad`` leaf
        as ``output`` gives ``{output: ones}``; an output that does not
        require gradients gives ``{}``. Entries may share memory with one
        another, so treat them as read-only.
        """
        if self._consumed:
            raise TapeConsumedError("tape has already been consumed by backward()")
        if output.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
        self._consumed = True
        # every record pops its own output, so the entries left are the leaves
        adjoint = {output: np.ones_like(output.data)} if output.requires_grad else {}
        records = self._records
        for i in range(len(records) - 1, -1, -1):
            # a replayed record is released, and with it the arrays it saved
            out, inputs, backward_fn = records[i]
            records[i] = None
            g = adjoint.pop(out, None)
            if g is None:
                continue  # this record does not feed the requested output
            for inp, gin in zip(inputs, backward_fn(g)):
                if gin.shape != inp.data.shape:
                    raise ShapeError(
                        f"gradient shape {gin.shape} != value shape {inp.data.shape}")
                if inp.requires_grad:
                    adjoint[inp] = adjoint[inp] + gin if inp in adjoint else gin
        return adjoint


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
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(x.requires_grad for x in inputs):
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


def _tokens(x):
    """[B,C,H,W] map as [B,H*W,C] tokens; a view when the map is channels-last."""
    b, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(b, h * w, c)


def _map(tokens, h, w):
    """[B,H*W,C] tokens as a [B,C,H,W] map view, channels-last in memory."""
    b, _, c = tokens.shape
    return tokens.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def linear(x, w, b=None):
    """Channel projection x . w (+ b) of a [B,C,H,W] map by w [C,C'], one record.

    The product runs on the map's tokens, and the [B,C',H,W] result is a
    view of the product's tokens: a map from ``linear`` is channels-last
    in memory, so a projection or attention kernel reads it without a copy.
    """
    if x.ndim != 4 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear projects a [B,C,H,W] map by a [C,C'] weight, "
                         f"got {x.shape} and {w.shape}")
    h, wd = x.shape[2:]
    xt, w_data = _tokens(x.data), w.data
    out = np.matmul(xt, w_data)
    if b is not None:
        out = out + b.data

    def bwd(g):
        gt = _tokens(g)
        gx = _map(np.matmul(gt, w_data.T), h, wd)
        gw = np.matmul(np.swapaxes(xt, -1, -2), gt).sum(axis=0)
        return (gx, gw) if b is None else (gx, gw, _unbroadcast(gt, b.data.shape))

    return _make(_map(out, h, wd), (x, w) if b is None else (x, w, b), bwd)


def reshape(t, shape):
    src_shape = t.data.shape
    out = t.data.reshape(shape)

    def bwd(g):
        return (g.reshape(src_shape),)

    return _make(out, (t,), bwd, check_finite=False)


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


def tsum(t):
    """Sum of every element, as a one-value tensor."""
    out = t.data.sum()
    src_shape = t.data.shape

    def bwd(g):
        return (np.broadcast_to(g, src_shape).copy(),)

    return _make(out, (t,), bwd)


def tmean(t, axes):
    """Mean over ``axes``, which stay as extent-1 axes."""
    src_shape = t.data.shape
    # ndarray.mean's own reduction and division, without its Python wrapper
    total = np.add.reduce(t.data, axis=axes, keepdims=True)
    # a Python int: a numpy int64 count would promote float32 gradients
    count = t.data.size // total.size
    out = total / count

    def bwd(g):
        return (np.broadcast_to(g / count, src_shape).copy(),)

    return _make(out, (t,), bwd)


def tmax(t, axis):
    """Maximum along one axis, which stays at extent 1; gradient routes to the first argmax."""
    out = t.data.max(axis=axis, keepdims=True)
    arg = t.data.argmax(axis=axis, keepdims=True)
    src_shape = t.data.shape

    def bwd(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        np.put_along_axis(full, arg, g, axis=axis)
        return (full,)

    return _make(out, (t,), bwd, check_finite=False)
