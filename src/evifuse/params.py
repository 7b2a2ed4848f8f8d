"""Named learnable parameters with accumulated gradients.

Weights are drawn uniform in (-a, a) with a = 1/sqrt(fan_in) from numpy's
default_rng (PCG64), so runs are reproducible per seed. Biases start at
zero; normalization affine parameters start at scale 1, shift 0.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Ordered name -> parameter map; names are unique, lookups strict."""

    def __init__(self):
        self._items = {}  # insertion ordered

    def add(self, name, value):
        if name in self._items:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = True
        self._items[name] = t
        return t

    def __getitem__(self, name):
        try:
            return self._items[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def __len__(self):
        return len(self._items)

    def names(self):
        return list(self._items)

    def items(self):
        return list(self._items.items())

    def zero_grad(self):
        for t in self._items.values():
            t.grad = None


def make_rng(seed):
    return np.random.default_rng(seed)


def uniform_init(rng, shape, fan_in, dtype=np.float32):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def conv_params(store, prefix, rng, cout, cin, kh, kw, dtype=np.float32, bias=True):
    """Weight + zero bias for a conv layer, registered as prefix.w / prefix.b.

    Convs feeding straight into batchnorm pass bias=False: the batch mean
    would absorb the shift, leaving a redundant zero-gradient direction.
    """
    w = store.add(f"{prefix}.w", uniform_init(rng, (cout, cin, kh, kw), cin * kh * kw, dtype))
    if not bias:
        return w, None
    b = store.add(f"{prefix}.b", np.zeros(cout, dtype=dtype))
    return w, b


def linear_params(store, prefix, rng, cin, cout, dtype=np.float32, bias=True):
    """[cin, cout] projection + zero bias for token-space linear maps."""
    w = store.add(f"{prefix}.w", uniform_init(rng, (cin, cout), cin, dtype))
    if not bias:
        return w, None
    b = store.add(f"{prefix}.b", np.zeros(cout, dtype=dtype))
    return w, b


def norm_params(store, prefix, rng, channels, dtype=np.float32):
    g = store.add(f"{prefix}.g", np.ones(channels, dtype=dtype))
    b = store.add(f"{prefix}.b", np.zeros(channels, dtype=dtype))
    return g, b


def scalar_param(store, name, value, dtype=np.float32):
    return store.add(name, np.asarray(value, dtype=dtype))
