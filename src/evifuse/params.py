"""Named learnable parameters.

Weights are drawn uniform in (-a, a) with a = 1/sqrt(fan_in) from numpy's
default_rng (PCG64), so runs are reproducible per seed. Biases start at
zero; normalization affine parameters start at scale 1, shift 0. Every
parameter is built in float64; ``Model`` casts its store to its dtype.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor import Tensor


class Weights(NamedTuple):
    """A layer's weight and bias; b is None for a layer without bias."""

    w: Tensor
    b: Tensor | None


class Norm(NamedTuple):
    """Normalization scale g and shift b."""

    g: Tensor
    b: Tensor


class ParamStore:
    """Ordered name -> parameter map; names are unique, lookups strict."""

    def __init__(self):
        self._items = {}  # insertion ordered

    def add(self, name, value):
        if name in self._items:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._items[name] = t = Tensor(value, requires_grad=True)
        return t

    def __getitem__(self, name):
        try:
            return self._items[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def names(self):
        return list(self._items)

    def items(self):
        return list(self._items.items())


def make_rng(seed):
    return np.random.default_rng(seed)


def uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def conv_params(store, prefix, rng, cout, cin, kh, kw, bias=True):
    """Weight + zero bias for a conv layer, registered as prefix.w / prefix.b.

    Convs feeding straight into batchnorm pass bias=False: the batch mean
    would absorb the shift, leaving a redundant zero-gradient direction.
    """
    w = store.add(f"{prefix}.w", uniform_init(rng, (cout, cin, kh, kw), cin * kh * kw))
    return Weights(w, store.add(f"{prefix}.b", np.zeros(cout)) if bias else None)


def linear_params(store, prefix, rng, cin, cout, bias=True):
    """[cin, cout] weight + zero bias for a ``linear`` channel projection."""
    w = store.add(f"{prefix}.w", uniform_init(rng, (cin, cout), cin))
    return Weights(w, store.add(f"{prefix}.b", np.zeros(cout)) if bias else None)


def norm_params(store, prefix, channels):
    return Norm(store.add(f"{prefix}.g", np.ones(channels)),
                store.add(f"{prefix}.b", np.zeros(channels)))
