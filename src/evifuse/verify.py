"""Gradient verification harness for every differentiable stage.

Each check builds a small double-precision instance of one stage, probes
every parameter group and every input with central differences, and
reports the worst relative error per group. The full-network check runs
the minimal 32x32 configuration end to end through the loss.

Two details keep the probes numerically meaningful:

  - Parameters are moved to a generic random point first. Structured init
    values (zero gammas, identity gate conv) park piecewise-linear units
    exactly on their kinks, where central differences are undefined.
  - The scalar objective is a randomly weighted sum scaled by a small
    constant. The weighting breaks permutation symmetry (a plain sum
    cannot see transposed outputs); the scaling keeps float64 round-off
    of the function value far below the comparison floor, which otherwise
    dominates coordinates whose true gradient is strongly attenuated.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .fusion import fusion_forward, init_fusion_params
from .gradcheck import check_input, check_param
from .network import (
    Model, NetworkConfig, decode, encode_stages, init_decoder_params, init_encoder_params,
)
from .params import ParamStore, make_rng
from .recalibrate import init_recal_params, recalibrate
from .refine import init_refine_params, refine_forward
from .tensor import Tensor, tsum

TOLERANCE = 1e-4
OBJECTIVE_SCALE = 1e-5


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _randomize(store, rng):
    for _, t in store.items():
        t.data = np.asarray(rng.standard_normal(t.shape) * 0.5, dtype=np.float64)


def _probe(rng, shape):
    return Tensor(rng.standard_normal(shape) * OBJECTIVE_SCALE, dtype=np.float64)


def refine_case(seed):
    rng = make_rng(seed)
    store = ParamStore()
    p = init_refine_params(store, rng, width=4)
    _randomize(store, rng)
    e_vt = _rand(rng, (1, 2, 16, 16))
    a_cm = Tensor(np.abs(rng.standard_normal((1, 2, 16, 16))), dtype=np.float64)
    probe = _probe(rng, (1, 2, 16, 16))

    def forward():
        return tsum(refine_forward(e_vt, a_cm, p) * probe)

    return forward, store, [("e_vt", e_vt), ("a_cm", a_cm)]


def recal_case(seed):
    rng = make_rng(seed)
    store = ParamStore()
    p = init_recal_params(store, rng, c_event=3, c_image=4)
    _randomize(store, rng)
    ev = _rand(rng, (1, 3, 8, 8))
    im = _rand(rng, (1, 4, 8, 8))
    probe_e = _probe(rng, (1, 3, 8, 8))
    probe_i = _probe(rng, (1, 4, 8, 8))

    def forward():
        e_rec, i_rec = recalibrate(ev, im, p)
        return tsum(e_rec * probe_e) + tsum(i_rec * probe_i)

    return forward, store, [("event", ev), ("image", im)]


def fusion_case(seed):
    rng = make_rng(seed)
    store = ParamStore()
    p = init_fusion_params(store, rng, channels=4, heads=2, reduction=2)
    _randomize(store, rng)
    ev = _rand(rng, (1, 4, 8, 8))
    im = _rand(rng, (1, 4, 8, 8))
    probe = _probe(rng, (1, 4, 8, 8))

    def forward():
        return tsum(fusion_forward(ev, im, p) * probe)

    return forward, store, [("event", ev), ("image", im)]


def encoder_case(seed):
    rng = make_rng(seed)
    store = ParamStore()
    p = init_encoder_params(store, rng, 3, [2, 2, 2, 2], "enc")
    _randomize(store, rng)
    x = _rand(rng, (2, 3, 32, 32))
    dims = [(2, 2, 8, 8), (2, 2, 4, 4), (2, 2, 2, 2), (2, 2, 1, 1)]
    probes = [_probe(rng, d) for d in dims]

    def forward():
        total = None
        for feat, probe in zip(encode_stages(x, p), probes):
            part = tsum(feat * probe)
            total = part if total is None else total + part
        return total

    return forward, store, [("x", x)]


def decoder_case(seed):
    rng = make_rng(seed)
    store = ParamStore()
    widths = [2, 3, 2, 3]
    p = init_decoder_params(store, rng, widths, decoder_width=2, classes=2)
    _randomize(store, rng)
    dims = [(16, 16), (8, 8), (4, 4), (2, 2)]
    stages = [_rand(rng, (1, c, h, w)) for c, (h, w) in zip(widths, dims)]
    probe = _probe(rng, (1, 2, 64, 64))

    def forward():
        return tsum(decode(stages, p, (64, 64)) * probe)

    return forward, store, [(f"stage{s}", t) for s, t in enumerate(stages)]


def minimal_network_config(seed=1):
    """Smallest legal 32x32 configuration; used by the network-wide check."""
    return NetworkConfig(
        height=32, width=32, classes=2,
        image_widths=[2, 2, 2, 2], event_widths=[1, 1, 1, 1],
        heads=[1, 1, 1, 1], reduction=1, decoder_width=2, refine_width=2,
        bins=2, seed=seed,
    )


def network_case(seed):
    """End-to-end objective through the cross-entropy loss.

    Batch 2: with a single sample the 1x1 stage-4 maps are constant per
    channel, batchnorm absorbs them exactly, and that branch would carry
    mathematically zero gradients.
    """
    cfg = minimal_network_config(seed)
    model = Model(cfg, dtype=np.float64)
    rng = make_rng(seed + 1000)
    _randomize(model.store, rng)
    image = _rand(rng, (2, 3, 32, 32))
    e_vt = _rand(rng, (2, cfg.bins, 32, 32))
    a_cm = Tensor(np.abs(e_vt.data) + 0.25 * np.abs(rng.standard_normal(e_vt.shape)),
                  dtype=np.float64)
    labels = rng.integers(0, cfg.classes, size=(2, 32, 32))

    def forward():
        logits = model.forward(image, e_vt, a_cm)
        return ops.cross_entropy(logits, labels) * OBJECTIVE_SCALE

    return forward, model.store, [("image", image), ("e_vt", e_vt), ("a_cm", a_cm)]


# module -> case builder: seed -> (scalar forward, parameter store, [(name, input)])
CASES = {
    "aefrm": refine_case,
    "marm": recal_case,
    "mgfm": fusion_case,
    "encoder": encoder_case,
    "decoder": decoder_case,
    "network": network_case,
}
CLI_CHOICES = (*CASES, "all")


def _check_case(module, seed):
    forward, store, inputs = CASES[module](seed)
    rows = [(name, check_param(forward, t)) for name, t in store.items()]
    rows += [(f"input.{name}", check_input(forward, t)) for name, t in inputs]
    return rows


def run_checks(which, seed=1):
    """Mapping module -> [(group, max relative error)] for the selection."""
    if which == "all":
        names = CASES
    elif which in CASES:
        names = (which,)
    else:
        raise ValueError(f"unknown module {which!r}; choose from {CLI_CHOICES}")
    return {name: _check_case(name, seed) for name in names}
