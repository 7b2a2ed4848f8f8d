"""Every parameter group of the default network gets a gradient.

The float64 default config runs at a generic random point (the parameters
drawn as ``verify._randomize`` draws them, seed 7), with the loss through
``ops.cross_entropy``, at 64² batch 1, 64² batch 2 and 128² batch 2. A
group is dead in a setting when its largest gradient entry is below 1e-9
of the largest entry over all groups. A dead group the gradient suite
cannot see: a zero analytic and a zero numeric gradient agree. Remove it,
or name it in ``ALLOWED`` with the reason it stays.
"""

import numpy as np
import pytest

from evifuse import ops
from evifuse.network import Model, NetworkConfig
from evifuse.params import make_rng
from evifuse.tensor import Tape, Tensor
from evifuse.verify import _randomize

SEED = 7
SETTINGS = [(64, 1), (64, 2), (128, 2)]  # (height = width, batch)
DEAD_BELOW = 1e-9  # of the largest gradient entry over all groups

_BIAS_BEFORE_BN = ("a per-channel constant that reaches a batchnorm through linear "
                   "maps only, so the batch mean removes it")
_GATE_C = "the gate's channel branch batch-normalises B·1·1 values"
_ONE_KEY = "stage 3 at 64² pools to a single key, so its softmax is identically 1"

# group name -> why it stays although it can get no gradient
ALLOWED = {
    **{f"decoder.proj{s}.b": _BIAS_BEFORE_BN for s in range(4)},
    **{f"mgfm.s{s}.ffn2.b": _BIAS_BEFORE_BN for s in range(4)},
    **{f"mgfm.s{s}.gate_c.w": _GATE_C for s in range(4)},
    **{f"mgfm.s{s}.gate_c_bn.g": _GATE_C for s in range(4)},
    **{f"mgfm.s3.{name}": _ONE_KEY for name in ("cq.w", "cq.b", "ck.w")},
}


def dead_groups(size, batch):
    """Names of the groups whose gradient is dead at ``size``² and ``batch``."""
    cfg = NetworkConfig(height=size, width=size)
    model = Model(cfg, dtype=np.float64)
    rng = make_rng(SEED)
    _randomize(model.store, rng)
    image = Tensor(rng.standard_normal((batch, 3, size, size)), dtype=np.float64)
    e_vt = Tensor(rng.standard_normal((batch, cfg.bins, size, size)), dtype=np.float64)
    a_cm = Tensor(np.abs(e_vt.data) + 0.25 * np.abs(rng.standard_normal(e_vt.shape)),
                  dtype=np.float64)
    labels = rng.integers(0, cfg.classes, size=(batch, size, size))
    with Tape() as tape:
        loss = ops.cross_entropy(model.forward(image, e_vt, a_cm), labels)
    grads = tape.backward(loss)
    peaks = {name: float(np.abs(grads[t]).max()) if t in grads else 0.0
             for name, t in model.store.items()}
    floor = DEAD_BELOW * max(peaks.values())
    return {name for name, peak in peaks.items() if peak < floor}


@pytest.fixture(scope="module")
def dead():
    return {setting: dead_groups(*setting) for setting in SETTINGS}


def test_every_dead_group_is_allowed(dead):
    unexplained = {setting: sorted(names - ALLOWED.keys()) for setting, names in dead.items()}
    assert not any(unexplained.values()), unexplained


def test_every_allowed_group_is_dead_somewhere(dead):
    alive = sorted(ALLOWED.keys() - set().union(*dead.values()))
    assert not alive, f"alive in every setting, drop from ALLOWED: {alive}"
