"""Spans around evifuse's public functions, recorded from outside the program.

``install`` replaces each boundary function with a wrapper in every
evifuse module that holds a reference to it (modules import each other's
functions by name), and ``uninstall`` puts the originals back. A span is
(name, start, end, parent); spans stay in memory until the run ends. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> boundary functions, as "module.attr" or "module.Class.method"
LAYERS = {
    "events": ["events.parse_events", "events.window"],
    "encoding": ["encoding.encode"],
    "synth": ["synth.synth_scene"],
    "aefrm": ["refine.refine_forward"],
    "network": [
        "network.encode_stages", "network.decode", "network.Model.__init__",
        "network.Model.forward", "network.Model.forward_encoded", "network.train_toy",
    ],
    "marm": ["recalibrate.recalibrate"],
    "mgfm": ["fusion.fusion_forward"],
    "ops": [
        f"ops.{op}" for op in (
            "conv2d", "pool2d", "softmax", "batchnorm2d", "layernorm_channels",
            "resample", "attention_core", "cross_entropy",
        )
    ],
    "tensor": ["tensor.Tape.backward"],
    "gradcheck": ["gradcheck.check_param", "gradcheck.check_input"],
    "verify": ["verify.run_checks"],
}
HARNESS = "harness.op"  # root span around each timed operation

# A gradient-check probe is one forward evaluation: one call of the stage
# (or whole-network) forward made directly by check_param.
PROBE_PARENT = "gradcheck.check_param"
PROBE_ROOTS = {
    "refine.refine_forward", "recalibrate.recalibrate", "fusion.fusion_forward",
    "network.encode_stages", "network.decode", "network.Model.forward",
}


def layer_of(name):
    for layer, names in LAYERS.items():
        if name in names or name.rsplit(".", 1)[0] in names:
            return layer
    return "harness"


def _result_count(name, args, result):
    """Work counts read at a boundary: (counter, amount) or None."""
    if name == "events.parse_events":
        return "events.parsed", len(result)
    if name == "encoding.encode":
        return "encoding.events_encoded", args[0].count
    if name == "synth.synth_scene":
        return "synth.events_generated", len(result.events)
    if name == "tensor.Tape.backward":
        return "tensor.tape_records", len(args[0])
    return None


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append([index, 0.0])

    def _exit(self):
        end = time.perf_counter()
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        name = span[0]
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
            if name in PROBE_ROOTS and self.spans[span[3]][0] == PROBE_PARENT:
                self.counts["gradcheck.probes"] += 1

    def region(self, name=HARNESS):
        return _Region(self, name)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            # run_checks gets one span name per checked module
            tracer._enter(f"{name}.{args[0]}" if name == "verify.run_checks" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            counted = _result_count(name, args, result)
            if counted:
                tracer.counts[counted[0]] += counted[1]
            return result

        traced.__wrapped__ = fn
        return traced


class _Region:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._enter(self.name)

    def __exit__(self, *exc):
        self.tracer._exit()
        return False


def install(tracer):
    """Wrap every boundary; returns the undo list for ``uninstall``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "evifuse" or n.startswith("evifuse."))]
    undo = []
    for names in LAYERS.values():
        for name in names:
            mod_name, *path = name.split(".")
            owner = sys.modules[f"evifuse.{mod_name}"]
            if len(path) == 2:  # method on a class
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                setattr(cls, path[1], tracer.wrap(name, original))
                undo.append((cls, path[1], original))
                continue
            original = getattr(owner, path[0])
            wrapped = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
