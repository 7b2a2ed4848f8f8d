"""The four workloads: inputs, program-side set-up, and one pass of work.

A pass is a fixed list of operations; a run repeats whole passes, so every
run measures the same mix of work whatever the program's speed. Each
operation returns its output, which is checked after the clock stops.
The workload seed picks members of recorded input pools, so every input
the program sees has a digest in ``reference.json``.
"""

from __future__ import annotations

import numpy as np

import checks
from inputs import SENSOR_DIMS, STREAM_US, event_columns, scene_digests, sha256

BINS = 3
WINDOWS_US = (10_000, 50_000, 250_000)
WINDOW_ENDS_US = tuple(range(250_000, STREAM_US + 1, 75_000))
INFER_DIMS = (128, 128)
INFER_SCENE = dict(dims=INFER_DIMS, n_objects=3, noise_rate=2.0, window_us=50_000)
INFER_FRAMES = 4  # scenes per pass, drawn from the pool by the workload seed
TRAIN_SCENE = dict(dims=(64, 64), n_objects=2, noise_rate=0.5, window_us=50_000)
TRAIN_STEPS = 10
TRAIN_LR = 0.05
GRADCHECK_MODULES = ("aefrm", "marm", "mgfm", "encoder", "decoder")


class Op:
    """One timed operation doing ``units`` of work; its latency is reported per
    ``items`` (train steps, gradient-check probes)."""

    __slots__ = ("run", "check", "units", "items")

    def __init__(self, run, check, units, items=1):
        self.run = run
        self.check = check
        self.units = units
        self.items = items


def pool_member(pool, seed):
    return pool[seed % len(pool)]


class Workload:
    name = ""
    repeat_setup = True  # time set-up again, on fresh instances, during the run

    def __init__(self, evifuse, reference, seed, workdir):
        self.E = evifuse
        self.ref = reference[self.name]
        self.seed = seed
        self.workdir = workdir

    def input_problems(self):
        """Digest mismatches of generated inputs; called after set-up."""
        return []

    def setup(self):
        """Program-side preparation; timed for setup_s."""

    def ops(self):
        raise NotImplementedError

    def probe_op(self):
        """One representative operation for the memory profile."""
        return self.ops()[0]


# ---------------------------------------------------------------------------
# event ingestion


class Ingest(Workload):
    """A recorded ingest stream, parsed from the CSV the generator wrote."""

    name = "ingest"
    repeat_setup = False  # parsing 10^6 events takes seconds at the seed commit

    def __init__(self, *args):
        super().__init__(*args)
        self.index = self.seed % len(self.ref["streams"])
        self.stream = self.ref["streams"][self.index]
        self.path = self.workdir / f"ingest-{self.index}.csv"

    def setup(self):
        with open(self.path) as fh:
            self.events = self.E.parse_events(fh, SENSOR_DIMS)

    def input_problems(self):
        with open(self.path, "rb") as fh:
            csv = sha256(fh.read())
        return (checks.check_count("csv digest", csv, self.stream["csv"])
                + checks.check_count("events parsed", len(self.events), self.stream["events"])
                + checks.check_count("parsed digest", sha256(*event_columns(self.events)),
                                     self.stream["parsed"]))

    def ops(self):
        ops = []
        recorded = iter(self.stream["windows"])
        for t_end in WINDOW_ENDS_US:
            for duration in WINDOWS_US:
                count, digest = next(recorded)

                def run(t_end=t_end, duration=duration):
                    win = self.E.window(self.events, t_end, duration, SENSOR_DIMS)
                    return win.count, self.E.encode(win, BINS)

                def check(out, count=count, digest=digest):
                    got, enc = out
                    return (checks.check_count("window count", got, count)
                            or checks.check_encoding(enc.e_vt.data, enc.a_cm.data,
                                                     count, digest))

                ops.append(Op(run, check, units=count))
        return ops

    def probe_op(self):
        return self.ops()[2]  # the 250 ms window


# ---------------------------------------------------------------------------
# network


class Infer(Workload):
    name = "infer"

    def __init__(self, *args):
        super().__init__(*args)
        pool = self.ref["scenes"]
        pick = np.random.default_rng(self.seed).choice(len(pool), INFER_FRAMES, replace=False)
        self.scenes_ref = [pool[i] for i in pick]

    def setup(self):
        self.scenes = [self.E.synth_scene(seed=r["seed"], **INFER_SCENE)
                       for r in self.scenes_ref]
        self.cfg = self.E.NetworkConfig(height=INFER_DIMS[0], width=INFER_DIMS[1])
        self.model = self.E.Model(self.cfg)

    def input_problems(self):
        return [f"scene {r['seed']} {key} digest differs"
                for scene, r in zip(self.scenes, self.scenes_ref)
                for key, value in scene_digests(scene).items() if value != r[key]]

    def ops(self):
        ops = []
        for scene, ref in zip(self.scenes, self.scenes_ref):

            def run(scene=scene):
                E = self.E
                win = E.window(scene.events, scene.window_us, self.cfg.window_us,
                               INFER_DIMS)
                logits = self.model.forward_encoded(scene.image, E.encode(win, self.cfg.bins))
                return logits.data, logits.data[0].argmax(axis=0)

            def check(out, ref=ref):
                logits, pred = out
                return (checks.check_count("prediction shape", pred.shape, INFER_DIMS)
                        or checks.check_logits(logits, ref["logits"]))

            ops.append(Op(run, check, units=1))
        return ops


class Train(Workload):
    name = "train"

    def __init__(self, *args):
        super().__init__(*args)
        self.scene_ref = pool_member(self.ref["scenes"], self.seed)

    def setup(self):
        E = self.E
        self.scene = E.synth_scene(seed=self.scene_ref["seed"], **TRAIN_SCENE)
        self.cfg = E.NetworkConfig()
        # timed for setup_s only: train_toy builds its own model and encoding
        E.Model(self.cfg)
        E.network.encode_scene(self.scene, self.cfg)

    def input_problems(self):
        return [f"scene {self.scene_ref['seed']} {key} digest differs"
                for key, value in scene_digests(self.scene).items()
                if value != self.scene_ref[key]]

    def _op(self, steps, reference_loss):
        def run():
            return self.E.train_toy(self.scene, self.cfg, steps=steps, lr=TRAIN_LR)

        def check(out):
            return checks.check_loss(out[1], steps, reference_loss)

        return Op(run, check, units=steps, items=steps)

    def ops(self):
        return [self._op(TRAIN_STEPS, self.scene_ref["final_loss"])]

    def probe_op(self):
        return self._op(1, self.scene_ref["first_loss"])


class Gradcheck(Workload):
    name = "gradcheck"

    def __init__(self, *args):
        super().__init__(*args)
        self.check_seed = pool_member(self.ref["seeds"], self.seed)

    def setup(self):
        self.cfg = self.E.verify.minimal_network_config(self.check_seed)
        self.model = self.E.Model(self.cfg, dtype=np.float64)

    def _network_forward(self):
        """The acceptance network check's objective, built as check_network does."""
        E = self.E
        rng = E.make_rng(self.check_seed + 1000)
        for _, t in self.model.store.items():
            t.data = np.asarray(rng.standard_normal(t.shape) * 0.5, dtype=np.float64)
        image = E.Tensor(rng.standard_normal((2, 3, 32, 32)), dtype=np.float64)
        e_raw = rng.standard_normal((2, self.cfg.bins, 32, 32))
        e_vt = E.Tensor(e_raw, dtype=np.float64)
        a_cm = E.Tensor(np.abs(e_raw) + 0.25 * np.abs(rng.standard_normal(e_raw.shape)),
                        dtype=np.float64)
        labels = rng.integers(0, self.cfg.classes, size=(2, 32, 32))
        scale = E.verify.OBJECTIVE_SCALE

        def forward():
            return E.loss_ce(self.model.forward(image, e_vt, a_cm), labels) * scale

        return forward

    def ops(self):
        E = self.E
        tolerance = E.verify.TOLERANCE
        ops = []
        for module in GRADCHECK_MODULES:
            groups, probes = self.ref["modules"][module]

            def run(module=module):
                return E.verify.run_checks(module, seed=self.check_seed)[module]

            def check(rows, groups=groups):
                return (checks.check_count("groups checked", len(rows), groups)
                        or checks.check_grad_rows(rows, tolerance))

            ops.append(Op(run, check, units=probes, items=probes))
        forward = self._network_forward()
        for name in self.ref["network_subset"]:
            param = self.model.store[name]

            def run(param=param):
                return E.check_param(forward, param)

            def check(err, name=name):
                return checks.check_grad_rows([(f"network {name}", err)], tolerance)

            probes = 1 + 2 * param.size
            ops.append(Op(run, check, units=probes, items=probes))
        return ops

    def probe_op(self):
        return self.ops()[len(GRADCHECK_MODULES)]


WORKLOADS = {w.name: w for w in (Ingest, Infer, Train, Gradcheck)}
