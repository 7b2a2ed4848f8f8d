"""Record reference.json: input digests and reference outputs at this commit.

    python3 perfbench/record.py

Run from a checkout's root with BLAS pinned to one thread (as run.py pins
it). Every workload checks its inputs and outputs against this file, so
re-recording is a deliberate act: a change that alters synth inputs,
encodings, logits or losses shows up as a failed run, not as a speed
change. Takes a few minutes: it parses every stream and runs every
gradient check of the pool.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

STREAMS = 4
INFER_POOL = 12
TRAIN_POOL = 8
GRADCHECK_SEEDS = (1, 2, 3, 4)
NETWORK_SUBSET_STRIDE = 10  # every 10th parameter group of the minimal network, from the 2nd


def record_streams(E):
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    streams = []
    for index in range(STREAMS):
        path = workdir / f"ingest-{index}.csv"
        inputs.write_ingest_csv(index, path)
        with open(path, "rb") as fh:
            csv = inputs.sha256(fh.read())
        with open(path) as fh:
            events = E.parse_events(fh, inputs.SENSOR_DIMS)
        windows = []
        for t_end in wl.WINDOW_ENDS_US:
            for duration in wl.WINDOWS_US:
                win = E.window(events, t_end, duration, inputs.SENSOR_DIMS)
                enc = E.encode(win, wl.BINS)
                windows.append([win.count, checks.encoding_digest(enc.e_vt.data, enc.a_cm.data)])
        streams.append({
            "csv": csv,
            "events": len(events),
            "parsed": inputs.sha256(*inputs.event_columns(events)),
            "windows": windows,
        })
        print(f"stream {index}: {len(events)} events, {len(windows)} windows", flush=True)
    return {"streams": streams}


def record_infer(E):
    cfg = E.NetworkConfig(height=wl.INFER_DIMS[0], width=wl.INFER_DIMS[1])
    model = E.Model(cfg)
    scenes = []
    for seed in range(INFER_POOL):
        scene = E.synth_scene(seed=seed, **wl.INFER_SCENE)
        win = E.window(scene.events, scene.window_us, cfg.window_us, wl.INFER_DIMS)
        logits = model.forward_encoded(scene.image, E.encode(win, cfg.bins)).data
        sample = checks.logit_sample(logits)
        scenes.append({
            "seed": seed,
            **inputs.scene_digests(scene),
            "logits": {"shape": list(logits.shape),
                       **{k: [float(v) for v in vals] for k, vals in sample.items()}},
        })
    print(f"infer: {len(scenes)} scenes", flush=True)
    return {"scenes": scenes}


def record_train(E):
    cfg = E.NetworkConfig()
    scenes = []
    for seed in range(TRAIN_POOL):
        scene = E.synth_scene(seed=seed, **wl.TRAIN_SCENE)
        _, history, _, _ = E.train_toy(scene, cfg, steps=wl.TRAIN_STEPS, lr=wl.TRAIN_LR)
        scenes.append({"seed": seed, **inputs.scene_digests(scene),
                       "first_loss": history[0], "final_loss": history[-1]})
    print(f"train: {len(scenes)} scenes", flush=True)
    return {"scenes": scenes}


def record_gradcheck(E):
    model = E.Model(E.verify.minimal_network_config(1), dtype=np.float64)
    subset = [name for i, name in enumerate(model.store.names())
              if i % NETWORK_SUBSET_STRIDE == 1]
    modules = {}
    for module in wl.GRADCHECK_MODULES:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            rows = E.verify.run_checks(module, seed=GRADCHECK_SEEDS[0])[module]
        finally:
            tracing.uninstall(undo)
        modules[module] = [len(rows), tracer.counts["gradcheck.probes"]]
    reference = {"seeds": list(GRADCHECK_SEEDS), "modules": modules, "network_subset": subset}
    worst = {}
    for seed in GRADCHECK_SEEDS:
        workload = wl.Gradcheck(E, {"gradcheck": reference}, seed, None)
        workload.setup()
        errors = []
        for op in workload.ops():
            out = op.run()
            problems = op.check(out)
            if problems:
                raise SystemExit(f"gradcheck seed {seed} fails at this commit: {problems}")
            errors += [err for _, err in out] if isinstance(out, list) else [out]
        worst[seed] = float(max(errors))
    print(f"gradcheck: modules {modules}, {len(subset)} network groups, "
          f"worst error per seed {worst}", flush=True)
    return reference


def main():
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        raise SystemExit("run with OPENBLAS_NUM_THREADS=1, as run.py runs workloads")
    import evifuse
    import evifuse.network
    import evifuse.verify

    reference = {
        "ingest": record_streams(evifuse),
        "infer": record_infer(evifuse),
        "train": record_train(evifuse),
        "gradcheck": record_gradcheck(evifuse),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
