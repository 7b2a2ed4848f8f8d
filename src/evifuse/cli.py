"""Command-line interface. Every subcommand is deterministic given its
inputs, flags and seed; exit code 0 means the run completed with all
internal validations passing. Times are microseconds throughout.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

import numpy as np

from .encoding import encode
from .events import parse_events, window
from .network import (
    Model, NetworkConfig, TrainingDiverged, check_scene, encode_scene,
    load_config, metrics, train_toy,
)
from .synth import load_scene, save_scene, synth_scene
from .tensor import NonFiniteError, Tensor
from .tensorio import write_tensor
from .verify import CLI_CHOICES, TOLERANCE, run_checks


def _parse_dims(text):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ValueError(f"dims must look like 64x64, got {text!r}") from None


def _load_events(path, dims):
    with open(path) as fh:
        return parse_events(fh, dims)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    dims = _parse_dims(args.dims)
    scene = synth_scene(args.seed, dims, args.objects, args.noise, args.window_us)
    save_scene(args.out, scene)
    print(f"wrote scene: {len(scene.events)} events, {scene.class_count} classes "
          f"-> {args.out}")
    return 0


def cmd_encode(args):
    dims = _parse_dims(args.dims)
    events = _load_events(args.events, dims)
    win = window(events, args.t_end, args.window_us, dims)
    enc = encode(win, args.bins)
    write_tensor(f"{args.out}_evt.eift", enc.e_vt)
    write_tensor(f"{args.out}_acm.eift", enc.a_cm)
    print(f"encoded {win.count} events into {args.bins}x{dims[0]}x{dims[1]} "
          f"-> {args.out}_evt.eift, {args.out}_acm.eift")
    return 0


def cmd_forward(args):
    cfg = load_config(args.config) if args.config else NetworkConfig()
    scene = load_scene(args.scene)
    check_scene(scene, cfg)
    model = Model(cfg)
    enc = encode_scene(scene, cfg)
    logits = model.forward_encoded(scene.image, enc)
    write_tensor(args.out, logits)
    pred = logits.data[0].argmax(axis=0)
    if args.pred:
        write_tensor(args.pred, Tensor(pred.astype(np.float32)))
    miou, pa = metrics(pred, scene.labels, cfg.classes)
    print(f"mIoU={miou:.4f} PA={pa:.4f}")
    return 0


def cmd_gradcheck(args):
    results = run_checks(args.module, seed=args.seed)
    failed = False
    print(f"{'module':<10} {'worst group':<28} {'max rel err':>12}  status")
    for name, rows in results.items():
        group, err = max(rows, key=lambda r: r[1])
        ok = err < TOLERANCE
        failed |= not ok
        print(f"{name:<10} {group:<28} {err:>12.3e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_train_toy(args):
    cfg = load_config(args.config) if args.config else NetworkConfig()
    scene = load_scene(args.scene)
    _, history, miou, pa = train_toy(scene, cfg, args.steps, args.lr)
    with open(args.out, "w") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(history):
            fh.write(f"{step},{loss:.6f}\n")
    print(f"loss {history[0]:.4f} -> {history[-1]:.4f} over {args.steps} steps; "
          f"mIoU={miou:.4f} PA={pa:.4f}; history -> {args.out}")
    return 0


def cmd_ablate(args):
    base = load_config(args.config) if args.config else NetworkConfig()
    scene = load_scene(args.scene)
    print(f"{'aefrm':<6} {'marm':<6} {'mgfm':<6} {'final loss':>12} "
          f"{'mIoU':>8} {'PA':>8}")
    for use_aefrm, use_marm, use_mgfm in itertools.product((False, True), repeat=3):
        cfg = dataclasses.replace(base, use_aefrm=use_aefrm, use_marm=use_marm,
                                  use_mgfm=use_mgfm)
        _, history, miou, pa = train_toy(scene, cfg, args.steps, args.lr)
        print(f"{_mark(use_aefrm):<6} {_mark(use_marm):<6} {_mark(use_mgfm):<6} "
              f"{history[-1]:>12.4f} {miou:>8.4f} {pa:>8.4f}")
    return 0


def _mark(flag):
    return "on" if flag else "off"


def _parse_durations(text):
    """--durations as positive microsecond counts; empty entries are skipped."""
    items = [d for d in text.split(",") if d]
    if not items:
        raise ValueError("--durations: need at least one duration")
    for item in items:
        try:
            positive = int(item) > 0
        except ValueError:
            positive = False
        if not positive:
            raise ValueError(f"--durations takes positive integers (microseconds), "
                             f"got {item!r}")
    return [int(d) for d in items]


def cmd_sweep_duration(args):
    cfg = load_config(args.config) if args.config else NetworkConfig()
    dims = (cfg.height, cfg.width)
    # every entry is checked before the first window is written
    durations = _parse_durations(args.durations)
    events = _load_events(args.events, dims)
    model = Model(cfg)
    # no labeled frame in this mode; drive the image branch with neutral gray
    image = Tensor(np.full((3, *dims), 0.5, dtype=np.float32))
    print(f"{'duration_us':>12} {'events':>8} {'activity':>10} "
          f"{'logit min':>10} {'logit max':>10}")
    for duration in durations:
        win = window(events, args.t_end, duration, dims)
        enc = encode(win, cfg.bins)
        logits = model.forward_encoded(image, enc)
        out = f"{args.out_dir.rstrip('/')}/logits_{duration}.eift"
        write_tensor(out, logits)
        print(f"{duration:>12} {win.count:>8} {float(enc.a_cm.data.sum()):>10.2f} "
              f"{float(logits.data.min()):>10.4f} {float(logits.data.max()):>10.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evifuse",
        description="Event-image fusion segmentation pipeline (synthetic, CPU)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dims", required=True, help="HxW, divisible by 32")
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0, help="events per ms")
    p.add_argument("--window-us", type=int, default=50000, dest="window_us")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="encode an event CSV into projection/activity maps")
    p.add_argument("--events", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--t-end", type=int, required=True, dest="t_end")
    p.add_argument("--window-us", type=int, default=50000, dest="window_us")
    p.add_argument("--bins", type=int, default=3)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("forward", help="run the network on a scene directory")
    p.add_argument("--config")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pred")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", choices=CLI_CHOICES, default="all")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit one scene with gradient descent")
    p.add_argument("--config")
    p.add_argument("--scene", required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--out", default="history.csv")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("ablate", help="train all 8 module-toggle combinations")
    p.add_argument("--config")
    p.add_argument("--scene", required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.05)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-duration",
                       help="re-window one stream at several durations; the "
                            "sensor size is the config's height x width")
    p.add_argument("--config")
    p.add_argument("--events", required=True)
    p.add_argument("--t-end", type=int, required=True, dest="t_end")
    p.add_argument("--durations", default="10000,50000,250000")
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_sweep_duration)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except NonFiniteError as exc:
        print(f"non-finite value in the network: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
