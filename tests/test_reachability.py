"""Every function and method in src/evifuse is reached by a product entry point.

The entry points run under ``sys.setprofile`` at small sizes: every CLI
subcommand (on a small config, a malformed CSV and a diverging learning
rate among them) and each gradient-check case's forward and backward
without its probes. A function that none of them calls is surface only
tests reach: delete it, or name it in ``ALLOWED`` with the reason it
stays.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import evifuse
from evifuse import verify
from evifuse.cli import main
from evifuse.tensor import Tape

SRC = Path(evifuse.__file__).parent

# qualified name -> why it stays although no entry point calls it
ALLOWED = {
    "network.loss_ce": "perfbench/workloads.py builds its gradient-check objective with it",
    "tensor.Tape.__len__": "perfbench/tracing.py counts tape records with it",
    "params.ParamStore.__getitem__": "perfbench/workloads.py picks the parameters it checks by name",
    "params.ParamStore.names": "perfbench/record.py lists the parameters it records",
    "tensor.Tensor.__repr__": "what repr() shows of a tensor; the program never formats one",
    "tensor.astype": "forward_encoded casts the encodings for a float64 Model; CLI models are float32",
}

SMALL_CONFIG = {
    "height": 32, "width": 32, "classes": 3,
    "image_widths": [4, 4, 4, 4], "event_widths": [2, 2, 2, 2],
    "heads": [1, 1, 1, 1], "reduction": 1, "decoder_width": 4,
    "refine_width": 2, "seed": 3,
    "encoding": {"bins": 2, "window_us": 20000},
}


def _functions(obj, prefix, filename):
    """(qualified name, code) of each function defined in ``filename`` under obj."""
    for name, member in vars(obj).items():
        if isinstance(member, property):
            member = member.fget
        member = getattr(member, "__func__", member)  # static and class methods
        if isinstance(member, types.FunctionType):
            if member.__code__.co_filename == filename:
                yield f"{prefix}.{name}", member.__code__
        elif isinstance(member, type) and member.__module__ == obj.__name__:
            yield from _functions(member, f"{prefix}.{name}", filename)


def defined_functions():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = sys.modules[f"evifuse.{path.stem}"] if path.stem != "__init__" else evifuse
        found.update(_functions(module, path.stem, str(path)))
    return found


def _run_entry_points(tmp):
    config = tmp / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    scene = str(tmp / "scene")
    events = f"{scene}/events.csv"
    small = ["--config", str(config)]
    bad_csv = tmp / "bad.csv"
    bad_csv.write_text("0,1,1,1\n10,2,x,0\n")
    runs = [
        (["synth", "--seed", "3", "--dims", "32x32", "--objects", "2",
          "--noise", "1.0", "--window-us", "20000", "--out", scene], 0),
        (["encode", "--events", events, "--dims", "32x32", "--t-end", "20000",
          "--bins", "2", "--out", str(tmp / "enc")], 0),
        (["encode", "--events", str(bad_csv), "--dims", "32x32", "--t-end", "20000",
          "--out", str(tmp / "bad")], 2),
        (["forward", *small, "--scene", scene, "--out", str(tmp / "logits.eift"),
          "--pred", str(tmp / "pred.eift")], 0),
        (["gradcheck", "--module", "aefrm"], 0),
        (["train-toy", *small, "--scene", scene, "--steps", "2",
          "--out", str(tmp / "history.csv")], 0),
        (["train-toy", *small, "--scene", scene, "--steps", "2", "--lr", "1e30",
          "--out", str(tmp / "diverged.csv")], 1),
        (["ablate", *small, "--scene", scene, "--steps", "1"], 0),
        (["sweep-duration", *small, "--events", events, "--dims", "32x32",
          "--t-end", "20000", "--durations", "5000,20000", "--out-dir", str(tmp)], 0),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
    for case in verify.CASES.values():
        forward, _, inputs = case(1)
        for _, t in inputs:
            t.requires_grad = True
        with Tape() as tape:
            y = forward()
        tape.backward(y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging run overflows
def test_every_function_is_reached_by_an_entry_point(tmp_path, capsys):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_entry_points(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = sorted(name for name, code in defined_functions().items()
                       if code not in seen and name not in ALLOWED)
    assert not unreached, f"no entry point calls {unreached}"


def test_allowlist_names_exist():
    assert set(ALLOWED) <= set(defined_functions())
