"""CLI subcommands, exercised through main(argv)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from evifuse.cli import main
from evifuse.tensor import Tensor
from evifuse.tensorio import read_tensor, write_tensor

from _oracles import eift_bytes

SMALL_CONFIG = {
    "height": 32, "width": 32, "classes": 3,
    "image_widths": [4, 4, 4, 4], "event_widths": [2, 2, 2, 2],
    "heads": [1, 1, 1, 1], "reduction": 1, "decoder_width": 4,
    "refine_width": 2, "seed": 3,
    "encoding": {"bins": 2, "window_us": 20000},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    rc = main(["synth", "--seed", "3", "--dims", "32x32", "--objects", "2",
               "--noise", "1.0", "--window-us", "20000", "--out", str(out)])
    assert rc == 0
    return str(out)


class TestSynth:
    def test_creates_four_files(self, scene_dir, tmp_path):
        import os

        assert sorted(os.listdir(scene_dir)) == [
            "events.csv", "image.eift", "labels.eift", "meta"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        import os

        args = ["synth", "--seed", "5", "--dims", "32x32", "--objects", "2",
                "--noise", "0.5", "--window-us", "10000"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_indivisible_dims_rejected(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "1", "--dims", "60x60", "--objects", "1",
                   "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_malformed_dims_rejected(self, tmp_path):
        rc = main(["synth", "--seed", "1", "--dims", "64", "--objects", "1",
                   "--out", str(tmp_path / "x")])
        assert rc != 0


class TestEncode:
    def test_empty_stream_gives_zero_tensors(self, tmp_path):
        events = tmp_path / "empty.csv"
        events.write_text("# no events\n")
        prefix = str(tmp_path / "enc")
        rc = main(["encode", "--events", str(events), "--dims", "48x64",
                   "--t-end", "50000", "--out", prefix])
        assert rc == 0
        evt = read_tensor(prefix + "_evt.eift")
        acm = read_tensor(prefix + "_acm.eift")
        assert evt.shape == (3, 48, 64)  # default bins
        assert not evt.data.any() and not acm.data.any()

    def test_defaults_are_three_bins_50ms(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("25000,1,1,1\n")
        prefix = str(tmp_path / "enc")
        rc = main(["encode", "--events", str(events), "--dims", "8x8",
                   "--t-end", "50000", "--out", prefix])
        assert rc == 0
        evt = read_tensor(prefix + "_evt.eift")
        assert evt.shape == (3, 8, 8)
        assert evt.data[1, 1, 1] == pytest.approx(1.0)  # t* = 1 at bin center

    def test_activity_dominates_projection(self, tmp_path, rng):
        lines = [
            f"{int(t)},{int(x)},{int(y)},{int(p)}"
            for t, x, y, p in zip(
                rng.integers(0, 50000, 500), rng.integers(0, 8, 500),
                rng.integers(0, 8, 500), rng.choice([-1, 0, 1], 500))
        ]
        events = tmp_path / "r.csv"
        events.write_text("\n".join(lines) + "\n")
        prefix = str(tmp_path / "enc")
        assert main(["encode", "--events", str(events), "--dims", "8x8",
                     "--t-end", "50000", "--out", prefix]) == 0
        evt = read_tensor(prefix + "_evt.eift")
        acm = read_tensor(prefix + "_acm.eift")
        assert (np.abs(evt.data) <= acm.data + 1e-6).all()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        events = tmp_path / "bad.csv"
        events.write_text("10,1,1,1\nbroken\n")
        rc = main(["encode", "--events", str(events), "--dims", "8x8",
                   "--t-end", "100", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err


class TestForward:
    def test_writes_logits_and_reports_metrics(self, small_config, scene_dir,
                                               tmp_path, capsys):
        out = tmp_path / "logits.eift"
        pred = tmp_path / "pred.eift"
        rc = main(["forward", "--config", small_config, "--scene", scene_dir,
                   "--out", str(out), "--pred", str(pred)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mIoU=" in printed and "PA=" in printed
        pa = float(printed.split("PA=")[1].split()[0])
        assert 0.0 <= pa <= 1.0
        logits = read_tensor(out)
        assert logits.shape == (1, 3, 32, 32)
        classes = read_tensor(pred)
        assert classes.shape == (32, 32)
        assert set(np.unique(classes.data)).issubset({0.0, 1.0, 2.0})

    def test_deterministic_logits(self, small_config, scene_dir, tmp_path):
        a, b = tmp_path / "a.eift", tmp_path / "b.eift"
        assert main(["forward", "--config", small_config, "--scene", scene_dir,
                     "--out", str(a)]) == 0
        assert main(["forward", "--config", small_config, "--scene", scene_dir,
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scene_config_mismatch_rejected(self, scene_dir, tmp_path, capsys):
        cfg = dict(SMALL_CONFIG)
        cfg["height"] = cfg["width"] = 64
        path = tmp_path / "c64.json"
        path.write_text(json.dumps(cfg))
        rc = main(["forward", "--config", str(path), "--scene", scene_dir,
                   "--out", str(tmp_path / "x.eift")])
        assert rc != 0

    @pytest.mark.parametrize("command", ["forward", "train-toy", "ablate"])
    def test_scene_with_more_classes_than_config_exits_2(self, command, small_config,
                                                         tmp_path, capsys):
        scene = str(tmp_path / "five_classes")
        assert main(["synth", "--seed", "3", "--dims", "32x32", "--objects", "4",
                     "--window-us", "20000", "--out", scene]) == 0
        out = str(tmp_path / "out")
        extra = {"forward": ["--out", out], "train-toy": ["--steps", "1", "--out", out],
                 "ablate": ["--steps", "1"]}[command]
        assert main([command, "--config", small_config, "--scene", scene, *extra]) == 2
        assert "scene has 5 classes, config only 3" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"toggles": {"aefrm": "false"}},
        {"toggles": ["aefrm"]},
        {"heads": [1, 1, 1, 1.0]},
        {"seed": 1.5},
    ])
    def test_malformed_config_exits_2(self, override, scene_dir, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, **override}))
        rc = main(["forward", "--config", str(path), "--scene", scene_dir,
                   "--out", str(tmp_path / "x.eift")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_meta_without_width_exits_2(self, small_config, scene_dir, tmp_path,
                                        capsys):
        import os

        meta = os.path.join(scene_dir, "meta")
        with open(meta) as fh:
            kept = [ln for ln in fh if not ln.startswith("width=")]
        with open(meta, "w") as fh:
            fh.writelines(kept)
        rc = main(["forward", "--config", small_config, "--scene", scene_dir,
                   "--out", str(tmp_path / "x.eift")])
        assert rc == 2
        assert "'width'" in capsys.readouterr().err

    def test_non_finite_label_exits_2(self, small_config, scene_dir, tmp_path, capsys):
        import os

        path = os.path.join(scene_dir, "labels.eift")
        labels = read_tensor(path).data.copy()
        labels[3, 5] = np.nan
        with open(path, "wb") as fh:
            fh.write(eift_bytes(labels))
        rc = main(["forward", "--config", small_config, "--scene", scene_dir,
                   "--out", str(tmp_path / "x.eift")])
        assert rc == 2
        assert "labels.eift: non-finite value nan at index (3, 5)" in capsys.readouterr().err

    def test_label_out_of_range_exits_2(self, small_config, scene_dir, tmp_path,
                                        capsys):
        import os

        path = os.path.join(scene_dir, "labels.eift")
        labels = read_tensor(path).data.copy()
        labels[0, 0] = 3.0  # the scene has classes 0..2
        write_tensor(path, Tensor(labels))
        rc = main(["forward", "--config", small_config, "--scene", scene_dir,
                   "--out", str(tmp_path / "x.eift")])
        assert rc == 2
        assert "class ids in [0, 3)" in capsys.readouterr().err


class TestGradcheck:
    def test_single_module_passes(self, capsys):
        rc = main(["gradcheck", "--module", "marm", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "marm" in out and "ok" in out

    def test_every_case_is_a_module_choice(self, capsys):
        # the choices come from verify.CASES, so the decoder check is one
        rc = main(["gradcheck", "--module", "decoder", "--seed", "1"])
        assert rc == 0
        assert "decoder" in capsys.readouterr().out

    def test_corrupted_backward_fails(self, capsys, monkeypatch):
        # an untaped self-product halves the analytic gradient of the
        # recalibrated events, so the real check must report FAIL
        import evifuse.verify as verify

        real = verify.recalibrate

        def corrupted(ev, im, params):
            ev_rec, im_rec = real(ev, im, params)
            return ev_rec * Tensor(ev_rec.data), im_rec

        monkeypatch.setattr(verify, "recalibrate", corrupted)
        rc = main(["gradcheck", "--module", "marm", "--seed", "1"])
        assert rc != 0
        assert "FAIL" in capsys.readouterr().out

    def test_all_modules_table_shape(self, capsys, monkeypatch):
        # the real 'all' run takes minutes (it is the acceptance gate);
        # here only the table/exit-code plumbing is under test
        import evifuse.cli as cli

        fake = {name: [("w", 2e-6), ("b", 5e-7)]
                for name in ("aefrm", "marm", "mgfm", "encoder", "decoder",
                             "network")}
        monkeypatch.setattr(cli, "run_checks", lambda which, seed: fake)
        rc = main(["gradcheck", "--module", "all"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l and not l.startswith("module")]
        assert len(lines) >= 4

    def test_unknown_module_rejected(self):
        with pytest.raises(SystemExit):
            main(["gradcheck", "--module", "bogus"])


class TestTrainToy:
    def test_single_step_zero_lr(self, small_config, scene_dir, tmp_path, capsys):
        out = tmp_path / "history.csv"
        rc = main(["train-toy", "--config", small_config, "--scene", scene_dir,
                   "--steps", "1", "--lr", "0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_history_matches_steps(self, small_config, scene_dir, tmp_path):
        out = tmp_path / "history.csv"
        rc = main(["train-toy", "--config", small_config, "--scene", scene_dir,
                   "--steps", "4", "--lr", "0.05", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        losses = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(np.isfinite(losses))


class TestAblate:
    def test_eight_rows_all_finite(self, small_config, scene_dir, capsys):
        rc = main(["ablate", "--config", small_config, "--scene", scene_dir,
                   "--steps", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [l for l in lines if l.split()[0] in ("on", "off")]
        assert len(rows) == 8
        for row in rows:
            final_loss = float(row.split()[3])
            assert np.isfinite(final_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["train-toy", "ablate"])
def test_divergence_exits_1_without_traceback(command, small_config, scene_dir,
                                              tmp_path, capsys):
    args = [command, "--config", small_config, "--scene", scene_dir,
            "--steps", "3", "--lr", "1e30"]
    if command == "train-toy":
        args += ["--out", str(tmp_path / "history.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "training diverged" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, message", [
    ("forward", "non-finite value in the network"),
    ("train-toy", "training diverged"),
])
def test_overflowing_scene_exits_1_without_traceback(command, message, tmp_path,
                                                     capsys):
    # finite in float32, so load_scene accepts it, but too large for the
    # default 64x64 network
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "3", "--dims", "64x64", "--objects", "2",
                 "--out", str(scene)]) == 0
    image = read_tensor(scene / "image.eift").data
    write_tensor(scene / "image.eift", image * 1e37)
    args = [command, "--scene", str(scene), "--out", str(tmp_path / "out")]
    if command == "train-toy":
        args += ["--steps", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, message", [
    ("forward", "non-finite value in the network"),
    ("train-toy", "training diverged"),
])
def test_overflowing_variance_exits_1_without_traceback(command, message, small_config,
                                                        scene_dir, tmp_path, capsys):
    # at 32x32 only the normalization variances overflow; an Inf variance
    # must not turn each channel into beta and exit 0
    image = read_tensor(f"{scene_dir}/image.eift").data
    write_tensor(f"{scene_dir}/image.eift", image * 1e37)
    args = [command, "--config", small_config, "--scene", scene_dir,
            "--out", str(tmp_path / "out")]
    if command == "train-toy":
        args += ["--steps", "2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


class TestSweepDuration:
    def test_three_durations_shape_identical(self, small_config, scene_dir,
                                             tmp_path, capsys):
        events = f"{scene_dir}/events.csv"
        rc = main(["sweep-duration", "--config", small_config,
                   "--events", events, "--t-end", "20000",
                   "--durations", "2000,10000,20000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        shapes = set()
        for duration in (2000, 10000, 20000):
            t = read_tensor(tmp_path / f"logits_{duration}.eift")
            shapes.add(t.shape)
            assert np.isfinite(t.data).all()
        assert shapes == {(1, 3, 32, 32)}

    def test_event_off_the_config_sensor_exits_2_naming_the_line(self, small_config,
                                                                 tmp_path, capsys):
        # the sensor is the config's 32x32, so x=40 on line 2 is off it
        events = tmp_path / "wide.csv"
        events.write_text("10,1,1,1\n20,40,1,0\n")
        rc = main(["sweep-duration", "--config", small_config, "--events", str(events),
                   "--t-end", "100", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "x=40" in err
        assert "Traceback" not in err

    def test_dims_flag_rejected(self, small_config, tmp_path, capsys):
        # the config's height and width are the sensor size; no second source
        with pytest.raises(SystemExit) as exc:
            main(["sweep-duration", "--config", small_config,
                  "--events", str(tmp_path / "events.csv"), "--dims", "32x32",
                  "--t-end", "20000", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--dims" in capsys.readouterr().err

    def test_empty_durations_exit_2(self, small_config, scene_dir, tmp_path, capsys):
        rc = main(["sweep-duration", "--config", small_config,
                   "--events", f"{scene_dir}/events.csv", "--t-end", "20000",
                   "--durations", ",", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "need at least one duration" in capsys.readouterr().err

    @pytest.mark.parametrize("durations", ["10000,0", "10000,abc", "10000,-5",
                                           "10000,2.5"])
    def test_bad_duration_exits_2_before_any_window(self, durations, small_config,
                                                    scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["sweep-duration", "--config", small_config,
                   "--events", f"{scene_dir}/events.csv", "--t-end", "20000",
                   "--durations", durations, "--out-dir", str(out)])
        assert rc == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert "--durations" in err and repr(durations.split(",")[1]) in err
        assert "Traceback" not in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "evifuse.cli", "synth", "--seed", "1",
             "--dims", "32x32", "--objects", "1", "--out", str(tmp_path / "s")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert (tmp_path / "s" / "meta").exists()
