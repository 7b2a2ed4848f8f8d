"""Network assembly: config, encoders, decoder, loss, metrics, trainer."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from evifuse import ops
from evifuse.network import (
    ConfigError, Model, NetworkConfig, TrainingDiverged, config_from_dict,
    decode, encode_stages, init_decoder_params, init_encoder_params,
    load_config, loss_ce, metrics, train_toy,
)
from evifuse.params import ParamStore, make_rng
from evifuse.synth import synth_scene
from evifuse.tensor import Tensor, tsum

from _oracles import cross_entropy_naive, metrics_naive


def small_config(**kw):
    base = dict(
        height=32, width=32, classes=3,
        image_widths=[4, 4, 4, 4], event_widths=[2, 2, 2, 2],
        heads=[1, 1, 1, 1], reduction=1, decoder_width=4, refine_width=2,
        bins=2, window_us=20000, seed=3,
    )
    base.update(kw)
    return NetworkConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        cfg = NetworkConfig()
        assert cfg.event_widths == [8, 16, 24, 32]

    @pytest.mark.parametrize("dims", [(60, 60), (32, 31), (16, 32), (32, 32), (96, 96)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ConfigError):
            NetworkConfig(height=dims[0], width=dims[1])

    def test_width_head_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(image_widths=[16, 32, 48, 64], heads=[3, 2, 2, 2])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"height": 64, "wdith": 64})

    def test_unknown_toggle_key_rejected(self):
        with pytest.raises(ConfigError, match="toggle"):
            config_from_dict({"toggles": {"aefrm": True, "extra": False}})

    def test_unknown_encoding_key_rejected(self):
        with pytest.raises(ConfigError, match="encoding"):
            config_from_dict({"encoding": {"bins": 3, "windows": 1}})

    @pytest.mark.parametrize("raw, message", [
        ({"toggles": {"aefrm": "false"}}, "use_aefrm must be true or false"),
        ({"toggles": {"mgfm": 0}}, "use_mgfm must be true or false"),
        ({"toggles": ["aefrm"]}, "toggles must be a JSON object"),
        ({"encoding": 3}, "encoding must be a JSON object"),
        ({"encoding": {"bins": 2.7}}, "bins must be an integer"),
        ({"encoding": {"window_us": True}}, "window_us must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"height": 64.0}, "height must be an integer"),
        ({"classes": True}, "classes must be an integer"),
        ({"heads": [2, 2, 2, 2.0]}, "heads needs 4 positive integers"),
        ({"image_widths": [16, 32, 48]}, "image_widths needs 4 positive integers"),
        ({"image_widths": ["16", 32, 48, 64]}, "image_widths needs 4 positive integers"),
        ({"event_widths": "8,16,24,32"}, "event_widths needs 4 positive integers"),
        ({"decoder_width": 0}, "decoder_width must be >= 1"),
        ({"refine_width": -1}, "refine_width must be >= 1"),
    ])
    def test_wrong_types_and_widths_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_json_roundtrip(self, tmp_path):
        raw = {
            "height": 64, "width": 64, "classes": 2,
            "toggles": {"aefrm": False, "marm": True, "mgfm": True},
            "encoding": {"bins": 2, "window_us": 10000},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.use_aefrm is False and cfg.use_marm is True
        assert cfg.bins == 2 and cfg.window_us == 10000


class TestStubEncoder:
    def test_stage_shapes_64(self, rng):
        store = ParamStore()
        p = init_encoder_params(store, make_rng(0), 3, [4, 8, 12, 16], "enc")
        x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
        shapes = [f.shape for f in encode_stages(x, p)]
        assert shapes == [(1, 4, 16, 16), (1, 8, 8, 8), (1, 12, 4, 4), (1, 16, 2, 2)]

    def test_zero_input_gives_zero_stages(self):
        store = ParamStore()
        p = init_encoder_params(store, make_rng(0), 3, [2, 2, 2, 2], "enc")
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        for feat in encode_stages(x, p):
            assert not feat.data.any()

    @pytest.mark.parametrize("h,w", [(32, 32), (64, 96), (128, 64)])
    def test_stage_geometry_for_divisible_sizes(self, rng, h, w):
        store = ParamStore()
        p = init_encoder_params(store, make_rng(0), 3, [2, 2, 2, 2], "enc")
        x = Tensor(rng.standard_normal((1, 3, h, w)).astype(np.float32))
        shapes = [f.shape[2:] for f in encode_stages(x, p)]
        assert shapes == [(h // 4, w // 4), (h // 8, w // 8),
                          (h // 16, w // 16), (h // 32, w // 32)]


class TestProjectEvent:
    def test_identity_weights(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        b = Tensor(np.zeros(3, dtype=np.float32))
        np.testing.assert_allclose(ops.conv2d(x, w, b).data, x.data)

    def test_zero_weights(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32))
        assert not ops.conv2d(x, w, b).data.any()

    def test_matches_matmul_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        b = rng.standard_normal(5)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        expected = np.einsum("oc,bchw->bohw", w[:, :, 0, 0], x) + b.reshape(1, 5, 1, 1)
        np.testing.assert_allclose(got, expected, atol=1e-5)


class TestDecoder:
    def _stages(self, rng, widths=(4, 4, 4, 4)):
        dims = [(8, 8), (4, 4), (2, 2), (1, 1)]
        return [Tensor(rng.standard_normal((1, c, h, w)).astype(np.float32))
                for c, (h, w) in zip(widths, dims)]

    def test_constant_bias_wins_argmax(self, rng):
        store = ParamStore()
        p = init_decoder_params(store, make_rng(0), [4, 4, 4, 4], 4, classes=3)
        for name, t in store.items():
            if name.startswith("decoder") and not name.endswith("_bn.g"):
                t.data = np.zeros_like(t.data)
        p.cls.b.data = np.array([0.0, 2.0, 0.0])
        logits = decode(self._stages(rng), p, (32, 32))
        assert logits.shape == (1, 3, 32, 32)
        assert (logits.data.argmax(axis=1) == 1).all()

    def test_output_matches_requested_dims(self, rng):
        store = ParamStore()
        p = init_decoder_params(store, make_rng(0), [4, 4, 4, 4], 4, classes=2)
        logits = decode(self._stages(rng), p, (32, 32))
        assert logits.shape[2:] == (32, 32)


class TestLoss:
    def test_uniform_logits_two_classes(self):
        logits = Tensor(np.zeros((1, 2, 4, 4)))
        labels = np.zeros((4, 4), dtype=np.int64)
        assert loss_ce(logits, labels).item() == pytest.approx(np.log(2.0), rel=1e-6)

    def test_confident_correct_is_tiny(self):
        logits = np.zeros((1, 2, 4, 4))
        logits[0, 1] = 20.0
        labels = np.ones((4, 4), dtype=np.int64)
        assert loss_ce(Tensor(logits), labels).item() < 1e-8

    def test_matches_per_pixel_oracle(self, rng):
        logits = rng.standard_normal((1, 4, 5, 5))
        labels = rng.integers(0, 4, size=(5, 5))
        got = loss_ce(Tensor(logits, dtype=np.float64), labels).item()
        assert got == pytest.approx(cross_entropy_naive(logits, labels), rel=1e-6)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            loss_ce(Tensor(np.zeros((1, 2, 2, 2))), np.full((2, 2), 5))


class TestMetrics:
    def test_perfect_prediction(self, rng):
        gt = rng.integers(0, 3, size=(8, 8))
        miou, pa = metrics(gt, gt, 3)
        assert miou == 1.0 and pa == 1.0

    def test_half_half_closed_form(self):
        gt = np.zeros((4, 4), dtype=np.int64)
        gt[2:, :] = 1
        pred = np.zeros((4, 4), dtype=np.int64)
        miou, pa = metrics(pred, gt, 2)
        assert pa == pytest.approx(0.5)
        assert miou == pytest.approx(0.25)  # IoU_A=0.5, IoU_B=0

    def test_matches_confusion_matrix_oracle(self, rng):
        pred = rng.integers(0, 5, size=(16, 16))
        gt = rng.integers(0, 5, size=(16, 16))
        got = metrics(pred, gt, 5)
        expected = metrics_naive(pred, gt, 5)
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)

    def test_absent_classes_excluded(self):
        pred = np.zeros((4, 4), dtype=np.int64)
        gt = np.zeros((4, 4), dtype=np.int64)
        miou, pa = metrics(pred, gt, 10)
        assert miou == 1.0  # only class 0 has a non-empty union


class TestModelForward:
    def test_output_shape_and_determinism(self, rng):
        cfg = small_config()
        scene = synth_scene(2, (32, 32), 2, 1.0, cfg.window_us)
        from evifuse.network import encode_scene

        enc = encode_scene(scene, cfg)
        a = Model(cfg).forward_encoded(scene.image, enc)
        b = Model(cfg).forward_encoded(scene.image, enc)
        assert a.shape == (1, 3, 32, 32)
        assert np.array_equal(a.data, b.data)

    def test_float32_model_returns_float32_logits(self):
        cfg = small_config()
        scene = synth_scene(2, (32, 32), 2, 1.0, cfg.window_us)
        from evifuse.network import encode_scene

        logits = Model(cfg).forward_encoded(scene.image, encode_scene(scene, cfg))
        assert logits.dtype == np.float32

    def test_float64_model_rejects_float32_image(self):
        # no silent cast: a model computes in its own dtype or not at all
        from evifuse.network import encode_scene

        cfg = small_config()
        scene = synth_scene(2, (32, 32), 2, 1.0, cfg.window_us)
        with pytest.raises(ValueError, match="float32.*float64"):
            Model(cfg, dtype=np.float64).forward_encoded(scene.image, encode_scene(scene, cfg))
        image = Tensor(np.zeros((1, 3, 32, 32)), dtype=np.float64)
        events = Tensor(np.zeros((1, 2, 32, 32)), dtype=np.float64)
        with pytest.raises(ValueError, match="float64.*float32"):
            Model(cfg).forward(image, events, events)

    def test_dim_mismatch_rejected(self, rng):
        cfg = small_config()
        model = Model(cfg)
        image = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        ev = Tensor(np.zeros((1, 2, 64, 64), dtype=np.float32))
        with pytest.raises(Exception):
            model.forward(image, ev, ev)

    @pytest.mark.parametrize("toggles", list(itertools.product([False, True], repeat=3)))
    def test_every_toggle_combination_forward(self, toggles):
        use_aefrm, use_marm, use_mgfm = toggles
        cfg = small_config(use_aefrm=use_aefrm, use_marm=use_marm, use_mgfm=use_mgfm)
        scene = synth_scene(4, (32, 32), 2, 1.0, cfg.window_us)
        from evifuse.network import encode_scene

        model = Model(cfg)
        logits = model.forward_encoded(scene.image, encode_scene(scene, cfg))
        assert logits.shape == (1, 3, 32, 32)
        loss = loss_ce(logits, scene.labels)
        assert np.isfinite(loss.item())

    def test_minimal_forward_records_at_most_294(self):
        # the gradient-check network objective; a bound, not a pin
        from evifuse.tensor import Tape
        from evifuse.verify import network_case

        forward, _, _ = network_case(1)
        with Tape() as tape:
            forward()
        assert len(tape) <= 294

    def test_default_128_forward_takes_no_row_max_shift(self, shift_free_calls):
        # the attention kernels skip the row-max pass where the score bound
        # allows; at the default config every branch of every call does
        from evifuse.network import encode_scene

        cfg = NetworkConfig(height=128, width=128)
        scene = synth_scene(3, (128, 128), 3, 2.0, 50_000)
        Model(cfg).forward_encoded(scene.image, encode_scene(scene, cfg))
        # per stage: differential attention (two branches), cross-attention
        assert shift_free_calls == [[True, True], [True]] * 4


class TestEncodeScene:
    def test_window_us_is_the_encoded_duration(self):
        # a 50 ms scene encoded over the last window_us before its frame: the
        # activity map holds one unit per event of that window
        from evifuse.events import window
        from evifuse.network import encode_scene

        scene = synth_scene(1, (64, 64), 2, 1.0, 50000)
        totals = {}
        for duration in (10000, 50000):
            cfg = NetworkConfig(height=64, width=64, window_us=duration)
            totals[duration] = float(encode_scene(scene, cfg).a_cm.data.sum())
            count = window(scene.events, 50000, duration, (64, 64)).count
            assert totals[duration] == pytest.approx(count, rel=1e-6)
        assert totals[10000] != pytest.approx(totals[50000], rel=1e-6)


class TestInitialParameterDigests:
    """Names, order, dtypes, shapes and values of every initial parameter."""

    @staticmethod
    def _digest(store):
        h = hashlib.sha256()
        for name, t in store.items():
            h.update(name.encode())
            h.update(t.data.dtype.str.encode())
            h.update(str(t.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def test_default_float32_model(self):
        assert self._digest(Model(NetworkConfig()).store) == (
            "b6fcc88e7fd6210e97b63f94c3517ff2ed0cd62b49471d6ba81d07f1c538a3b3")

    def test_minimal_float64_model(self):
        from evifuse.verify import minimal_network_config

        model = Model(minimal_network_config(1), dtype=np.float64)
        assert self._digest(model.store) == (
            "6985e37ca3191d691e3381eb5f7c7bb91017b7c78a747f6a2852d0c14624c69a")


class TestGradients:
    """The stated single-sample gradient examples, verbatim shapes."""

    def test_encoder_single_sample_32(self):
        from evifuse.gradcheck import check_input, check_param
        from evifuse.verify import _randomize

        store = ParamStore()
        p = init_encoder_params(store, make_rng(2), 3, [2, 2, 2, 2], "enc")
        rng = make_rng(20)
        _randomize(store, rng)
        x = Tensor(rng.standard_normal((1, 3, 32, 32)), dtype=np.float64)
        probes = [Tensor(rng.standard_normal(d) * 1e-5, dtype=np.float64)
                  for d in ((1, 2, 8, 8), (1, 2, 4, 4), (1, 2, 2, 2), (1, 2, 1, 1))]

        def forward():
            total = None
            for feat, probe in zip(encode_stages(x, p), probes):
                part = tsum(feat * probe)
                total = part if total is None else total + part
            return total

        worst = max(check_param(forward, t) for _, t in store.items())
        worst = max(worst, check_input(forward, x))
        assert worst < 1e-4

    @pytest.mark.slow
    def test_full_pipeline_single_sample_32(self):
        # one sample, 32x32, 2 classes, double precision; every parameter
        # group and input against central differences (slow, ~2 min)
        from evifuse.gradcheck import check_input, check_param
        from evifuse.verify import OBJECTIVE_SCALE, _randomize, minimal_network_config

        cfg = minimal_network_config(seed=2)
        model = Model(cfg, dtype=np.float64)
        rng = make_rng(2001)
        _randomize(model.store, rng)
        image = Tensor(rng.standard_normal((1, 3, 32, 32)), dtype=np.float64)
        e_vt = Tensor(rng.standard_normal((1, cfg.bins, 32, 32)), dtype=np.float64)
        a_cm = Tensor(np.abs(e_vt.data) + 0.25, dtype=np.float64)
        labels = rng.integers(0, cfg.classes, size=(1, 32, 32))

        def forward():
            return loss_ce(model.forward(image, e_vt, a_cm), labels) * OBJECTIVE_SCALE

        worst = max(check_param(forward, t) for _, t in model.store.items())
        for t in (image, e_vt, a_cm):
            worst = max(worst, check_input(forward, t))
        assert worst < 1e-4


class TestTrainToy:
    def test_zero_lr_keeps_loss_constant(self):
        cfg = small_config()
        scene = synth_scene(cfg.seed, (32, 32), 2, 1.0, cfg.window_us)
        _, history, _, _ = train_toy(scene, cfg, steps=3, lr=0.0)
        assert len(history) == 3
        assert history[0] == history[1] == history[2]

    def test_seed_stable_history(self):
        cfg = small_config()
        scene = synth_scene(cfg.seed, (32, 32), 2, 1.0, cfg.window_us)
        _, h1, _, _ = train_toy(scene, cfg, steps=4, lr=0.05)
        _, h2, _, _ = train_toy(scene, cfg, steps=4, lr=0.05)
        assert h1 == h2

    def test_loss_decreases(self):
        cfg = small_config()
        scene = synth_scene(cfg.seed, (32, 32), 2, 1.0, cfg.window_us)
        _, history, miou, pa = train_toy(scene, cfg, steps=10, lr=0.05)
        assert history[-1] < history[0]
        assert 0.0 <= miou <= 1.0 and 0.0 <= pa <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step(self):
        cfg = small_config()
        scene = synth_scene(cfg.seed, (32, 32), 2, 1.0, cfg.window_us)
        with pytest.raises(TrainingDiverged) as info:
            train_toy(scene, cfg, steps=20, lr=1e18)
        assert info.value.step >= 0

    def test_scene_config_mismatch_rejected(self):
        cfg = small_config()
        scene = synth_scene(1, (64, 64), 2, 1.0, cfg.window_us)
        with pytest.raises(ConfigError):
            train_toy(scene, cfg, steps=1, lr=0.1)
