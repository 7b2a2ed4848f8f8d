"""Synthetic scene generator: determinism, event physics, directory IO."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse import synth
from evifuse.events import Events, serialize_events
from evifuse.synth import (
    SceneFormatError, SceneObject, load_scene, motion_events, save_scene,
    synth_scene,
)
from evifuse.tensor import Tensor
from evifuse.tensorio import read_tensor, write_tensor

from _oracles import rows


class TestSynthScene:
    def test_deterministic_given_seed(self):
        a = synth_scene(3, (64, 64), 2, noise_rate=1.0, window_us=20000)
        b = synth_scene(3, (64, 64), 2, noise_rate=1.0, window_us=20000)
        assert serialize_events(a.events) == serialize_events(b.events)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.labels.data, b.labels.data)

    def test_different_seeds_differ(self):
        a = synth_scene(1, (64, 64), 2, 0.0, 20000)
        b = synth_scene(2, (64, 64), 2, 0.0, 20000)
        assert not np.array_equal(a.image.data, b.image.data)

    def test_frozen_scene_has_no_events(self):
        objs = [SceneObject(10.0, 12.0, 8, 6, 0.0, 0.0, 1, (0.9, 0.9, 0.9)),
                SceneObject(30.0, 40.0, 12, 9, 0.0, 0.0, 2, (0.1, 0.2, 0.3))]
        t_us, x, y, p = motion_events(objs, (64, 64), duration_ms=20)
        assert len(t_us) == len(x) == len(y) == len(p) == 0

    def test_noise_count_matches_rate(self):
        noisy = synth_scene(5, (64, 64), 1, noise_rate=2.0, window_us=20000)
        clean = synth_scene(5, (64, 64), 1, noise_rate=0.0, window_us=20000)
        assert len(noisy.events) - len(clean.events) == 40  # 2 events/ms * 20 ms

    def test_labels_and_image_ranges(self):
        scene = synth_scene(9, (64, 96), 3, 1.0, 30000)
        labels = scene.labels.data
        assert labels.min() >= 0 and labels.max() < scene.class_count
        assert scene.image.shape == (3, 64, 96)
        assert 0.0 <= scene.image.data.min() and scene.image.data.max() <= 1.0
        assert scene.class_count == 4

    def test_events_inside_bounds_and_window(self):
        scene = synth_scene(11, (64, 64), 2, 3.0, 40000)
        for e in rows(scene.events):
            assert 0 <= e.x < 64 and 0 <= e.y < 64
            assert 0 <= e.t_us < 40000
            assert e.p in (-1, 1)

    def test_events_sorted(self):
        scene = synth_scene(13, (64, 64), 2, 3.0, 40000)
        stamps = scene.events.t_us.tolist()
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("dims", [(60, 60), (31, 32), (32, 33)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            synth_scene(1, dims, 1, 0.0, 20000)

    def test_needs_an_object(self):
        with pytest.raises(ValueError):
            synth_scene(1, (32, 32), 0, 0.0, 20000)


def motion(objects, dims, duration_ms):
    return Events(*motion_events(objects, dims, duration_ms))


class TestMotionEvents:
    def test_rightward_rectangle_closed_form(self):
        # brightness 0.9 rect on 0.5 background, 1 px/ms for 10 ms, far from
        # walls: each step exposes one column and covers another
        obj = SceneObject(x0=10.0, y0=20.0, width=6, height=8, vx=1.0, vy=0.0,
                          class_id=1, color=(0.9, 0.9, 0.9))
        events = motion([obj], (64, 64), duration_ms=10)
        assert len(events) == 2 * obj.height * 10
        pos = sum(1 for e in rows(events) if e.p == 1)
        neg = sum(1 for e in rows(events) if e.p == -1)
        assert pos == neg == obj.height * 10

    def test_polarity_sign_matches_brightness_change(self):
        bright = SceneObject(5.0, 5.0, 4, 4, 1.0, 0.0, 1, (0.9, 0.9, 0.9))
        events = motion([bright], (64, 64), duration_ms=1)
        leading = [e for e in rows(events) if e.p == 1]
        trailing = [e for e in rows(events) if e.p == -1]
        assert {e.x for e in leading} == {9}    # newly covered column: 6..9
        assert {e.x for e in trailing} == {5}   # exposed background column

    def test_clamped_object_stops_emitting(self):
        obj = SceneObject(x0=58.0, y0=10.0, width=6, height=4, vx=1.0, vy=0.0,
                          class_id=1, color=(0.9, 0.9, 0.9))
        events = motion([obj], (64, 64), duration_ms=10)
        assert len(events) == 0  # starts pinned at the right wall

    def test_stamps_fall_inside_window(self):
        obj = SceneObject(10.0, 10.0, 4, 4, 1.0, 0.0, 1, (0.9, 0.9, 0.9))
        events = motion([obj], (64, 64), duration_ms=5)
        assert all(0 <= e.t_us < 5000 for e in rows(events))

    def test_events_match_direct_frame_differencing(self, rng):
        # every emitted event must correspond to a brightness change between
        # the two frames around its step, with matching sign, and every
        # changed pixel must emit exactly one event
        objs = [
            SceneObject(8.0, 12.0, 6, 9, 0.7, -0.4, 1, (0.9, 0.8, 0.7)),
            SceneObject(30.0, 20.0, 10, 5, -0.9, 0.3, 2, (0.1, 0.2, 0.3)),
        ]
        duration = 12
        events = motion(objs, (64, 64), duration)
        by_step = {}
        for e in rows(events):
            step = (e.t_us + 500) // 1000
            by_step.setdefault(step, set()).add((e.y, e.x, e.p))
        for step in range(1, duration + 1):
            prev, cur = (synth.render(objs, t, np.full((64, 64), synth.BACKGROUND),
                                      lambda obj: obj.brightness) for t in (step - 1, step))
            diff = cur - prev
            ys, xs = np.nonzero(diff)
            expected = {(y, x, 1 if diff[y, x] > 0 else -1)
                        for y, x in zip(ys.tolist(), xs.tolist())}
            assert by_step.get(step, set()) == expected


class TestSceneIO:
    def test_save_load_roundtrip(self, tmp_path):
        scene = synth_scene(21, (64, 64), 2, 1.5, 25000)
        save_scene(tmp_path / "scene", scene)
        for name in ("events.csv", "image.eift", "labels.eift", "meta"):
            assert (tmp_path / "scene" / name).exists()
        back = load_scene(tmp_path / "scene")
        assert rows(back.events) == rows(scene.events)
        assert np.array_equal(back.image.data, scene.image.data)
        assert np.array_equal(back.labels.data, scene.labels.data)
        for field in ("height", "width", "seed", "class_count", "n_objects",
                      "noise_rate", "window_us"):
            assert getattr(back, field) == getattr(scene, field), field

    @pytest.mark.parametrize("key", ["height", "width", "classes", "window_us",
                                     "seed", "objects", "noise_rate"])
    def test_missing_meta_key_named(self, tmp_path, key):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))
        meta = tmp_path / "meta"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(f"{ln}\n" for ln in lines
                                if not ln.startswith(f"{key}=")))
        with pytest.raises(SceneFormatError, match=repr(key)):
            load_scene(tmp_path)

    def test_malformed_meta_value_named(self, tmp_path):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))
        meta = tmp_path / "meta"
        meta.write_text(meta.read_text().replace("height=32", "height=3x2"))
        with pytest.raises(SceneFormatError, match="'height'"):
            load_scene(tmp_path)

    @pytest.mark.parametrize("name, shape", [
        ("image.eift", (3, 32, 64)), ("image.eift", (32, 32)),
        ("labels.eift", (32, 64)), ("labels.eift", (1, 32, 32)),
    ])
    def test_tensor_shape_must_fit_meta(self, tmp_path, name, shape):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))
        write_tensor(tmp_path / name, Tensor(np.zeros(shape, dtype=np.float32)))
        with pytest.raises(SceneFormatError, match=f"{name[:-5]} shape"):
            load_scene(tmp_path)

    @pytest.mark.parametrize("bad", [-1.0, 0.5, 1.5, 2.0, 7.0])
    def test_label_must_be_class_id(self, tmp_path, bad):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))  # classes=2
        labels = read_tensor(tmp_path / "labels.eift").data.copy()
        labels[5, 7] = bad
        write_tensor(tmp_path / "labels.eift", Tensor(labels))
        with pytest.raises(SceneFormatError, match=r"class ids in \[0, 2\)"):
            load_scene(tmp_path)

    def test_every_class_id_accepted(self, tmp_path):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))
        labels = np.zeros((32, 32), dtype=np.float32)
        labels[0, :2] = [0.0, 1.0]
        write_tensor(tmp_path / "labels.eift", Tensor(labels))
        assert np.array_equal(load_scene(tmp_path).labels.data, labels)

    def test_save_twice_byte_identical(self, tmp_path):
        scene = synth_scene(4, (64, 64), 2, 1.0, 25000)
        save_scene(tmp_path / "a", scene)
        save_scene(tmp_path / "b", scene)
        for name in ("events.csv", "image.eift", "labels.eift", "meta"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# meta texts: key=value lines (values valid or not, keys repeated or missing)
# mixed with arbitrary text lines
_META_LINE = st.one_of(
    st.builds("{}={}".format, st.sampled_from(sorted(synth._META) + ["extra", ""]),
              st.one_of(st.integers(-5, 10**6).map(str), st.sampled_from([
                  "", "x", "1.5", "1e3", " 7 ", "nan", "-inf", "0x10", "1_0", "\u0661\u0662",
                  "9" * 5000, "=", "3=4",
              ]))),
    st.text(max_size=20),
)
_META_TEXT = st.lists(_META_LINE, max_size=16).map("\n".join)


class TestMetaFuzz:
    def assert_loads_or_format_error(self, path, raw):
        path.write_bytes(raw)
        try:
            meta = synth._read_meta(path)
        except SceneFormatError:
            return
        assert sorted(meta) == sorted(field for field, _ in synth._META.values())
        assert all(type(meta[field]) is kind for field, kind in synth._META.values())

    @settings(max_examples=400, deadline=None)
    @given(_META_TEXT)
    def test_meta_text_loads_or_raises_format_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("meta") / "meta"
        self.assert_loads_or_format_error(path, text.encode("utf-8"))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=96))
    def test_meta_bytes_load_or_raise_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("meta") / "meta"
        self.assert_loads_or_format_error(path, raw)

    def test_saved_meta_loads(self, tmp_path):
        save_scene(tmp_path, synth_scene(4, (32, 32), 1, 0.5, 10000))
        assert synth._read_meta(tmp_path / "meta") == {
            "height": 32, "width": 32, "class_count": 2, "window_us": 10000,
            "seed": 4, "n_objects": 1, "noise_rate": 0.5}

    def test_undecodable_meta_is_format_error(self, tmp_path):
        (tmp_path / "meta").write_bytes(b"height=32\nwidth=\xff\xfe\n")
        with pytest.raises(SceneFormatError, match="not a text file"):
            synth._read_meta(tmp_path / "meta")


# sha256 over each scene's arrays, its saved files and its reloaded meta
# fields, for the benchmark's train and infer scene shapes and one non-square
# size: a change to scene bytes or to the directory format fails here
_GOLDEN_CONFIGS = {
    "train": dict(dims=(64, 64), n_objects=2, noise_rate=0.5, window_us=50_000),
    "infer": dict(dims=(128, 128), n_objects=3, noise_rate=2.0, window_us=50_000),
    "wide": dict(dims=(32, 96), n_objects=2, noise_rate=1.0, window_us=30_000),
}
_GOLDEN_SEEDS = (0, 1, 2)
_GOLDEN = {
    "infer": ["04ab4c0cb3fdc0cb0c6b8edfb156910f5272881a293f1400efa8ee1c5e703063",
              "d64b1e7d9c3e4cadb66568d6d63d27ccb4133379e421373856b37e5c9c9c2e13",
              "ad9353fa3afce25ebf08fa235db936680b98eed8b751547c009daa396a916e37"],
    "train": ["aa6cc49abb8dc780bbd5ed5151d38d356f933516d3c2ce72a8a6bfa747b90278",
              "5d3c52d9fe13c39321fa516e9e921cc1bc984933904b2aa441d97fc815caee2c",
              "3e470497009420b07343f5d7dd88d4da3d21dc14d8db5ac4731a3895097c6fe9"],
    "wide": ["f75f46723ce7f7f88766da7902fc2a0e44a8bd9d732c44e5268a999e43f2fe32",
             "164491c1601fad11d2069a33e5572738f102ea11e2bc044e87d7914b73af6180",
             "aa6134a82e56abb24a80b76915c682f3ed1815b5a18a474d5a7c06526524162c"],
}


def _scene_digest(scene, directory):
    h = hashlib.sha256()
    for arr in (scene.image.data, scene.labels.data, scene.events.t_us,
                scene.events.x, scene.events.y, scene.events.p):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    save_scene(directory, scene)
    for name in ("events.csv", "image.eift", "labels.eift", "meta"):
        h.update((directory / name).read_bytes())
    back = load_scene(directory)
    h.update(repr([back.height, back.width, back.seed, back.class_count,
                   back.n_objects, back.noise_rate, back.window_us]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_golden_scene_digests(tmp_path, name):
    digests = [_scene_digest(synth_scene(seed, **_GOLDEN_CONFIGS[name]), tmp_path / str(seed))
               for seed in _GOLDEN_SEEDS]
    assert digests == _GOLDEN[name]
