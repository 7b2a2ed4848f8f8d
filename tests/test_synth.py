"""Synthetic scene generator: determinism, event physics, directory IO."""

import numpy as np
import pytest

from evifuse.events import serialize_events
from evifuse.synth import (
    SceneFormatError, SceneObject, load_scene, motion_events, save_scene,
    synth_scene,
)


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
        scene = synth_scene(5, (64, 64), 3, noise_rate=0.0, window_us=20000,
                            max_speed=0.0)
        assert scene.events == []

    def test_noise_count_matches_rate(self):
        scene = synth_scene(5, (64, 64), 1, noise_rate=2.0, window_us=20000,
                            max_speed=0.0)
        assert len(scene.events) == 40  # 2 events/ms * 20 ms

    def test_labels_and_image_ranges(self):
        scene = synth_scene(9, (64, 96), 3, 1.0, 30000)
        labels = scene.labels.data
        assert labels.min() >= 0 and labels.max() < scene.class_count
        assert scene.image.shape == (3, 64, 96)
        assert 0.0 <= scene.image.data.min() and scene.image.data.max() <= 1.0
        assert scene.class_count == 4

    def test_events_inside_bounds_and_window(self):
        scene = synth_scene(11, (64, 64), 2, 3.0, 40000)
        for e in scene.events:
            assert 0 <= e.x < 64 and 0 <= e.y < 64
            assert 0 <= e.t_us < 40000
            assert e.p in (-1, 1)

    def test_events_sorted(self):
        scene = synth_scene(13, (64, 64), 2, 3.0, 40000)
        stamps = [e.t_us for e in scene.events]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("dims", [(60, 60), (31, 32), (32, 33)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            synth_scene(1, dims, 1, 0.0, 20000)

    def test_needs_an_object(self):
        with pytest.raises(ValueError):
            synth_scene(1, (32, 32), 0, 0.0, 20000)


class TestMotionEvents:
    def test_rightward_rectangle_closed_form(self):
        # brightness 0.9 rect on 0.5 background, 1 px/ms for 10 ms, far from
        # walls: each step exposes one column and covers another
        obj = SceneObject(x0=10.0, y0=20.0, width=6, height=8, vx=1.0, vy=0.0,
                          class_id=1, color=(0.9, 0.9, 0.9))
        events = motion_events([obj], (64, 64), duration_ms=10)
        assert len(events) == 2 * obj.height * 10
        pos = sum(1 for e in events if e.p == 1)
        neg = sum(1 for e in events if e.p == -1)
        assert pos == neg == obj.height * 10

    def test_polarity_sign_matches_brightness_change(self):
        bright = SceneObject(5.0, 5.0, 4, 4, 1.0, 0.0, 1, (0.9, 0.9, 0.9))
        events = motion_events([bright], (64, 64), duration_ms=1)
        leading = [e for e in events if e.p == 1]
        trailing = [e for e in events if e.p == -1]
        assert {e.x for e in leading} == {9}    # newly covered column: 6..9
        assert {e.x for e in trailing} == {5}   # exposed background column

    def test_clamped_object_stops_emitting(self):
        obj = SceneObject(x0=58.0, y0=10.0, width=6, height=4, vx=1.0, vy=0.0,
                          class_id=1, color=(0.9, 0.9, 0.9))
        events = motion_events([obj], (64, 64), duration_ms=10)
        assert events == []  # starts pinned at the right wall

    def test_stamps_fall_inside_window(self):
        obj = SceneObject(10.0, 10.0, 4, 4, 1.0, 0.0, 1, (0.9, 0.9, 0.9))
        events = motion_events([obj], (64, 64), duration_ms=5)
        assert all(0 <= e.t_us < 5000 for e in events)

    def test_events_match_direct_frame_differencing(self, rng):
        # every emitted event must correspond to a brightness change between
        # the two frames around its step, with matching sign, and every
        # changed pixel must emit exactly one event
        from evifuse.synth import render_brightness

        objs = [
            SceneObject(8.0, 12.0, 6, 9, 0.7, -0.4, 1, (0.9, 0.8, 0.7)),
            SceneObject(30.0, 20.0, 10, 5, -0.9, 0.3, 2, (0.1, 0.2, 0.3)),
        ]
        duration = 12
        events = motion_events(objs, (64, 64), duration)
        by_step = {}
        for e in events:
            step = (e.t_us + 500) // 1000
            by_step.setdefault(step, set()).add((e.y, e.x, e.p))
        for step in range(1, duration + 1):
            prev = render_brightness(objs, step - 1, (64, 64))
            cur = render_brightness(objs, step, (64, 64))
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
        assert back.events == scene.events
        assert np.array_equal(back.image.data, scene.image.data)
        assert np.array_equal(back.labels.data, scene.labels.data)
        assert back.class_count == scene.class_count
        assert back.window_us == scene.window_us

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

    def test_save_twice_byte_identical(self, tmp_path):
        scene = synth_scene(4, (64, 64), 2, 1.0, 25000)
        save_scene(tmp_path / "a", scene)
        save_scene(tmp_path / "b", scene)
        for name in ("events.csv", "image.eift", "labels.eift", "meta"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
