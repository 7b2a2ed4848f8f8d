"""Synthetic moving-rectangle scenes with matching event streams.

Rectangles with per-class colors drift over a gray background at constant
velocity. The scene is rasterized once per millisecond; any pixel whose
brightness changes between consecutive frames emits one event (positive
when brightening, negative when darkening), stamped at the step midpoint
so every event falls strictly inside the generation window. Uniform noise
events are mixed in at a fixed rate. Everything is a pure function of the
seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .events import Event, parse_events, serialize_events
from .tensor import Tensor
from .tensorio import read_tensor, write_tensor

BACKGROUND = 0.5
MIN_CONTRAST = 0.1  # object brightness must differ from background


@dataclass(frozen=True)
class SceneObject:
    x0: float
    y0: float
    width: int
    height: int
    vx: float  # px per ms
    vy: float
    class_id: int
    color: tuple  # rgb in [0,1]

    @property
    def brightness(self):
        return float(np.mean(self.color))


@dataclass
class SyntheticScene:
    events: list
    image: Tensor  # [3, H, W]
    labels: Tensor  # [H, W] class ids, background 0
    class_count: int
    height: int
    width: int
    window_us: int
    seed: int
    n_objects: int
    noise_rate: float


def _validate_dims(dims):
    h, w = dims
    if h < 32 or w < 32 or h % 32 or w % 32:
        raise ValueError(f"dims {h}x{w} must be >= 32 and divisible by 32")
    return h, w


def object_origin(obj, t_ms, dims):
    """Integer top-left corner at time t, clamped so the rect stays in frame."""
    h, w = dims
    x = min(max(obj.x0 + obj.vx * t_ms, 0.0), w - obj.width)
    y = min(max(obj.y0 + obj.vy * t_ms, 0.0), h - obj.height)
    return int(np.floor(y + 0.5)), int(np.floor(x + 0.5))

def render_brightness(objects, t_ms, dims):
    h, w = dims
    frame = np.full((h, w), BACKGROUND, dtype=np.float64)
    for obj in objects:
        r, c = object_origin(obj, t_ms, dims)
        frame[r : r + obj.height, c : c + obj.width] = obj.brightness
    return frame


def render_color(objects, t_ms, dims):
    h, w = dims
    frame = np.full((3, h, w), BACKGROUND, dtype=np.float64)
    for obj in objects:
        r, c = object_origin(obj, t_ms, dims)
        for ch in range(3):
            frame[ch, r : r + obj.height, c : c + obj.width] = obj.color[ch]
    return frame


def render_labels(objects, t_ms, dims):
    h, w = dims
    labels = np.zeros((h, w), dtype=np.int64)
    for obj in objects:
        r, c = object_origin(obj, t_ms, dims)
        labels[r : r + obj.height, c : c + obj.width] = obj.class_id
    return labels


def motion_events(objects, dims, duration_ms):
    """Frame-difference events, one pass per integer millisecond step."""
    events = []
    prev = render_brightness(objects, 0, dims)
    for t in range(1, duration_ms + 1):
        cur = render_brightness(objects, t, dims)
        diff = cur - prev
        ys, xs = np.nonzero(diff)
        t_us = t * 1000 - 500  # step midpoint keeps stamps inside the window
        for y, x in zip(ys.tolist(), xs.tolist()):
            events.append(Event(t_us, x, y, 1 if diff[y, x] > 0 else -1))
        prev = cur
    return events


def synth_scene(seed, dims, n_objects, noise_rate, window_us, max_speed=0.4):
    """Deterministic scene: rectangles, final-time image/labels, event stream.

    noise_rate is in events per millisecond; max_speed bounds each velocity
    component in px/ms (0 freezes all objects).
    """
    h, w = _validate_dims(dims)
    if n_objects < 1:
        raise ValueError("need at least one object")
    if window_us < 1000:
        raise ValueError("window must cover at least one millisecond")
    rng = np.random.default_rng(seed)
    duration_ms = window_us // 1000

    objects = []
    for k in range(n_objects):
        oh = int(rng.integers(max(4, h // 5), h // 3 + 1))
        ow = int(rng.integers(max(4, w // 5), w // 3 + 1))
        y0 = float(rng.integers(0, h - oh + 1))
        x0 = float(rng.integers(0, w - ow + 1))
        vx = float(rng.uniform(-max_speed, max_speed))
        vy = float(rng.uniform(-max_speed, max_speed))
        while True:
            color = rng.uniform(0.05, 0.95, size=3)
            if abs(color.mean() - BACKGROUND) >= MIN_CONTRAST:
                break
        objects.append(
            SceneObject(x0, y0, ow, oh, vx, vy, class_id=k + 1, color=tuple(color))
        )

    events = motion_events(objects, (h, w), duration_ms)

    n_noise = int(round(noise_rate * duration_ms))
    if n_noise:
        ts = rng.integers(0, window_us, size=n_noise)
        xs = rng.integers(0, w, size=n_noise)
        ys = rng.integers(0, h, size=n_noise)
        ps = rng.choice(np.array([-1, 1]), size=n_noise)
        events.extend(
            Event(int(t), int(x), int(y), int(p))
            for t, x, y, p in zip(ts, xs, ys, ps)
        )
    events.sort(key=lambda e: e.t_us)

    final = duration_ms
    return SyntheticScene(
        events=events,
        image=Tensor(render_color(objects, final, (h, w)).astype(np.float32)),
        labels=Tensor(render_labels(objects, final, (h, w)).astype(np.float32)),
        class_count=n_objects + 1,
        height=h,
        width=w,
        window_us=window_us,
        seed=seed,
        n_objects=n_objects,
        noise_rate=noise_rate,
    )


# ---------------------------------------------------------------------------
# scene directory IO: events.csv, image.eift, labels.eift, meta


def save_scene(directory, scene):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "events.csv"), "w") as fh:
        fh.write(serialize_events(scene.events))
    write_tensor(os.path.join(directory, "image.eift"), scene.image)
    write_tensor(os.path.join(directory, "labels.eift"), scene.labels)
    meta = {
        "height": scene.height,
        "width": scene.width,
        "seed": scene.seed,
        "classes": scene.class_count,
        "objects": scene.n_objects,
        "noise_rate": scene.noise_rate,
        "window_us": scene.window_us,
    }
    with open(os.path.join(directory, "meta"), "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


class SceneFormatError(ValueError):
    """A scene directory's meta file lacks a key or holds a malformed value."""


_META_TYPES = {
    "height": int, "width": int, "classes": int, "window_us": int,
    "seed": int, "objects": int, "noise_rate": float,
}


def _read_meta(path):
    raw = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            raw[key] = value
    meta = {}
    for key, kind in _META_TYPES.items():
        if key not in raw:
            raise SceneFormatError(f"{path}: missing key {key!r}")
        try:
            meta[key] = kind(raw[key])
        except ValueError:
            raise SceneFormatError(
                f"{path}: key {key!r} has malformed value {raw[key]!r}") from None
    return meta


def load_scene(directory):
    meta = _read_meta(os.path.join(directory, "meta"))
    height, width = meta["height"], meta["width"]
    with open(os.path.join(directory, "events.csv")) as fh:
        events = parse_events(fh, (height, width))
    return SyntheticScene(
        events=events,
        image=read_tensor(os.path.join(directory, "image.eift")),
        labels=read_tensor(os.path.join(directory, "labels.eift")),
        class_count=meta["classes"],
        height=height,
        width=width,
        window_us=meta["window_us"],
        seed=meta["seed"],
        n_objects=meta["objects"],
        noise_rate=meta["noise_rate"],
    )
