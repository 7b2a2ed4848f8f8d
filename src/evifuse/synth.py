"""Synthetic moving-rectangle scenes with matching event streams.

Rectangles with per-class colors drift over a gray background at constant
velocity. The scene is rasterized once per millisecond; any pixel whose
brightness changes between consecutive frames emits one event (positive
when brightening, negative when darkening), stamped at the step midpoint
so every event falls strictly inside the generation window. Uniform noise
events are mixed in at a fixed rate. Everything is a pure function of the
seed. One painter, ``render``, draws the brightness frames, the color image
and the labels; one table, ``_META``, maps each meta-file key to its scene
field and type for saving and loading.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .events import Events, parse_events, serialize_events
from .tensor import Tensor
from .tensorio import read_tensor, write_tensor

BACKGROUND = 0.5
MIN_CONTRAST = 0.1  # object brightness must differ from background
MAX_SPEED = 0.4  # bound on each velocity component, px per ms


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
    events: Events
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


def render(objects, t_ms, frame, value):
    """Paint ``value(obj)`` over each object's rectangle at time t, later objects
    on top, into the caller's frame (``[..., H, W]``); returns the frame."""
    for obj in objects:
        r, c = object_origin(obj, t_ms, frame.shape[-2:])
        frame[..., r : r + obj.height, c : c + obj.width] = value(obj)
    return frame


def motion_events(objects, dims, duration_ms):
    """Frame-difference event columns (t_us, x, y, p), one pass per millisecond step."""
    steps = [(np.zeros(0, dtype=np.int64),) * 4]
    frames = (render(objects, t, np.full(dims, BACKGROUND), lambda obj: obj.brightness)
              for t in range(duration_ms + 1))
    prev = next(frames)
    for t, cur in enumerate(frames, 1):
        diff = cur - prev
        ys, xs = np.nonzero(diff)
        t_us = t * 1000 - 500  # step midpoint keeps stamps inside the window
        steps.append((np.full(len(ys), t_us), xs, ys, np.where(diff[ys, xs] > 0, 1, -1)))
        prev = cur
    return tuple(np.concatenate(col) for col in zip(*steps))


def synth_scene(seed, dims, n_objects, noise_rate, window_us):
    """Deterministic scene: rectangles, final-time image/labels, event stream.

    noise_rate is in events per millisecond.
    """
    h, w = _validate_dims(dims)
    if n_objects < 1:
        raise ValueError("need at least one object")
    if window_us < 1000:
        raise ValueError("window must cover at least one millisecond")
    if not 0 <= noise_rate < np.inf:
        raise ValueError(f"noise_rate must be finite and >= 0, got {noise_rate}")
    rng = np.random.default_rng(seed)
    duration_ms = window_us // 1000

    objects = []
    for k in range(n_objects):
        oh = int(rng.integers(max(4, h // 5), h // 3 + 1))
        ow = int(rng.integers(max(4, w // 5), w // 3 + 1))
        y0 = float(rng.integers(0, h - oh + 1))
        x0 = float(rng.integers(0, w - ow + 1))
        vx = float(rng.uniform(-MAX_SPEED, MAX_SPEED))
        vy = float(rng.uniform(-MAX_SPEED, MAX_SPEED))
        while True:
            color = rng.uniform(0.05, 0.95, size=3)
            if abs(color.mean() - BACKGROUND) >= MIN_CONTRAST:
                break
        objects.append(
            SceneObject(x0, y0, ow, oh, vx, vy, class_id=k + 1, color=tuple(color))
        )

    motion = motion_events(objects, (h, w), duration_ms)
    n_noise = int(round(noise_rate * duration_ms))
    noise = (rng.integers(0, window_us, size=n_noise), rng.integers(0, w, size=n_noise),
             rng.integers(0, h, size=n_noise), rng.choice(np.array([-1, 1]), size=n_noise))
    events = Events(*(np.concatenate(pair) for pair in zip(motion, noise)))

    # float32 frames: class ids are exact, colors round as a float64 frame's cast would
    image = render(objects, duration_ms, np.full((3, h, w), BACKGROUND, np.float32),
                   lambda obj: np.reshape(obj.color, (3, 1, 1)))
    labels = render(objects, duration_ms, np.zeros((h, w), np.float32),
                    lambda obj: obj.class_id)
    return SyntheticScene(
        events=events,
        image=Tensor(image),
        labels=Tensor(labels),
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


class SceneFormatError(ValueError):
    """A meta key is missing or malformed, or the image or labels do not fit the meta."""


# meta key -> (SyntheticScene field, type), in the order the meta file lists them
_META = {
    "height": ("height", int), "width": ("width", int), "seed": ("seed", int),
    "classes": ("class_count", int), "objects": ("n_objects", int),
    "noise_rate": ("noise_rate", float), "window_us": ("window_us", int),
}


def save_scene(directory, scene):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "events.csv"), "w") as fh:
        fh.write(serialize_events(scene.events))
    write_tensor(os.path.join(directory, "image.eift"), scene.image)
    write_tensor(os.path.join(directory, "labels.eift"), scene.labels)
    with open(os.path.join(directory, "meta"), "w") as fh:
        fh.writelines(f"{key}={getattr(scene, field)}\n" for key, (field, _) in _META.items())


def _read_meta(path):
    """SyntheticScene field values parsed from a meta file; errors name the meta key."""
    try:
        with open(path, encoding="utf-8") as fh:
            pairs = (line.strip().partition("=") for line in fh if line.strip())
            raw = {key: value for key, _, value in pairs}
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: not a text file ({exc.reason})") from None
    fields = {}
    for key, (field, kind) in _META.items():
        if key not in raw:
            raise SceneFormatError(f"{path}: missing key {key!r}")
        try:
            fields[field] = kind(raw[key])
        except ValueError:
            raise SceneFormatError(
                f"{path}: key {key!r} has malformed value {raw[key]!r}") from None
    return fields


def load_scene(directory):
    meta = _read_meta(os.path.join(directory, "meta"))
    height, width, classes = meta["height"], meta["width"], meta["class_count"]
    with open(os.path.join(directory, "events.csv")) as fh:
        events = parse_events(fh, (height, width))
    image = read_tensor(os.path.join(directory, "image.eift"))
    labels = read_tensor(os.path.join(directory, "labels.eift"))
    for name, t, shape in (("image", image, (3, height, width)),
                           ("labels", labels, (height, width))):
        if t.shape != shape:
            raise SceneFormatError(f"{directory}: {name} shape {t.shape} is not {shape}")
    ids = labels.data
    if not ((ids == np.floor(ids)) & (ids >= 0) & (ids < classes)).all():
        raise SceneFormatError(f"{directory}: labels are not class ids in [0, {classes})")
    return SyntheticScene(events=events, image=image, labels=labels, **meta)
