"""Four-stage dual-branch segmentation network and toy trainer.

Both branches are small convolutional stub encoders with the standard
stage geometry (1/4, 1/8, 1/16, 1/32 of the input resolution). At each
stage the event features are projected to the image width, recalibrated,
fused, and the four fused maps are aggregated by a lightweight decoder
into full-resolution class logits. Training is plain gradient descent on
a single synthetic scene; the point is a testable end-to-end gradient
path, not speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import ops
from .encoding import encode
from .events import window
from .fusion import fusion_forward, init_fusion_params
from .params import Norm, ParamStore, Weights, conv_params, make_rng, norm_params
from .recalibrate import init_recal_params, recalibrate
from .refine import init_refine_params, refine_forward
from .tensor import ShapeError, Tape, Tensor, concat, reshape

STAGES = 4


class ConfigError(ValueError):
    """Invalid or inconsistent network configuration."""


class TrainingDiverged(RuntimeError):
    def __init__(self, step):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


def _is_int(value):
    # bool subclasses int, but true/false is never a size or a count
    return isinstance(value, int) and not isinstance(value, bool)


def _stage_ints(value):
    return (isinstance(value, (list, tuple)) and len(value) == STAGES
            and all(_is_int(v) and v >= 1 for v in value))


@dataclass
class NetworkConfig:
    height: int = 64
    width: int = 64
    classes: int = 3
    image_widths: list = field(default_factory=lambda: [16, 32, 48, 64])
    event_widths: list = None  # default: image widths halved, rounded up
    heads: list = field(default_factory=lambda: [2, 2, 2, 2])
    reduction: int = 2
    decoder_width: int = 32
    refine_width: int = 8
    seed: int = 1
    bins: int = 3
    window_us: int = 50000
    use_aefrm: bool = True
    use_marm: bool = True
    use_mgfm: bool = True

    def __post_init__(self):
        # a malformed image_widths is left for validate() to report
        if self.event_widths is None and _stage_ints(self.image_widths):
            self.event_widths = [(c + 1) // 2 for c in self.image_widths]
        self.validate()

    def validate(self):
        # the annotations are the schema: no value is coerced to its type
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
            if f.type == "list" and not _stage_ints(value):
                raise ConfigError(f"{f.name} needs {STAGES} positive integers, got {value!r}")
        if self.height % 32 or self.width % 32 or self.height < 32 or self.width < 32:
            raise ConfigError(f"dims {self.height}x{self.width} must be divisible by 32")
        for c, h in zip(self.image_widths, self.heads):
            if c % h:
                raise ConfigError(f"stage width {c} not divisible by head count {h}")
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        for name in ("reduction", "decoder_width", "refine_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # mgfm pools the 1/32 stage by the reduction ratio
        if self.use_mgfm and ((self.height // 32) % self.reduction
                              or (self.width // 32) % self.reduction):
            raise ConfigError(f"dims {self.height}x{self.width} give a 1/32 stage "
                              f"not divisible by reduction {self.reduction}")
        if self.bins < 1 or self.window_us < 1:
            raise ConfigError("encoding needs bins >= 1 and a positive window")


_TOP_KEYS = {
    "height", "width", "classes", "image_widths", "event_widths", "heads",
    "reduction", "decoder_width", "refine_width", "seed", "toggles", "encoding",
}
_TOGGLE_KEYS = {"aefrm", "marm", "mgfm"}
_ENCODING_KEYS = {"bins", "window_us"}


def _section(raw, key, allowed):
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object, got {section!r}")
    if set(section) - allowed:
        raise ConfigError(f"unknown {key} keys: {sorted(set(section) - allowed)}")
    return section


def config_from_dict(raw):
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k not in ("toggles", "encoding")}
    kwargs.update((f"use_{k}", v) for k, v in _section(raw, "toggles", _TOGGLE_KEYS).items())
    kwargs.update(_section(raw, "encoding", _ENCODING_KEYS))
    return NetworkConfig(**kwargs)


def load_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# stub encoders and decoder


def init_encoder_params(store, rng, in_channels, widths, prefix):
    """[(conv, bn)] per stage, registered as prefix.s{s} / prefix.s{s}_bn."""
    convs = []
    prev = in_channels
    for s, width in enumerate(widths):
        kernel = 7 if s == 0 else 3
        convs.append((
            conv_params(store, f"{prefix}.s{s}", rng, width, prev, kernel, kernel, bias=False),
            norm_params(store, f"{prefix}.s{s}_bn", width),
        ))
        prev = width
    return convs


def encode_stages(x, convs):
    """Stage pyramid: 7x7 stride-4 stem, then three 3x3 stride-2 blocks."""
    feats = []
    cur = x
    for s, (conv, bn) in enumerate(convs):
        stride, pad = (4, 3) if s == 0 else (2, 1)
        cur = ops.relu(ops.batchnorm2d(ops.conv2d(cur, *conv, stride=stride, pad=pad), *bn))
        feats.append(cur)
    return feats


@dataclass
class DecoderParams:
    proj: list  # [Weights] per stage
    fuse: Weights
    fuse_bn: Norm
    cls: Weights


def init_decoder_params(store, rng, stage_widths, decoder_width, classes, prefix="decoder"):
    return DecoderParams(
        proj=[conv_params(store, f"{prefix}.proj{s}", rng, decoder_width, c, 1, 1)
              for s, c in enumerate(stage_widths)],
        fuse=conv_params(store, f"{prefix}.fuse", rng, decoder_width,
                         STAGES * decoder_width, 1, 1, bias=False),
        fuse_bn=norm_params(store, f"{prefix}.fuse_bn", decoder_width),
        cls=conv_params(store, f"{prefix}.cls", rng, classes, decoder_width, 1, 1),
    )


def decode(stages, p, out_hw):
    """Project every stage to a common width on the stage-1 grid, fuse, classify."""
    if len(stages) != STAGES:
        raise ShapeError(f"decoder expects {STAGES} stage tensors")
    grid = stages[0].shape[2:]
    lifted = [
        ops.resample(ops.conv2d(feat, *proj), grid)
        for feat, proj in zip(stages, p.proj)
    ]
    merged = ops.relu(ops.batchnorm2d(
        ops.conv2d(concat(lifted, axis=1), *p.fuse), *p.fuse_bn))
    logits = ops.conv2d(merged, *p.cls)
    return ops.resample(logits, out_hw)


# ---------------------------------------------------------------------------
# full model


class Model:
    """All parameter groups plus the stage-wise forward dataflow."""

    def __init__(self, cfg, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = dtype
        self.store = ParamStore()
        rng = make_rng(cfg.seed)
        self.refine = init_refine_params(self.store, rng, cfg.refine_width)
        self.event_enc = init_encoder_params(self.store, rng, cfg.bins, cfg.event_widths,
                                             "event_enc")
        self.image_enc = init_encoder_params(self.store, rng, 3, cfg.image_widths, "image_enc")
        self.project = [
            conv_params(self.store, f"project.s{s}", rng,
                        cfg.image_widths[s], cfg.event_widths[s], 1, 1)
            for s in range(STAGES)
        ]
        self.recal = [
            init_recal_params(self.store, rng, cfg.image_widths[s], cfg.image_widths[s],
                              prefix=f"marm.s{s}")
            for s in range(STAGES)
        ]
        self.fusion = [
            init_fusion_params(self.store, rng, cfg.image_widths[s], cfg.heads[s],
                               cfg.reduction, prefix=f"mgfm.s{s}")
            for s in range(STAGES)
        ]
        self.decoder = init_decoder_params(
            self.store, rng, cfg.image_widths, cfg.decoder_width, cfg.classes)
        # parameters are drawn in float64; one cast gives the model's dtype
        for _, t in self.store.items():
            t.data = t.data.astype(dtype, copy=False)

    def forward(self, image, e_vt, a_cm):
        """[B,3,H,W] + [B,bins,H,W] tensors of the model's dtype -> [B,classes,H,W] logits."""
        cfg = self.cfg
        if image.shape[2:] != (cfg.height, cfg.width):
            raise ShapeError(f"image dims {image.shape[2:]} != config "
                             f"{(cfg.height, cfg.width)}")
        if e_vt.shape != a_cm.shape or e_vt.shape[1] != cfg.bins:
            raise ShapeError("event tensors must agree and match config bins")
        if image.shape[0] != e_vt.shape[0]:
            raise ShapeError(f"image batch {image.shape[0]} != event batch {e_vt.shape[0]}")
        for t in (image, e_vt, a_cm):
            if t.dtype != self.dtype:
                raise ValueError(f"input dtype {t.dtype} != model dtype {np.dtype(self.dtype)}")
        refined = refine_forward(e_vt, a_cm, self.refine) if cfg.use_aefrm else e_vt
        e_stages = encode_stages(refined, self.event_enc)
        i_stages = encode_stages(image, self.image_enc)
        fused = []
        for s in range(STAGES):
            ev = ops.conv2d(e_stages[s], *self.project[s])
            im = i_stages[s]
            if cfg.use_marm:
                ev, im = recalibrate(ev, im, self.recal[s])
            if cfg.use_mgfm:
                fused.append(fusion_forward(ev, im, self.fusion[s]))
            else:
                fused.append((ev + im) * 0.5)
        return decode(fused, self.decoder, (cfg.height, cfg.width))

    def forward_encoded(self, image, encoded):
        """Forward of a [3,H,W] image and an EncodedEvents pair; adds the batch axis."""
        return self.forward(*(reshape(t, (1, *t.shape))
                              for t in (image, encoded.e_vt, encoded.a_cm)))


def loss_ce(logits, labels):
    return ops.cross_entropy(logits, labels)


def metrics(pred, gt, classes):
    """(mIoU, PA); IoU averaged over classes present in prediction or truth."""
    p = np.rint(np.asarray(pred.data if isinstance(pred, Tensor) else pred)).astype(np.int64)
    g = np.rint(np.asarray(gt.data if isinstance(gt, Tensor) else gt)).astype(np.int64)
    if p.shape != g.shape:
        raise ShapeError(f"prediction shape {p.shape} != ground truth {g.shape}")
    pa = float((p == g).mean())
    ious = []
    for c in range(classes):
        inter = int(((p == c) & (g == c)).sum())
        union = int(((p == c) | (g == c)).sum())
        if union:
            ious.append(inter / union)
    miou = float(np.mean(ious)) if ious else 0.0
    return miou, pa


def predict(model, image, encoded):
    """Class map [H,W] from a no-tape forward."""
    logits = model.forward_encoded(image, encoded)
    return logits.data[0].argmax(axis=0)


def check_scene(scene, cfg):
    """Raise ConfigError unless the configured network can take the scene."""
    if (scene.height, scene.width) != (cfg.height, cfg.width):
        raise ConfigError(
            f"scene dims {scene.height}x{scene.width} != config "
            f"{cfg.height}x{cfg.width}")
    if scene.class_count > cfg.classes:
        raise ConfigError(
            f"scene has {scene.class_count} classes, config only {cfg.classes}")


def encode_scene(scene, cfg):
    win = window(scene.events, scene.window_us, cfg.window_us,
                 (scene.height, scene.width))
    return encode(win, cfg.bins)


def train_toy(scene, cfg, steps, lr):
    """Overfit one scene with plain gradient descent.

    Returns (model, per-step losses, final mIoU, final PA). A non-finite
    loss aborts with TrainingDiverged carrying the failing step index.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_scene(scene, cfg)
    model = Model(cfg)
    encoded = encode_scene(scene, cfg)
    history = []
    for step in range(steps):
        try:
            with Tape() as tape:
                logits = model.forward_encoded(scene.image, encoded)
                loss = ops.cross_entropy(logits, scene.labels)
            history.append(loss.item())
            for t, g in tape.backward(loss).items():
                t.data = t.data - lr * g
        except ArithmeticError as exc:
            raise TrainingDiverged(step) from exc
    pred = predict(model, scene.image, encoded)
    miou, pa = metrics(pred, scene.labels, cfg.classes)
    return model, history, miou, pa
