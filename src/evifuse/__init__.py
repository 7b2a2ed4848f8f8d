"""Event-image fusion segmentation at desk scale.

Everything runs on a small numpy-backed tensor core with its own
reverse-mode differentiation tape, so each stage of the pipeline is
verifiable against finite differences. See the README for the CLI.
"""

from .encoding import EncodedEvents, encode
from .events import EventParseError, Events, EventWindow, parse_events, serialize_events, window
from .fusion import (
    FusionParams, differential_attention, efficient_cross_attention,
    enhance, fuse, fusion_forward, gate, init_fusion_params,
)
from .gradcheck import check_input, check_param
from .network import (
    ConfigError, Model, NetworkConfig, TrainingDiverged, config_from_dict,
    decode, encode_stages, load_config, loss_ce, metrics, predict, train_toy,
)
from .params import ParamStore, make_rng
from .recalibrate import (
    RecalParams, channel_recalibrate, init_recal_params, recalibrate,
    spatial_masks, spatial_stats,
)
from .refine import (
    RefineParams, attention_mask, build_activity_pyramid, channel_weights,
    init_refine_params, refine, refine_forward,
)
from .synth import (
    SceneFormatError, SceneObject, SyntheticScene, load_scene, save_scene, synth_scene,
)
from .tensor import NonFiniteError, ShapeError, Tape, TapeConsumedError, Tensor
from .tensorio import TensorFormatError, read_tensor, write_tensor

__version__ = "0.1.0"
