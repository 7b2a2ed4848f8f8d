"""Event-image fusion segmentation at desk scale.

Everything runs on a small numpy-backed tensor core with its own
reverse-mode differentiation tape, so each stage of the pipeline is
verifiable against finite differences. See the README for the CLI and
for the names re-exported here; every other name stays in its module.
"""

from .encoding import encode
from .events import EventParseError, parse_events, window
from .gradcheck import check_param
from .network import ConfigError, Model, NetworkConfig, TrainingDiverged, loss_ce, train_toy
from .params import make_rng
from .synth import SceneFormatError, synth_scene
from .tensor import NonFiniteError, ShapeError, Tape, TapeConsumedError, Tensor
from .tensorio import TensorFormatError

__version__ = "0.1.0"
