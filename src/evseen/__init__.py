"""Event-assisted brightness adjustment toolkit.

Submodules: ``imaging`` (formation model and exposure predicates), ``events``
(trigger simulation, voxel grids, positional features), ``imu`` (temporal
registration), ``align`` (spatial alignment metric), ``autodiff`` (tensor
engine), ``seenet`` (the enhancement network), ``pairing`` (scene pairing and
synthesis), ``formats`` (file formats), ``cli`` (command line).
"""

from .autodiff import Tensor
from .bayer import BayerOrder, bayer_index
from .events import EventStream, VoxelGrid, position_embedding, simulate_events, voxelize
from .imaging import (
    NoiseModel,
    RadianceField,
    RawImage,
    RgbImage,
    apply_isp,
    brightness,
    color_neutrality,
    exposure_ok,
    render_raw,
)
from .imu import ImuSequence, KalmanParams, Registration, kalman_denoise, register, register_exhaustive
from .pairing import PairSet, SceneRecording, classify_lighting, enumerate_pairs, synth_scene
from .seenet import (
    BrightnessPrompt,
    SeeNetConfig,
    SeeNetParams,
    forward,
    init_params,
    parameter_count,
    train_toy,
)

__version__ = "0.1.0"
