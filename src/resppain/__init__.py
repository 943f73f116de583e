"""Respiration-based pain-level classification.

Pipeline: band-pass filtering and fixed-length padding, multi-window
segmentation, a cross-attention latent encoder shared across views,
three-way representation fusion with a learned hard route gate, and a
deterministic training loop with signal-level augmentations.
"""

from . import augment, cost, encoder, fusion, numerics, signal, training
from .augment import AugmentConfig
from .encoder import EncoderConfig, encode
from .fusion import DEFAULT_VARIANT, VARIANTS, classify, fuse_windows
from .signal import (
    N_CLASSES,
    DataError,
    PainLabel,
    PreprocessConfig,
    RespirationRecord,
    load_dataset,
    synth_dataset,
)
from .training import TrainConfig, evaluate, load_pipeline, train

__version__ = "0.1.0"

__all__ = [
    "augment", "cost", "encoder", "fusion", "numerics", "signal", "training",
    "AugmentConfig", "EncoderConfig", "encode",
    "DEFAULT_VARIANT", "VARIANTS", "classify", "fuse_windows",
    "N_CLASSES", "DataError", "PainLabel", "PreprocessConfig", "RespirationRecord",
    "load_dataset", "synth_dataset",
    "TrainConfig", "evaluate", "load_pipeline", "train",
    "__version__",
]
