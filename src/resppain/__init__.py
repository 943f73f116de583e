"""Respiration-based pain-level classification.

Pipeline: band-pass filtering and fixed-length padding, multi-window
segmentation, a cross-attention latent encoder shared across views,
three-way representation fusion with a learned hard route gate, and a
deterministic training loop with signal-level augmentations.  Callers
import the submodule that holds what they use.
"""

from . import augment, cost, encoder, fusion, numerics, signal, training

__version__ = "0.1.0"
