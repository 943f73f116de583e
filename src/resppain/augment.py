"""Training-time signal augmentation.

Three transforms applied to the full-length signal before any filtering
or windowing, always in the order polarity -> noise -> masking.  Each is
gated independently per sample: an activation probability is drawn
uniformly from its configured range, then a Bernoulli trial with that
probability decides whether the transform runs.  Stacking is free -- any
subset can fire on one signal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import signal as sig

logger = logging.getLogger(__name__)

# SNR for additive noise is drawn as U(0.001*k, 0.005*k) with k ~ U(1, 1000),
# interpreted as a linear power ratio of signal to noise.
SNR_COEFF_LOW = 0.001
SNR_COEFF_HIGH = 0.005

MASK_ANCHORS = ("begin", "center", "end")
MIN_MASK_LEN = 10


def _check_range(name: str, r: tuple[float, float], lo: float, hi: float) -> None:
    if not (lo <= r[0] <= r[1] <= hi):
        raise ValueError(f"{name} must satisfy {lo} <= low <= high <= {hi}, got {r}")


@dataclass(frozen=True)
class AugmentConfig:
    """Activation-probability ranges plus the transforms' own ranges, each a (low, high) pair."""

    polarity_prob: tuple[float, float] = (0.2, 0.2)
    noise_prob: tuple[float, float] = (0.2, 0.2)
    mask_prob: tuple[float, float] = (0.2, 0.2)
    mask_fraction: tuple[float, float] = (0.10, 0.30)
    noise_k: tuple[float, float] = (1.0, 1000.0)

    def __post_init__(self):
        _check_range("polarity_prob", self.polarity_prob, 0.0, 1.0)
        _check_range("noise_prob", self.noise_prob, 0.0, 1.0)
        _check_range("mask_prob", self.mask_prob, 0.0, 1.0)
        _check_range("mask_fraction", self.mask_fraction, 0.0, 1.0)
        if not (1.0 <= self.noise_k[0] <= self.noise_k[1]):
            raise ValueError(f"noise_k must satisfy 1 <= low <= high, got {self.noise_k}")


def min_length(cfg: AugmentConfig) -> int:
    """The fewest samples a signal needs for every plan `cfg` can draw:
    the mask's minimum when it can fire, else 1."""
    return MIN_MASK_LEN if cfg.mask_prob[1] > 0 else 1


def polarity_invert(x: np.ndarray) -> np.ndarray:
    """Flip the sign of every sample (an involution)."""
    x = np.asarray(x, dtype=np.float32)
    return -x


def _noise_for_snr(x: np.ndarray, snr: float, rng: np.random.Generator) -> np.ndarray:
    """x + Gaussian noise with variance signal_power / snr."""
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    power = float(np.mean(np.asarray(x, dtype=np.float64) ** 2))
    if power == 0.0:
        logger.warning("noise augmentation: zero-power signal left unchanged")
        return np.asarray(x, dtype=np.float32).copy()
    sigma = np.sqrt(power / snr)
    return (np.asarray(x, dtype=np.float64) + sigma * rng.standard_normal(x.shape)).astype(np.float32)


def draw_snr(rng: np.random.Generator, k_range: tuple[float, float]) -> float:
    """k ~ U(k_range), then SNR ~ U(0.001k, 0.005k)."""
    k = rng.uniform(k_range[0], k_range[1])
    return float(rng.uniform(SNR_COEFF_LOW * k, SNR_COEFF_HIGH * k))


def _mask_params(n: int, fraction: float, anchor: str) -> tuple[int, int]:
    """(start, length) of the zeroed block for a signal of n samples."""
    m = int(round(fraction * n))
    if anchor == "begin":
        start = 0
    elif anchor == "center":
        start = (n - m) // 2
    elif anchor == "end":
        start = n - m
    else:
        raise ValueError(f"unknown mask anchor {anchor!r}")
    return start, m


@dataclass(frozen=True)
class AugmentPlan:
    """All per-sample augmentation decisions, drawn before execution."""

    polarity_on: bool
    noise_on: bool
    noise_snr: float
    mask_on: bool
    mask_fraction: float
    mask_anchor: str


def sample_plan(cfg: AugmentConfig, rng: np.random.Generator) -> AugmentPlan:
    """Draw activations and transform parameters in the documented order:
    polarity (prob, trial), noise (prob, trial, k, snr), mask (prob,
    trial, fraction, anchor)."""
    p_pol = rng.uniform(*cfg.polarity_prob)
    polarity_on = bool(rng.random() < p_pol)

    p_noise = rng.uniform(*cfg.noise_prob)
    noise_on = bool(rng.random() < p_noise)
    noise_snr = draw_snr(rng, cfg.noise_k) if noise_on else 0.0

    p_mask = rng.uniform(*cfg.mask_prob)
    mask_on = bool(rng.random() < p_mask)
    if mask_on:
        mask_fraction = float(rng.uniform(*cfg.mask_fraction))
        mask_anchor = MASK_ANCHORS[rng.integers(len(MASK_ANCHORS))]
    else:
        mask_fraction, mask_anchor = 0.0, "begin"

    return AugmentPlan(polarity_on, noise_on, noise_snr, mask_on, mask_fraction, mask_anchor)


def apply_augmentations(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Run one sampled plan against a full-length signal."""
    plan = sample_plan(cfg, rng)
    y = np.asarray(x, dtype=np.float32)
    if plan.polarity_on:
        y = polarity_invert(y)
    if plan.noise_on:
        y = _noise_for_snr(y, plan.noise_snr, rng)
    if plan.mask_on:
        if y.size < MIN_MASK_LEN:
            raise sig.DataError(f"mask augmentation needs at least {MIN_MASK_LEN} samples, got {y.size}")
        start, m = _mask_params(y.size, plan.mask_fraction, plan.mask_anchor)
        y = y.copy()
        y[start:start + m] = 0.0
    return y
