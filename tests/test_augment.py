"""Augmentation contracts: exact transform mechanics plus Monte Carlo
checks of the stochastic policy (activation rates, SNR levels, mask
geometry)."""

import logging

import numpy as np
import pytest

from resppain import augment as aug


def test_polarity_is_involution():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500).astype(np.float32)
    np.testing.assert_array_equal(aug.polarity_invert(aug.polarity_invert(x)), x)
    np.testing.assert_array_equal(aug.polarity_invert(x), -x)


def test_noise_power_matches_requested_snr():
    # with a pinned SNR the realized noise power must land within
    # a few percent of signal_power / snr on a long signal.
    rng = np.random.default_rng(1)
    n = 200_000
    t = np.arange(n) / 100.0
    x = np.sin(2 * np.pi * 0.25 * t).astype(np.float32)
    signal_power = float(np.mean(x.astype(np.float64) ** 2))
    for snr in (0.5, 2.0, 10.0):
        y = aug._noise_for_snr(x, snr, rng)
        noise_power = float(np.mean((y.astype(np.float64) - x) ** 2))
        want = signal_power / snr
        assert abs(noise_power - want) / want < 0.05, snr


def test_noise_zero_power_warns_and_returns_copy(caplog):
    rng = np.random.default_rng(2)
    x = np.zeros(100, dtype=np.float32)
    with caplog.at_level(logging.WARNING, logger="resppain.augment"):
        y = aug._noise_for_snr(x, 1.0, rng)
    assert any("zero-power" in r.message for r in caplog.records)
    np.testing.assert_array_equal(y, x)
    assert y is not x   # caller may mutate the result safely
    with pytest.raises(ValueError):
        aug._noise_for_snr(x, 0.0, rng)


def test_draw_snr_respects_coefficient_band():
    # snr in [0.001 * k_lo, 0.005 * k_hi] for every draw
    rng = np.random.default_rng(3)
    k_range = (1.0, 1000.0)
    draws = np.array([aug.draw_snr(rng, k_range) for _ in range(20_000)])
    assert draws.min() >= aug.SNR_COEFF_LOW * k_range[0]
    assert draws.max() <= aug.SNR_COEFF_HIGH * k_range[1]
    # with k pinned the band collapses to [0.001k, 0.005k]
    pinned = np.array([aug.draw_snr(rng, (200.0, 200.0)) for _ in range(20_000)])
    assert pinned.min() >= 0.2 and pinned.max() <= 1.0
    np.testing.assert_allclose(pinned.mean(), 0.6, atol=0.01)


def test_mask_params_exact_geometry():
    # block length round(fraction * n); anchors at 0, (n-m)//2, n-m
    assert aug._mask_params(1000, 0.10, "begin") == (0, 100)
    assert aug._mask_params(1000, 0.30, "center") == (350, 300)
    assert aug._mask_params(1000, 0.25, "end") == (750, 250)
    assert aug._mask_params(11, 0.10, "begin") == (0, 1)   # round(1.1)
    assert aug._mask_params(15, 0.10, "center") == ((15 - 2) // 2, 2)   # round(1.5) banker's
    with pytest.raises(ValueError):
        aug._mask_params(100, 0.1, "middle")


def _only(transform: str, **ranges) -> aug.AugmentConfig:
    """Config that runs exactly one transform, always."""
    probs = {f"{t}_prob": (1.0, 1.0) if t == transform else (0.0, 0.0)
             for t in ("polarity", "noise", "mask")}
    return aug.AugmentConfig(**probs, **ranges)


def test_mask_block_zeroes_one_block_and_preserves_rest():
    rng = np.random.default_rng(4)
    cfg = _only("mask", mask_fraction=(0.2, 0.2))
    x = np.arange(1, 1001, dtype=np.float32)   # strictly nonzero
    y = aug.apply_augmentations(x, cfg, rng)
    zeros = np.flatnonzero(y == 0.0)
    assert zeros.size == 200
    assert np.all(np.diff(zeros) == 1)   # contiguous
    keep = np.setdiff1d(np.arange(1000), zeros)
    np.testing.assert_array_equal(y[keep], x[keep])
    with pytest.raises(ValueError):
        aug.apply_augmentations(np.ones(5, dtype=np.float32), cfg, rng)


def test_mask_block_fraction_and_anchor_distribution():
    rng = np.random.default_rng(5)
    cfg = _only("mask", mask_fraction=(0.10, 0.30))
    x = np.ones(1000, dtype=np.float32)
    fracs = []
    starts = {0: 0, 1: 0, 2: 0}   # begin, center, end buckets
    trials = 3000
    for _ in range(trials):
        y = aug.apply_augmentations(x, cfg, rng)
        zeros = np.flatnonzero(y == 0.0)
        m = zeros.size
        assert 100 <= m <= 300   # round() cannot escape on n=1000
        fracs.append(m / 1000.0)
        start = zeros[0]
        if start == 0:
            starts[0] += 1
        elif start == (1000 - m) // 2:
            starts[1] += 1
        else:
            assert start == 1000 - m
            starts[2] += 1
    np.testing.assert_allclose(np.mean(fracs), 0.20, atol=0.01)
    for bucket in starts.values():
        assert abs(bucket / trials - 1.0 / 3.0) < 0.05


def test_noise_alone_lands_in_the_drawn_snr_band():
    # k pinned at 200 puts the SNR in [0.2, 1.0], so on a long signal the
    # realized noise power sits inside [1, 5] times the signal power and
    # differs between draws; no sample is inverted or masked
    rng = np.random.default_rng(10)
    cfg = _only("noise", noise_k=(200.0, 200.0))
    x = np.sin(2 * np.pi * 0.25 * np.arange(100_000) / 100.0).astype(np.float32)
    signal_power = float(np.mean(x.astype(np.float64) ** 2))
    ratios = []
    for _ in range(20):
        y = aug.apply_augmentations(x, cfg, rng)
        assert y.dtype == np.float32 and not np.any(y == 0.0)
        ratios.append(float(np.mean((y.astype(np.float64) - x) ** 2)) / signal_power)
    assert 0.97 < min(ratios) and max(ratios) < 5.15
    assert max(ratios) - min(ratios) > 0.5


def test_sample_plan_activation_rates():
    # each transform fires at the mean of its probability range
    cfg = aug.AugmentConfig(polarity_prob=(0.1, 0.3),
                            noise_prob=(0.2, 0.2),
                            mask_prob=(0.5, 0.7))
    rng = np.random.default_rng(6)
    n = 100_000
    plans = [aug.sample_plan(cfg, rng) for _ in range(n)]
    assert abs(sum(p.polarity_on for p in plans) / n - 0.2) < 0.01
    assert abs(sum(p.noise_on for p in plans) / n - 0.2) < 0.01
    assert abs(sum(p.mask_on for p in plans) / n - 0.6) < 0.01
    on = [p for p in plans if p.mask_on]
    assert all(0.10 <= p.mask_fraction <= 0.30 for p in on)
    assert all(p.mask_anchor in aug.MASK_ANCHORS for p in on)
    noisy = [p for p in plans if p.noise_on]
    assert all(p.noise_snr > 0 for p in noisy)


def test_apply_augmentations_deterministic_given_rng_state():
    cfg = aug.AugmentConfig()
    x = np.sin(np.linspace(0, 20, 1000)).astype(np.float32)
    a = aug.apply_augmentations(x, cfg, np.random.default_rng(7))
    b = aug.apply_augmentations(x, cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32
    assert a.shape == x.shape


def test_apply_augmentations_can_stack_all_three():
    # force every transform on; polarity then noise then mask
    cfg = aug.AugmentConfig(polarity_prob=(1.0, 1.0),
                            noise_prob=(1.0, 1.0),
                            mask_prob=(1.0, 1.0),
                            mask_fraction=(0.2, 0.2),
                            noise_k=(1000.0, 1000.0))
    x = np.ones(1000, dtype=np.float32)
    y = aug.apply_augmentations(x, cfg, np.random.default_rng(8))
    zeros = np.flatnonzero(y == 0.0)
    assert zeros.size == 200
    assert np.all(np.diff(zeros) == 1)
    live = y[np.setdiff1d(np.arange(1000), zeros)]
    # inverted mean with mild noise on top: clearly negative, not exactly -1
    assert live.mean() < -0.8
    assert not np.allclose(live, -1.0)


def test_apply_augmentations_noop_when_probs_zero():
    cfg = aug.AugmentConfig(polarity_prob=(0.0, 0.0),
                            noise_prob=(0.0, 0.0),
                            mask_prob=(0.0, 0.0))
    x = np.arange(100, dtype=np.float32)
    y = aug.apply_augmentations(x, cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(y, x)


def test_augment_config_validation():
    with pytest.raises(ValueError):
        aug.AugmentConfig(polarity_prob=(0.5, 0.2))
    with pytest.raises(ValueError):
        aug.AugmentConfig(mask_fraction=(-0.1, 0.2))
    with pytest.raises(ValueError):
        aug.AugmentConfig(noise_k=(0.5, 10.0))
