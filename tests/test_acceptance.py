"""Release gate: eleven end-to-end checks, one test per criterion, each
printing a single ACCEPTANCE pass line (pytest -v adds the fail lines).

Each criterion states its own tolerance inline.  The desk-scale learning
run (criterion 10) dominates the runtime of this module; everything else
finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

import oracles
from helpers import enumerate_params
from resppain import augment as aug
from resppain import cost
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import numerics as nm
from resppain import signal as sig
from resppain import training as trn


def _ok(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. gradient correctness on a 20-sample toy signal

def test_criterion_01_gradients_match_finite_differences():
    started = time.perf_counter()
    enc_cfg = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                                n_latents=3, model_dim=6, fourier_bands=2,
                                ffn_expansion=2, dropout=0.0, out_dim=4)
    rng = np.random.default_rng(41)
    x = rng.normal(0.0, 1.0, 20).astype(np.float32)
    windows = sig.segment_windows(x, window_seconds=0.1, sample_rate_hz=100.0)
    padded = x
    base = {k: t.data.astype(np.float64)
            for k, t in trn.init_pipeline_params(enc_cfg, "lf_avg_gate", windows.shape[0],
                                                 3, rng).items()}
    target, smoothing = 1, 0.1

    def hard_loss_tensors(arrays):
        params = {k: nm.parameter(v, dtype=np.float64) for k, v in arrays.items()}
        logits, _ = trn.forward_logits(windows, padded, enc_cfg, params, "lf_avg_gate",
                                       np.random.default_rng(123))
        return trn.smoothed_ce_loss(logits, target, smoothing), params

    def hard_loss_value(arrays):
        with nm.no_grad():
            params = {k: nm.constant(v, dtype=np.float64) for k, v in arrays.items()}
            logits, _ = trn.forward_logits(windows, padded, enc_cfg, params, "lf_avg_gate",
                                           np.random.default_rng(123))
            return float(trn.smoothed_ce_loss(logits, target, smoothing).data)

    loss, params = hard_loss_tensors(base)
    engine = nm.backward(loss)
    grads = {k: np.asarray(engine.get(p, np.zeros_like(base[k])), np.float64) for k, p in params.items()}

    # the hard route choice is constant under small perturbations of any
    # non-gate parameter, so central differences of the training loss are
    # exact there; the gate vector is checked against its straight-through
    # surrogate below
    h, worst, worst_name = 1e-4, 0.0, ""
    for name in sorted(base):
        if name == "gate.g":
            continue
        flat = base[name].reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = hard_loss_value(base)
            flat[i] = keep - h
            down = hard_loss_value(base)
            flat[i] = keep
            fd[i] = (up - down) / (2 * h)
        err = float(np.max(np.abs(grads[name].reshape(-1) - fd)
                           / np.maximum(np.maximum(np.abs(fd), np.abs(grads[name].reshape(-1))),
                                        1e-6)))
        if err > worst:
            worst, worst_name = err, name
    assert worst < 1e-3, (worst_name, worst)

    # gate vector: the straight-through estimator backpropagates through
    # the soft weights while the forward pass stays hard, so the engine
    # gradient must equal central differences of
    #   CE((w_hard + w_soft(g) - w_soft(g0)) @ routes)
    # which evaluates to the hard loss at g0 and moves only through the
    # soft path (same Gumbel noise draw as the engine run)
    gamma = fus.sample_gumbel(np.random.default_rng(123), (4,))
    with nm.no_grad():
        consts = {k: nm.constant(v, dtype=np.float64) for k, v in base.items()}
        z = trn.forward_views(windows, padded, enc_cfg, consts, np.random.default_rng(123))
        heads = fus._head_logits(fus.VARIANT_SPECS["lf_avg_gate"], *z, consts)
        routes = np.stack([t.data for t in (*heads, fus._mean(heads))]).astype(np.float64)

    def soft_weights(gvec):
        scores = gvec + gamma
        w = np.exp(scores - scores.max())
        return w / w.sum()

    g0 = base["gate.g"].copy()
    w_soft0 = soft_weights(g0)
    w_hard = np.zeros(4)
    w_hard[int(np.argmax(w_soft0))] = 1.0

    def soft_loss_of_gate(gvec):
        logits = (w_hard + soft_weights(gvec) - w_soft0) @ routes
        shifted = logits - logits.max()
        logp = shifted - math.log(np.exp(shifted).sum())
        q = np.full(3, smoothing / 3.0)
        q[target] += 1.0 - smoothing
        return float(-(q * logp).sum())

    fd_gate = np.zeros_like(g0)
    for i in range(g0.size):
        up_v = g0.copy(); up_v[i] += h
        dn_v = g0.copy(); dn_v[i] -= h
        fd_gate[i] = (soft_loss_of_gate(up_v) - soft_loss_of_gate(dn_v)) / (2 * h)
    gate_err = float(np.max(np.abs(grads["gate.g"] - fd_gate)
                            / np.maximum(np.maximum(np.abs(fd_gate), np.abs(grads["gate.g"])),
                                         1e-6)))
    assert gate_err < 1e-3, gate_err

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, elapsed
    n_checked = sum(v.size for v in base.values())
    _ok(1, f"max rel err {worst:.2e} over {n_checked} params ({worst_name}), "
           f"gate surrogate err {gate_err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. attention against the brute-force oracle

def _attention_params(rng, d, kv_dim):
    def mat(*shape):
        return rng.normal(0.0, 0.5, shape).astype(np.float32)
    raw = {"a.ln_q.g": 1.0 + 0.1 * mat(d), "a.ln_q.b": 0.1 * mat(d),
           "a.ln_kv.g": 1.0 + 0.1 * mat(kv_dim), "a.ln_kv.b": 0.1 * mat(kv_dim),
           "a.wq.w": mat(d, d), "a.wq.b": 0.1 * mat(d),
           "a.wk.w": mat(kv_dim, d), "a.wk.b": 0.1 * mat(d),
           "a.wv.w": mat(kv_dim, d), "a.wv.b": 0.1 * mat(d),
           "a.wo.w": mat(d, d), "a.wo.b": 0.1 * mat(d)}
    return {k: nm.parameter(v) for k, v in raw.items()}


def _oracle_args(params):
    g = {k.split("a.")[1]: t.data for k, t in params.items()}
    return (g["wq.w"], g["wq.b"], g["wk.w"], g["wk.b"], g["wv.w"], g["wv.b"],
            g["wo.w"], g["wo.b"], g["ln_q.g"], g["ln_q.b"], g["ln_kv.g"], g["ln_kv.b"])


def test_criterion_02_attention_matches_bruteforce_oracle():
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 5))
        d = int(rng.choice([2, 3, 4]))
        kv = int(rng.integers(2, 7))
        lat = rng.normal(0.0, 1.0, (n, d)).astype(np.float32)
        # cross-attention over a random context
        ctx = rng.normal(0.0, 1.0, (t, kv)).astype(np.float32)
        p = _attention_params(rng, d, kv)
        got = enc.attention(nm.constant(lat), nm.constant(ctx), p, "a", 0.0, None)
        want = oracles.attention_brute_force(lat, ctx, *_oracle_args(p))
        worst = max(worst, float(np.max(np.abs(got.data - want))))
        # self-attention: the latents are their own context
        ps = _attention_params(rng, d, d)
        got_s = enc.attention(nm.constant(lat), nm.constant(lat), ps, "a", 0.0, None)
        want_s = oracles.attention_brute_force(lat, lat, *_oracle_args(ps))
        worst = max(worst, float(np.max(np.abs(got_s.data - want_s))))
    assert worst < 1e-5, worst
    _ok(2, f"100 draws, cross+self, max abs dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. parameter accounting at full width

def test_criterion_03_param_counts_exact_ascending_within_band():
    totals = []
    for layout in enc.STANDARD_GRID:
        d, c, s = layout
        cfg = enc.EncoderConfig(depth=d, cross_per_block=c, self_per_block=s)
        analytic = cost.count_params(cfg, n_windows=3).params_total
        model = trn.init_pipeline_params(cfg, "lf_avg_gate", 3, 3, np.random.default_rng(0))
        enumerated = enumerate_params(model)
        assert analytic == enumerated, layout
        totals.append(analytic)
        del model
    assert all(a < b for a, b in zip(totals, totals[1:])), totals
    ref = cost.REFERENCE_COSTS[(1, 1, 0)][0] * 1e6
    deviation = (totals[0] - ref) / ref
    assert abs(deviation) < 0.15, deviation
    _ok(3, f"six layouts exact and ascending; (1,1,0) {totals[0] / 1e6:.2f}M vs "
           f"reference 3.62M, signed deviation {deviation:+.1%}")


# ---------------------------------------------------------------------------
# 4. FLOP ordering across window sizes

def test_criterion_04_window_size_flop_ordering():
    cfg = enc.EncoderConfig()
    flops = {}
    for t in range(1, 6):
        n_windows = sig.n_windows_for(sig.PAD_TARGET, float(t), sig.SAMPLE_RATE_HZ)
        flops[t] = cost.count_flops(cfg, sig.PAD_TARGET, n_windows).flops_forward
    assert all(flops[1] > flops[t] for t in range(2, 6))
    assert flops[5] == min(flops.values())
    table = "  ".join(f"T={t}:{flops[t] / 1e9:.2f}G" for t in range(1, 6))
    _ok(4, f"1150-sample pipeline, T=1 maximal / T=5 minimal ({table})")


# ---------------------------------------------------------------------------
# 5. windowing and padding geometry

def test_criterion_05_windowing_padding_reconstruction():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, 1000).astype(np.float32)
    padded = sig.pad_to_fixed(x, sig.PAD_TARGET)
    assert padded.shape == (1150,)
    np.testing.assert_array_equal(padded[:1000], x)
    assert not padded[1000:].any()
    windows = sig.segment_windows(padded, window_seconds=5.0, sample_rate_hz=100.0)
    assert windows.shape == (3, 500)
    assert not windows[2, 150:].any()          # 350 trailing zeros
    np.testing.assert_array_equal(windows[2, :150], padded[1000:])
    np.testing.assert_array_equal(windows.reshape(-1)[:1150], padded)
    _ok(5, "1000 -> pad 1150 -> 3x500 windows, 350-zero tail, exact reconstruction")


# ---------------------------------------------------------------------------
# 6. band-pass filter response

def test_criterion_06_filter_response():
    fs, dur = 100.0, 60.0
    t = np.arange(int(fs * dur)) / fs

    def fft_amp(y, freq):
        spec = np.fft.rfft(y)
        k = int(round(freq * dur))
        return np.abs(spec[k])

    x_pass = np.sin(2 * np.pi * 0.25 * t).astype(np.float32)
    y_pass = sig.bandpass_filter(x_pass, fs, sig.BAND_LOW_HZ, sig.BAND_HIGH_HZ)
    gain = fft_amp(y_pass, 0.25) / fft_amp(x_pass, 0.25)
    assert gain >= 0.9, gain

    x_stop = np.sin(2 * np.pi * 5.0 * t).astype(np.float32)
    y_stop = sig.bandpass_filter(x_stop, fs, sig.BAND_LOW_HZ, sig.BAND_HIGH_HZ)
    stop_db = 20 * math.log10(fft_amp(x_stop, 5.0) / max(fft_amp(y_stop, 5.0), 1e-300))
    assert stop_db >= 20.0, stop_db

    drift = np.linspace(0.0, 1.0, t.size).astype(np.float32)
    y_drift = sig.bandpass_filter(drift, fs, sig.BAND_LOW_HZ, sig.BAND_HIGH_HZ)
    power_in = float(np.sum(np.abs(np.fft.rfft(drift)) ** 2))
    power_out = float(np.sum(np.abs(np.fft.rfft(y_drift)) ** 2))
    drift_db = 10 * math.log10(power_in / max(power_out, 1e-300))
    assert drift_db >= 20.0, drift_db

    # passband phase: group delay from the cross-spectrum at the carrier
    k = int(round(0.25 * dur))
    cross = np.fft.rfft(y_pass)[k] * np.conj(np.fft.rfft(x_pass)[k])
    delay_samples = abs(np.angle(cross)) / (2 * np.pi * 0.25) * fs
    assert delay_samples <= 1.0, delay_samples
    _ok(6, f"0.25 Hz gain {gain:.3f}, 5 Hz -{stop_db:.1f} dB, drift -{drift_db:.1f} dB, "
           f"phase delay {delay_samples:.3f} samples")


# ---------------------------------------------------------------------------
# 7. gate contract

def test_criterion_07_gate_contract():
    g = np.array([0.7, -0.3, 0.4, 0.1], dtype=np.float32)
    gate = nm.parameter(g)
    routes_np = [np.array([1.0, 2.0, 3.0], np.float32) * (i + 1) for i in range(4)]
    routes = [nm.constant(r) for r in routes_np]

    # inference: deterministic argmax, the route tensor itself
    for _ in range(100):
        logits, chosen = fus.gumbel_gate(routes, gate, None)
        assert chosen == int(np.argmax(g))
        assert logits is routes[chosen]

    # training: exactly one-hot mixture on every draw
    rng = np.random.default_rng(77)
    counts = np.zeros(4)
    n_draws = 10_000
    for _ in range(n_draws):
        logits, chosen = fus.gumbel_gate(routes, gate, rng)
        np.testing.assert_array_equal(logits.data, routes_np[chosen])
        counts[chosen] += 1
    freqs = counts / n_draws

    # Monte Carlo Gumbel-argmax oracle on the same logits
    oracle_rng = np.random.default_rng(7171)
    noise = -np.log(-np.log(oracle_rng.random((200_000, 4))))
    oracle_freqs = np.bincount(np.argmax(g + noise, axis=1), minlength=4) / 200_000
    assert np.max(np.abs(freqs - oracle_freqs)) < 0.02, (freqs, oracle_freqs)
    inside = ", ".join(f"{f:.3f}" for f in freqs)
    _ok(7, f"inference argmax stable, 10k one-hot draws, rates [{inside}] "
           f"within 2% of MC oracle")


# ---------------------------------------------------------------------------
# 8. augmentation statistics

def test_criterion_08_augmentation_statistics():
    cfg = aug.AugmentConfig()
    rng = np.random.default_rng(8)
    plans = [aug.sample_plan(cfg, rng) for _ in range(100_000)]

    masked = [p for p in plans if p.mask_on]
    fracs = np.array([p.mask_fraction for p in masked])
    assert fracs.size > 0
    assert float(fracs.min()) >= 0.10 and float(fracs.max()) <= 0.30

    anchor_counts = {a: 0 for a in aug.MASK_ANCHORS}
    for p in masked:
        anchor_counts[p.mask_anchor] += 1
    n, p_each = len(masked), 1.0 / 3.0
    sigma = math.sqrt(n * p_each * (1 - p_each))
    for a, c in anchor_counts.items():
        assert abs(c - n * p_each) <= 3 * sigma, (a, c, n)

    t = np.arange(40_000, dtype=np.float64)
    x = (np.sqrt(2.0) * np.sin(2 * np.pi * 0.05 * t)).astype(np.float32)  # unit power
    signal_power = float(np.mean(x.astype(np.float64) ** 2))
    noise_rng = np.random.default_rng(88)
    worst = 0.0
    for p in [q for q in plans if q.noise_on][:40]:
        y = aug._noise_for_snr(x, p.noise_snr, noise_rng)
        noise_power = float(np.mean((y.astype(np.float64) - x) ** 2))
        worst = max(worst, abs(noise_power * p.noise_snr / signal_power - 1.0))
    assert worst < 0.05, worst

    z = np.random.default_rng(9).normal(0.0, 1.0, 512).astype(np.float32)
    np.testing.assert_array_equal(aug.polarity_invert(aug.polarity_invert(z)), z)
    _ok(8, f"100k plans: fraction in [0.10,0.30], anchors uniform (3 sigma), "
           f"noise power within {worst:.1%} of sampled SNR, polarity involution exact")


# ---------------------------------------------------------------------------
# 9. bit-for-bit training determinism

def test_criterion_09_training_determinism(tmp_path):
    train_recs = sig.synth_dataset(6, seed=[90, 0], duration_s=6.0)
    val_recs = sig.synth_dataset(3, seed=[90, 1], duration_s=6.0)
    enc_cfg = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                                n_latents=8, model_dim=16, fourier_bands=4,
                                ffn_expansion=2, dropout=0.1, out_dim=16)
    prep = sig.PreprocessConfig(pad_len=600, window_seconds=2.0)
    cfg = trn.TrainConfig(epochs=8, batch_size=4, lr=1e-3, label_smoothing=0.1,
                          warmup_epochs=2, cooldown_epochs=2, seed=3407,
                          fusion_variant="lf_avg_gate", augment_enabled=True)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        trn.train(train_recs, val_recs, enc_cfg, cfg, prep, aug.AugmentConfig(), out_dir=out)
        outs.append(out)
    log_a = (outs[0] / "metrics.tsv").read_bytes()
    log_b = (outs[1] / "metrics.tsv").read_bytes()
    assert log_a == log_b
    assert (outs[0] / "checkpoint_final.bin").read_bytes() \
        == (outs[1] / "checkpoint_final.bin").read_bytes()
    _ok(9, f"seed 3407 twice: metrics logs byte-identical ({len(log_a)} bytes), "
           f"final checkpoints byte-identical")


# ---------------------------------------------------------------------------
# 10. desk-scale end-to-end learning

@pytest.mark.slow
def test_criterion_10_desk_scale_learning():
    started = time.perf_counter()
    train_recs = sig.synth_dataset(30, seed=[20260818, 0], duration_s=10.0)
    val_recs = sig.synth_dataset(15, seed=[20260818, 1], duration_s=10.0)
    enc_cfg = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                                n_latents=16, model_dim=32, fourier_bands=6,
                                ffn_expansion=4, dropout=0.1, out_dim=32)
    prep = sig.PreprocessConfig(window_seconds=5.0)       # pad 1150 -> 3 windows
    cfg = trn.TrainConfig(epochs=200, batch_size=8, lr=3e-3, label_smoothing=0.1,
                          warmup_epochs=20, cooldown_epochs=20, seed=3407,
                          fusion_variant="lf_avg_gate", augment_enabled=True)
    result = trn.train(train_recs, val_recs, enc_cfg, cfg, prep, aug.AugmentConfig(),
                       out_dir=None)
    elapsed = time.perf_counter() - started
    assert result.best_val_macro_acc >= 0.90, result.best_val_macro_acc
    assert elapsed < 900.0, elapsed
    _ok(10, f"gated fusion, 200 epochs, 90/45 records: best val macro acc "
            f"{result.best_val_macro_acc:.3f} (epoch {result.best_epoch}), final "
            f"{result.final_report.macro_accuracy:.3f}, {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# 11. loss and schedule sanity

def test_criterion_11_loss_and_schedule_sanity():
    for smoothing in (0.0, 0.05, 0.1, 0.5, 0.9):
        for fill in (0.0, 2.5, -7.0):
            logits = nm.constant(np.full(3, fill, dtype=np.float32))
            loss = float(trn.smoothed_ce_loss(logits, 1, smoothing).data)
            assert abs(loss - math.log(3.0)) <= 1e-6, (smoothing, fill, loss)

    def schedule_oracle(epoch, lr, epochs, warmup, cooldown):
        if warmup and epoch < warmup:
            return lr * (epoch + 1) / warmup
        if cooldown and epoch >= epochs - cooldown:
            return lr * (epochs - epoch) / cooldown
        return lr

    grids = [dict(epochs=300, warmup_epochs=50, cooldown_epochs=10, lr=1e-4),
             dict(epochs=10, warmup_epochs=3, cooldown_epochs=2, lr=5e-3),
             dict(epochs=4, warmup_epochs=4, cooldown_epochs=0, lr=1.0),
             dict(epochs=6, warmup_epochs=0, cooldown_epochs=6, lr=0.25),
             dict(epochs=7, warmup_epochs=0, cooldown_epochs=0, lr=3e-4)]
    for kw in grids:
        cfg = trn.TrainConfig(batch_size=1, seed=0, **kw)
        for e in range(cfg.epochs):
            want = schedule_oracle(e, cfg.lr, cfg.epochs, cfg.warmup_epochs,
                                   cfg.cooldown_epochs)
            assert trn.lr_at_epoch(e, cfg) == want, (kw, e)
    _ok(11, "uniform logits give ln 3 for five smoothing values; lr schedule exact "
            "at every epoch on five grids")
