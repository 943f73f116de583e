"""Training loop: schedule and loss against closed forms, optimizer vs a
textbook reference, metrics arithmetic, determinism, and checkpoints."""

import dataclasses
import math
import multiprocessing
import os
import struct
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from helpers import fresh
from resppain import numerics as nm
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import parallel as par
from resppain import signal as sig
from resppain import training as trn

ENC = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                        n_latents=4, model_dim=8, fourier_bands=2,
                        max_freq_hz=10.0, ffn_expansion=2, dropout=0.1, out_dim=8)
PREP = sig.PreprocessConfig(pad_len=400, window_seconds=2.0)   # 2 windows of 200


def _dataset(n_per_class=2, seed=0):
    return sig.synth_dataset(n_per_class, seed=seed, duration_s=4.0)


def _quick_cfg(**kw):
    base = dict(epochs=2, batch_size=4, lr=1e-3, label_smoothing=0.1,
                warmup_epochs=0, cooldown_epochs=0, seed=3407)
    base.update(kw)
    return trn.TrainConfig(**base)


# ---------------------------------------------------------------------------
# schedule

def test_lr_schedule_closed_form():
    cfg = trn.TrainConfig(epochs=300, warmup_epochs=50, cooldown_epochs=10, lr=1e-4)
    # warmup: lr * (e+1)/50
    assert trn.lr_at_epoch(0, cfg) == pytest.approx(1e-4 / 50)
    assert trn.lr_at_epoch(24, cfg) == pytest.approx(1e-4 * 25 / 50)
    assert trn.lr_at_epoch(49, cfg) == pytest.approx(1e-4)
    # plateau epochs run at the peak
    for e in (50, 150, 289):
        assert trn.lr_at_epoch(e, cfg) == pytest.approx(1e-4)
    # cooldown: lr * (300-e)/10; epoch 295 runs at lr/2
    assert trn.lr_at_epoch(295, cfg) == pytest.approx(1e-4 / 2)
    assert trn.lr_at_epoch(299, cfg) == pytest.approx(1e-4 / 10)
    with pytest.raises(ValueError):
        trn.lr_at_epoch(300, cfg)
    with pytest.raises(ValueError):
        trn.lr_at_epoch(-1, cfg)


def test_lr_schedule_degenerate_phases():
    flat = trn.TrainConfig(epochs=5, warmup_epochs=0, cooldown_epochs=0, lr=2e-3)
    assert [trn.lr_at_epoch(e, flat) for e in range(5)] == [2e-3] * 5
    all_warm = trn.TrainConfig(epochs=4, warmup_epochs=4, cooldown_epochs=0, lr=1.0)
    assert [trn.lr_at_epoch(e, all_warm) for e in range(4)] == [0.25, 0.5, 0.75, 1.0]


def test_train_config_validation():
    with pytest.raises(ValueError):
        trn.TrainConfig(epochs=10, warmup_epochs=8, cooldown_epochs=3)
    with pytest.raises(ValueError):
        trn.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        trn.TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        trn.TrainConfig(label_smoothing=1.0)
    with pytest.raises(ValueError):
        trn.TrainConfig(fusion_variant="bogus")
    with pytest.raises(ValueError):
        trn.TrainConfig(checkpoint_interval=-1)
    with pytest.raises(ValueError, match="seed"):
        trn.TrainConfig(seed=-1)


# ---------------------------------------------------------------------------
# loss

def test_uniform_logits_give_ln3_for_any_smoothing():
    # the target distribution sums to 1, so constant logits
    # always cost ln C regardless of the smoothing strength.
    logits = nm.constant(np.zeros(3, dtype=np.float32))
    for s in (0.0, 0.1, 0.5, 0.9):
        loss = trn.smoothed_ce_loss(logits, 1, s)
        assert abs(loss.item() - math.log(3.0)) < 1e-6, s
    shifted = nm.constant(np.full(3, 7.25, dtype=np.float32))
    assert abs(trn.smoothed_ce_loss(shifted, 0, 0.1).item() - math.log(3.0)) < 1e-6


def test_smoothed_loss_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.normal(size=3).astype(np.float32)
        target = int(rng.integers(3))
        for s in (0.0, 0.1, 0.37):
            got = trn.smoothed_ce_loss(nm.constant(logits), target, s).item()
            want = oracles.cross_entropy_smoothed(logits, target, s)
            assert abs(got - want) < 1e-6


def test_smoothed_loss_validation():
    logits = nm.constant(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError):
        trn.smoothed_ce_loss(logits, 0, 1.0)
    with pytest.raises(ValueError):
        trn.smoothed_ce_loss(logits, 3, 0.1)
    with pytest.raises(nm.ShapeError, match="must be a vector"):
        trn.smoothed_ce_loss(nm.constant(np.zeros((1, 3), dtype=np.float32)), 0, 0.1)


def test_smoothing_pulls_loss_toward_uniform():
    confident = nm.constant(np.array([8.0, 0.0, 0.0], dtype=np.float32))
    plain = trn.smoothed_ce_loss(confident, 0, 0.0).item()
    smoothed = trn.smoothed_ce_loss(confident, 0, 0.2).item()
    assert plain < smoothed   # smoothing punishes overconfidence


def test_exactly_zero_loss_is_positive_zero():
    # log_softmax rounds a target far ahead of the rest to 0; the loss
    # carries the sign in the target, so it reads +0.0, not -0.0
    logits = nm.parameter([50.0, 0.0, -3.0], dtype=np.float32)
    loss = trn.smoothed_ce_loss(logits, 0, 0.0)
    assert math.copysign(1.0, loss.item()) == 1.0, loss.item()
    grad = nm.backward(loss)[logits]
    assert grad[0] == 0.0 and np.all(grad[1:] > 0.0), grad


# ---------------------------------------------------------------------------
# optimizer

def test_adam_matches_reference_sequence():
    rng = np.random.default_rng(1)
    init = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    grad_seq = [{k: rng.normal(size=v.shape) for k, v in init.items()} for _ in range(3)]

    x = np.concatenate([v.ravel() for v in init.values()])
    opt = trn.Adam()
    for grads in grad_seq:
        x = opt.step(x, np.concatenate([g.ravel() for g in grads.values()]), lr=0.01)

    want = oracles.adam_reference(grad_seq, init, lr=0.01)
    np.testing.assert_allclose(x[:6].reshape(3, 2), want["a"], atol=1e-12)
    np.testing.assert_allclose(x[6:], want["b"], atol=1e-12)
    assert opt.t == 3


def test_adam_step_leaves_read_only_arguments_bit_identical():
    # the best epoch's vector aliases the one the next step reads, so a step
    # returns a new vector and writes neither x nor grad
    rng = np.random.default_rng(3)
    x, grad = rng.normal(size=12), rng.normal(size=12)
    x_bytes, grad_bytes = x.tobytes(), grad.tobytes()
    x.flags.writeable = grad.flags.writeable = False
    opt = trn.Adam()
    for _ in range(2):
        stepped = opt.step(x, grad, lr=0.01)
        assert stepped is not x and not np.shares_memory(stepped, x)
        assert x.tobytes() == x_bytes and grad.tobytes() == grad_bytes
    assert not np.array_equal(stepped, x)


def test_adam_step_leaves_no_gradient_behind():
    # the optimizer keeps only its moments: neither they nor the returned
    # vector hold the gradient, and a later step leaves an earlier result as it was
    rng = np.random.default_rng(3)
    x, grad = rng.normal(size=12), rng.normal(size=12)
    opt = trn.Adam()
    first = opt.step(x, grad, lr=0.01)
    first_bytes = first.tobytes()
    for kept in (opt.m, opt.v, first):
        assert not np.shares_memory(kept, grad) and not np.shares_memory(kept, x)
    assert not np.shares_memory(opt.m, opt.v)
    second = opt.step(first, rng.normal(size=12), lr=0.01)
    assert first.tobytes() == first_bytes and not np.shares_memory(second, first)


def test_adam_reads_only_the_gradients_it_is_given():
    # the step takes its gradient from its argument alone: the entries of
    # a zero slice there stay as they were
    rng = np.random.default_rng(4)
    x = rng.normal(size=6)
    stepped = trn.Adam().step(x, np.concatenate([np.ones(3), np.zeros(3)]), lr=0.1)
    assert stepped[3:].tobytes() == x[3:].tobytes()
    want = oracles.adam_reference([{"a": np.ones(3)}], {"a": x[:3]}, lr=0.1)
    np.testing.assert_allclose(stepped[:3], want["a"], atol=1e-12)


def test_adam_skips_parameters_without_gradients():
    # a zero slice of the gradient, with zero moments, leaves its entries bit-identical
    x = np.concatenate([np.ones(3), np.full(3, 7.0)])
    stepped = trn.Adam().step(x, np.concatenate([np.ones(3), np.zeros(3)]), lr=0.1)
    assert stepped[3:].tobytes() == x[3:].tobytes()
    assert not np.array_equal(stepped[:3], x[:3])
    np.testing.assert_array_equal(stepped[3:], np.full(3, 7.0))


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_and_constant_predictors():
    perfect = trn.metrics_from_confusion(np.diag([5, 5, 5]), mean_loss=0.0)
    assert perfect.macro_accuracy == 1.0
    assert perfect.macro_precision == 1.0
    assert perfect.macro_f1 == 1.0
    assert perfect.plain_accuracy == 1.0

    # always predict class 0 on a balanced set
    constant = trn.metrics_from_confusion(np.array([[5, 0, 0], [5, 0, 0], [5, 0, 0]]), mean_loss=1.0)
    assert constant.macro_accuracy == pytest.approx(1.0 / 3.0)
    assert constant.macro_precision == pytest.approx(1.0 / 9.0)
    assert constant.macro_f1 == pytest.approx(0.5 / 3.0)
    assert constant.plain_accuracy == pytest.approx(1.0 / 3.0)


def test_metrics_hand_confusion():
    # rows/cols sum to 4; recalls (.75, .5, .75)
    conf = np.array([[3, 1, 0], [1, 2, 1], [0, 1, 3]])
    rep = trn.metrics_from_confusion(conf, mean_loss=0.9)
    assert rep.macro_accuracy == pytest.approx(2.0 / 3.0)
    assert rep.macro_precision == pytest.approx(2.0 / 3.0)
    assert rep.macro_f1 == pytest.approx(2.0 / 3.0)
    assert rep.plain_accuracy == pytest.approx(8.0 / 12.0)
    assert rep.mean_loss == 0.9
    np.testing.assert_array_equal(rep.confusion, conf)


def test_metrics_zero_support_class_contributes_zero():
    rep = trn.metrics_from_confusion(np.array([[2, 0], [0, 0]]), mean_loss=0.5)
    assert rep.macro_accuracy == pytest.approx(0.5)
    assert rep.plain_accuracy == 1.0
    with pytest.raises(ValueError):
        trn.metrics_from_confusion(np.zeros((2, 3)), mean_loss=0.5)


# ---------------------------------------------------------------------------
# RNG streams

def test_stream_determinism_and_separation():
    a = trn.stream(3407, 1, 5).random(4)
    b = trn.stream(3407, 1, 5).random(4)
    c = trn.stream(3407, 1, 6).random(4)
    d = trn.stream(3408, 1, 5).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# end-to-end training

def test_train_runs_and_reports(tmp_path):
    records = _dataset()
    result = trn.train(records, records, ENC, _quick_cfg(), PREP, out_dir=tmp_path)
    assert len(result.metrics_lines) == 3   # header + 2 epochs
    assert result.metrics_lines[0] == trn.METRICS_HEADER
    assert len(result.val_reports) == 2
    assert 0 <= result.best_epoch < 2
    assert result.best_val_macro_acc == max(r.macro_accuracy for r in result.val_reports)
    for name in ("metrics.tsv", "checkpoint_final.bin", "checkpoint_best.bin"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "metrics.tsv").read_text() == result.metrics_text
    # gate histogram column counts every training sample each epoch
    hist = result.metrics_lines[1].split("\t")[-1]
    assert sum(int(h) for h in hist.split(",")) == len(records)


def test_train_is_bit_deterministic():
    records = _dataset()
    r1 = trn.train(records, records, ENC, _quick_cfg(), PREP)
    r2 = trn.train(records, records, ENC, _quick_cfg(), PREP)
    assert r1.metrics_text == r2.metrics_text
    assert set(r1.params) == set(r2.params)
    for k in r1.params:
        np.testing.assert_array_equal(r1.params[k].data, r2.params[k].data, err_msg=k)
    r3 = trn.train(records, records, ENC, _quick_cfg(seed=3408), PREP)
    assert r1.metrics_text != r3.metrics_text


def test_train_loss_decreases_without_stochasticity():
    # full batch, no augmentation, no dropout, no sampled gate: the
    # forward pass is deterministic, so Adam at a modest rate on a
    # separable synthetic set never lets the epoch loss rise.
    records = _dataset(n_per_class=3, seed=4)
    cfg = _quick_cfg(epochs=10, batch_size=9, lr=1e-2, warmup_epochs=0,
                     cooldown_epochs=0, augment_enabled=False,
                     fusion_variant="concat_all")
    enc_plain = dataclasses.replace(ENC, dropout=0.0)
    result = trn.train(records, records, enc_plain, cfg, PREP)
    curve = result.train_loss_curve
    assert len(curve) == 10
    rises = [curve[i + 1] - curve[i] for i in range(len(curve) - 1)]
    assert max(rises) <= 1e-6, curve
    assert curve[-1] < curve[0]


def test_train_histogram_empty_for_gateless_variant():
    records = _dataset()
    cfg = _quick_cfg(fusion_variant="concat_all", epochs=1)
    result = trn.train(records, records, ENC, cfg, PREP)
    hist = result.metrics_lines[1].split("\t")[-1]
    assert hist == "0,0,0,0"


def test_train_rejects_empty_splits():
    records = _dataset()
    with pytest.raises(sig.DataError):
        trn.train([], records, ENC, _quick_cfg(), PREP)
    with pytest.raises(sig.DataError):
        trn.train(records, [], ENC, _quick_cfg(), PREP)


def test_train_numerical_abort(monkeypatch):
    records = _dataset()
    real_init = trn.init_pipeline_params

    def poisoned(*args, **kw):
        params = real_init(*args, **kw)
        bad = np.full(params["proj.b"].shape, np.nan, dtype=np.float32)
        params["proj.b"] = nm.parameter(bad)
        return params

    monkeypatch.setattr(trn, "init_pipeline_params", poisoned)
    with pytest.raises(trn.NumericalError):
        trn.train(records, records, ENC, _quick_cfg(), PREP)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_train_aborts_on_non_finite_gradient(monkeypatch, bad):
    # the loss stays finite; one entry of the first per-sample gradient the
    # training loop receives is forced non-finite, and the optimizer must never see it
    records = _dataset()
    real_map = par.Workers.map
    init = trn.init_pipeline_params(ENC, fus.DEFAULT_VARIANT, PREP.n_windows, sig.N_CLASSES,
                                    np.random.default_rng(0))
    names = list(init)   # the gradient vector holds every parameter in init order
    offset = sum(init[name].data.size for name in names[:names.index("proj.b")])

    def poisoned_map(self, fn, params, items):
        for i, result in enumerate(real_map(self, fn, params, items)):
            if i == 0 and isinstance(result[2], np.ndarray):   # a training sample's (loss, route, gradient)
                g = result[2].copy()
                g[offset] = bad
                result = (*result[:2], g)
            yield result

    def no_step(self, params, grads, lr):
        raise AssertionError("optimizer stepped on a non-finite gradient")

    monkeypatch.setattr(par.Workers, "map", poisoned_map)
    monkeypatch.setattr(trn.Adam, "step", no_step)
    with pytest.raises(trn.NumericalError, match="'proj.b'"):
        trn.train(records, records, ENC, _quick_cfg(), PREP)


# ---------------------------------------------------------------------------
# sample-parallel training

def _params_bytes(params):
    return b"".join(params[k].data.tobytes() for k in sorted(params))


def test_train_in_one_process_matches_the_workers(monkeypatch):
    # the real CPU set splits each batch of n_cpus + 1 unevenly across the workers;
    # one CPU runs the same map in process
    n_cpus = len(os.sched_getaffinity(0))
    cfg = _quick_cfg(batch_size=n_cpus + 1, fusion_variant="lf_avg_gate", augment_enabled=True)
    assert ENC.dropout > 0
    records = _dataset()
    spread = trn.train(records, records, ENC, cfg, PREP)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = trn.train(records, records, ENC, cfg, PREP)
    assert spread.metrics_text == alone.metrics_text
    assert _params_bytes(spread.params) == _params_bytes(alone.params)


@pytest.mark.parametrize("variant", fus.VARIANTS)
def test_every_parameter_gets_a_gradient_in_every_training_sample(monkeypatch, variant):
    # a sample's gradient concatenates the gradient backward returns for every
    # parameter, with no zero fill for a missing key,
    # so a head or gate that some sample leaves unreached fails the run here
    enc_cfg = dataclasses.replace(ENC, self_per_block=1)
    assert enc_cfg.dropout > 0
    init = trn.init_pipeline_params(enc_cfg, variant, PREP.n_windows, sig.N_CLASSES, np.random.default_rng(0))
    sizes, real_map = [], par.Workers.map

    def recording_map(self, fn, params, items):
        for result in real_map(self, fn, params, items):
            if isinstance(result[2], np.ndarray):   # a training sample's (loss, route, gradient)
                sizes.append(result[2].size)
            yield result

    monkeypatch.setattr(par.Workers, "map", recording_map)
    records = _dataset()
    cfg = _quick_cfg(fusion_variant=variant)
    trn.train(records, records, enc_cfg, cfg, PREP)
    assert sizes == [sum(p.data.size for p in init.values())] * (cfg.epochs * len(records))


def _recording_worker_pids(monkeypatch) -> list[int]:
    pids, real_init = [], par.Workers.__init__

    def init(self, *args):
        real_init(self, *args)
        pids.extend(proc.pid for proc in self.procs)

    monkeypatch.setattr(par.Workers, "__init__", init)
    return pids


def _poisoned_init(real_init):
    def poisoned(*args, **kw):
        params = real_init(*args, **kw)
        params["proj.b"] = nm.parameter(np.full(params["proj.b"].shape, np.nan, dtype=np.float32))
        return params
    return poisoned


def _failing_augmentation(samples, message):
    """apply_augmentations that raises DataError(message) for the record holding `samples`."""
    real = trn.aug.apply_augmentations

    def augment(x, cfg, rng):
        if x is samples:
            raise sig.DataError(message)
        return real(x, cfg, rng)
    return augment


@pytest.mark.parametrize("exit_by", ["return", "numerical_error", "data_error"])
def test_no_worker_outlives_train(monkeypatch, exit_by):
    records = _dataset()
    pids = _recording_worker_pids(monkeypatch)
    if exit_by == "numerical_error":
        monkeypatch.setattr(trn, "init_pipeline_params", _poisoned_init(trn.init_pipeline_params))
    elif exit_by == "data_error":
        monkeypatch.setattr(trn.aug, "apply_augmentations", _failing_augmentation(records[-1].samples, "bad"))
    expected = {"return": None, "numerical_error": trn.NumericalError, "data_error": sig.DataError}[exit_by]
    if expected is None:
        trn.train(records, records, ENC, _quick_cfg(), PREP)
    else:
        with pytest.raises(expected):
            trn.train(records, records, ENC, _quick_cfg(), PREP)
    assert multiprocessing.active_children() == []
    if len(os.sched_getaffinity(0)) > 1:
        assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_train_raises_the_earliest_failure_in_batch_order(monkeypatch):
    # one batch of six over the workers; positions 2 and 3 fail, in different
    # workers when there are two, and position 2's error is the one raised.
    # A later failure that comes first in time is tests/test_parallel.py's case.
    records = _dataset()
    cfg = _quick_cfg(batch_size=len(records))
    order = trn.stream(cfg.seed, trn._TAG_SHUFFLE, 0).permutation(len(records))
    first, second = (records[int(i)] for i in order[2:4])
    monkeypatch.setattr(trn.aug, "apply_augmentations", _failing_augmentation(first.samples, "batch position 2"))
    monkeypatch.setattr(trn.aug, "apply_augmentations", _failing_augmentation(second.samples, "batch position 3"))
    with pytest.raises(sig.DataError, match="^batch position 2$"):
        trn.train(records, records, ENC, cfg, PREP)


def test_a_failed_train_prints_no_worker_traceback(monkeypatch, capfd):
    # every sample fails, and the run stops on the first worker's error with the
    # other's unread; that worker must leave quietly when its pipe closes
    real_close = par.Workers.close

    def late_close(self, terminate=False):
        time.sleep(0.2)   # long enough for every worker to send its first result
        real_close(self, terminate)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(par.Workers, "close", late_close)
    monkeypatch.setattr(trn, "init_pipeline_params", _poisoned_init(trn.init_pipeline_params))
    records = _dataset()
    with pytest.raises(trn.NumericalError):
        trn.train(records, records, ENC, _quick_cfg(batch_size=len(records)), PREP)
    assert "Traceback" not in capfd.readouterr().err


def test_train_and_evaluate_reject_mismatched_sample_rate():
    records = _dataset()
    slow = sig.RespirationRecord(samples=records[0].samples, sample_rate_hz=50.0,
                                 subject_id="slow-50hz", label=records[0].label)
    assert PREP.sample_rate_hz == 100.0
    with pytest.raises(sig.DataError, match="slow-50hz"):
        trn.train(records + [slow], records, ENC, _quick_cfg(), PREP)
    with pytest.raises(sig.DataError, match="slow-50hz"):
        trn.train(records, [slow] + records, ENC, _quick_cfg(), PREP)
    params = trn.init_pipeline_params(ENC, fus.DEFAULT_VARIANT, PREP.n_windows, sig.N_CLASSES,
                                      np.random.default_rng(0))
    with pytest.raises(sig.DataError, match="slow-50hz"):
        trn.evaluate(records[:1] + [slow], ENC, params, PREP)


def test_train_periodic_checkpoints(tmp_path):
    records = _dataset()
    cfg = _quick_cfg(epochs=4, checkpoint_interval=2, warmup_epochs=0, cooldown_epochs=0)
    trn.train(records, records, ENC, cfg, PREP, out_dir=tmp_path)
    assert (tmp_path / "checkpoint_epoch002.bin").exists()
    assert (tmp_path / "checkpoint_epoch004.bin").exists()
    assert not (tmp_path / "checkpoint_epoch001.bin").exists()


# ---------------------------------------------------------------------------
# evaluation and pipeline round trip

def test_evaluate_deterministic_and_rng_free():
    records = _dataset()
    cfg = _quick_cfg(epochs=1)
    result = trn.train(records, records, ENC, cfg, PREP)
    a = trn.evaluate(records, ENC, result.params, PREP, cfg.fusion_variant)
    b = trn.evaluate(records, ENC, result.params, PREP, cfg.fusion_variant)
    np.testing.assert_array_equal(a.confusion, b.confusion)
    assert a.mean_loss == b.mean_loss
    assert a.macro_accuracy == b.macro_accuracy
    with pytest.raises(sig.DataError):
        trn.evaluate([], ENC, result.params, PREP, cfg.fusion_variant)


def test_pipeline_checkpoint_round_trip(tmp_path):
    records = _dataset()
    cfg = _quick_cfg(epochs=1)
    result = trn.train(records, records, ENC, cfg, PREP, out_dir=tmp_path)
    cfg2, params2, prep2, variant2 = trn.load_pipeline(tmp_path / "checkpoint_final.bin")
    assert cfg2 == ENC
    assert prep2 == PREP
    assert variant2 == cfg.fusion_variant
    assert set(params2) == set(result.params)
    for k in params2:
        np.testing.assert_array_equal(params2[k].data, result.params[k].data, err_msg=k)
    before = trn.evaluate(records, ENC, result.params, PREP, cfg.fusion_variant)
    after = trn.evaluate(records, cfg2, params2, prep2, variant2)
    np.testing.assert_array_equal(before.confusion, after.confusion)
    assert before.mean_loss == after.mean_loss


def test_load_pipeline_draws_no_random_numbers(tmp_path, monkeypatch):
    # the shape check walks the parameter declaration; it builds no model
    records = _dataset()
    result = trn.train(records, records, ENC, _quick_cfg(epochs=1), PREP, out_dir=tmp_path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_pipeline drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    _, params, _, _ = trn.load_pipeline(tmp_path / "checkpoint_final.bin")
    assert list(params) == list(result.params)


def test_load_pipeline_rejects_plain_encoder_checkpoint(tmp_path):
    # a file whose header holds only an encoder config lacks the pipeline's fields
    params = enc.draw_params(enc.encoder_param_rows(ENC), np.random.default_rng(0))
    enc.save_checkpoint(tmp_path / "plain.bin", (enc.EncoderConfig,), (ENC,), params)
    with pytest.raises(enc.CheckpointError):
        trn.load_pipeline(tmp_path / "plain.bin")


def test_checkpoint_header_is_each_field_by_its_declared_type(tmp_path):
    # the v3 layout spelled out by hand: int u32, float f64, bool u8, str u16 length + UTF-8
    params = trn.init_pipeline_params(ENC, "lf_avg_gate", PREP.n_windows, sig.N_CLASSES,
                                      np.random.default_rng(0))
    trn.save_pipeline(tmp_path / "ck.bin", ENC, params, PREP, "lf_avg_gate", sig.N_CLASSES)
    want = (b"RPCK" + struct.pack("<I", 3)
            + struct.pack("<6IdIdI", 1, 1, 0, 4, 8, 2, 10.0, 2, 0.1, 8)   # EncoderConfig
            + struct.pack("<dBddId", 100.0, 1, 0.05, 0.5, 400, 2.0)       # PreprocessConfig
            + struct.pack("<H", 11) + b"lf_avg_gate" + struct.pack("<I", 3)
            + struct.pack("<I", len(params)) + struct.pack("<H", 7) + b"latents")
    assert (tmp_path / "ck.bin").read_bytes()[:len(want)] == want


@st.composite
def _pipeline_settings(draw):
    cfg = enc.EncoderConfig(depth=draw(st.integers(1, 2)), cross_per_block=draw(st.integers(1, 2)),
                            self_per_block=draw(st.integers(0, 1)), n_latents=draw(st.integers(1, 3)),
                            model_dim=draw(st.integers(1, 4)), fourier_bands=draw(st.integers(1, 3)),
                            max_freq_hz=draw(st.floats(1e-3, 1e3)),
                            ffn_expansion=draw(st.integers(1, 2)),
                            dropout=draw(st.floats(0.0, 0.99)), out_dim=draw(st.integers(1, 4)))
    rate = draw(st.floats(1.0, 1000.0))
    low = draw(st.floats(0.01, 0.4)) * rate / 2
    high = low + draw(st.floats(0.01, 1.0)) * (0.99 * rate / 2 - low)
    w = draw(st.integers(20, 200))   # window samples, so a few windows
    prep = sig.PreprocessConfig(sample_rate_hz=rate, filter_enabled=draw(st.booleans()), filter_low_hz=low,
                                filter_high_hz=high, pad_len=draw(st.integers(1, 400)), window_seconds=w / rate)
    return cfg, prep, draw(st.sampled_from(fus.VARIANTS))


@settings(max_examples=60, deadline=None)
@given(_pipeline_settings(), st.integers(0, 2**32 - 1))
def test_pipeline_header_round_trip(tmp_path_factory, settings_, seed):
    cfg, prep, variant = settings_
    assume(abs(prep.window_seconds * prep.sample_rate_hz - round(prep.window_seconds * prep.sample_rate_hz)) <= 1e-9)
    params = trn.init_pipeline_params(cfg, variant, prep.n_windows, sig.N_CLASSES, np.random.default_rng(seed))
    path = fresh(tmp_path_factory.getbasetemp() / "round_trip.bin")
    trn.save_pipeline(path, cfg, params, prep, variant, sig.N_CLASSES)
    cfg2, params2, prep2, variant2 = trn.load_pipeline(path)
    assert (cfg2, prep2, variant2) == (cfg, prep, variant)
    assert list(params2) == list(params)
    for k, p in params.items():
        assert params2[k].data.dtype == p.data.dtype and params2[k].data.tobytes() == p.data.tobytes(), k


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory) -> bytes:
    cfg = enc.EncoderConfig(n_latents=2, model_dim=2, fourier_bands=1, ffn_expansion=1, out_dim=2)
    prep = sig.PreprocessConfig(pad_len=400, window_seconds=2.0)
    params = trn.init_pipeline_params(cfg, "lf_avg_gate", prep.n_windows, sig.N_CLASSES,
                                      np.random.default_rng(0))
    path = tmp_path_factory.mktemp("micro") / "micro.bin"
    trn.save_pipeline(path, cfg, params, prep, "lf_avg_gate", sig.N_CLASSES)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupt_checkpoint_raises_only_checkpoint_error(micro_checkpoint, tmp_path_factory, data):
    # up to three flipped bytes, then an optional cut: the file loads or
    # load_pipeline raises CheckpointError, never another exception
    raw = bytearray(micro_checkpoint)
    for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                                       max_size=3), label="flips"):
        raw[at] ^= mask
    raw = raw[:data.draw(st.integers(0, len(raw)), label="cut")]
    path = fresh(tmp_path_factory.getbasetemp() / "corrupt.bin")
    path.write_bytes(bytes(raw))
    try:
        trn.load_pipeline(path)
    except enc.CheckpointError:
        pass


def test_init_pipeline_params_is_union_of_parts():
    params = trn.init_pipeline_params(ENC, "lf_avg_gate", 2, 3, np.random.default_rng(5))
    enc_keys = set(enc.draw_params(enc.encoder_param_rows(ENC), np.random.default_rng(5)))
    assert enc_keys < set(params)
    assert {"head_add.w", "head_concat.w", "head_full.w", "gate.g"} < set(params)
    assert params["head_concat.w"].shape == (2 * ENC.out_dim, 3)
