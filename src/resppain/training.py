"""Deterministic training loop for the windowed classification pipeline.

A run is fully determined by its seed: parameter init, epoch shuffles,
augmentation, dropout, and gate sampling each consume a dedicated RNG
stream derived from (seed, purpose tag, epoch, sample index), so no step
depends on hidden global state and two runs with equal config are
bit-identical, however many worker processes share a batch.

Per sample the pipeline is: augment (training only) -> band-pass filter
-> zero-pad to fixed length -> segment into windows -> encode windows and
the padded full signal with the shared encoder -> fuse -> route to final
logits -> label-smoothed cross-entropy.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import augment as aug
from . import encoder as enc
from . import fusion as fus
from . import numerics as nm
from . import parallel as par
from . import signal as sig
from .numerics import Tensor

logger = logging.getLogger(__name__)

# RNG stream purpose tags (second entry of the seeding key).
_TAG_INIT = 0
_TAG_SHUFFLE = 1
_TAG_AUGMENT = 2
_TAG_MODEL = 3   # dropout and gate sampling, one stream per sample

METRICS_HEADER = "epoch\tlr\ttrain_loss\tval_macro_acc\tval_macro_prec\tval_macro_f1\tgate_histogram"


class NumericalError(RuntimeError):
    """Loss or gradient went non-finite; training aborts rather than drifting on."""


def stream(seed: int, *key: int) -> np.random.Generator:
    """Named deterministic RNG stream."""
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 32
    lr: float = 1e-4
    label_smoothing: float = 0.10
    warmup_epochs: int = 50
    cooldown_epochs: int = 10
    seed: int = 3407
    fusion_variant: str = fus.DEFAULT_VARIANT
    checkpoint_interval: int = 0   # 0: only final/best checkpoints
    augment_enabled: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(f"epochs and batch_size must be >= 1, got {self.epochs}, {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must satisfy 0 <= s < 1, got {self.label_smoothing}")
        if self.warmup_epochs < 0 or self.cooldown_epochs < 0:
            raise ValueError("warmup_epochs and cooldown_epochs must be >= 0")
        if self.warmup_epochs + self.cooldown_epochs > self.epochs:
            raise ValueError(f"warmup ({self.warmup_epochs}) + cooldown ({self.cooldown_epochs}) "
                             f"exceed total epochs ({self.epochs})")
        fus.variant_spec(self.fusion_variant)
        if self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-linear schedule, epoch granularity.

    Warmup epochs e in [0, warmup) run at lr * (e + 1) / warmup, the
    plateau at lr, and the final cooldown epochs ramp to lr / cooldown
    (epoch e >= epochs - cooldown runs at lr * (epochs - e) / cooldown).
    """
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if cfg.warmup_epochs and epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    if cfg.cooldown_epochs and epoch >= cfg.epochs - cfg.cooldown_epochs:
        return cfg.lr * (cfg.epochs - epoch) / cfg.cooldown_epochs
    return cfg.lr


def smoothed_ce_loss(logits: Tensor, target_index: int, smoothing: float) -> Tensor:
    """Cross-entropy against (1-s) * one-hot + s / C uniform mass, C the logits vector's length.

    s = 0 is exactly standard cross-entropy; uniform logits give ln C for
    every s because the target distribution always sums to one.  The
    target carries the sign: the loss is sum(log_softmax(logits) * -q).
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must satisfy 0 <= s < 1, got {smoothing}")
    if len(logits.shape) != 1:
        raise nm.ShapeError(f"logits must be a vector, got shape {logits.shape}")
    (n_classes,) = logits.shape
    if not 0 <= target_index < n_classes:
        raise ValueError(f"target index {target_index} outside [0, {n_classes})")
    q = np.full(n_classes, smoothing / n_classes)
    q[target_index] += 1.0 - smoothing
    return nm.sum_all(nm.mul(nm.log_softmax(logits), nm.constant(-q, dtype=logits.dtype)))


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Standard Adam with bias correction, at the usual fixed betas and eps,
    over one parameter vector.  `step(x, grad, lr)` returns the next vector
    and writes neither argument; the two moment vectors update in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.t = 0
        self.m = self.v = None

    def describe(self) -> str:
        return f"adam(beta1={self.BETA1}, beta2={self.BETA2}, eps={self.EPS}, weight_decay=0)"

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        if self.t == 0:
            self.m, self.v = np.zeros_like(x), np.zeros_like(x)
        self.t += 1
        # the textbook update, elementwise, with at most two vector temporaries at a time
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * grad
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * (grad * grad)
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        den = np.sqrt(self.v / c2) + self.EPS
        np.divide(lr * (self.m / c1), den, out=den)
        return np.subtract(x, den, out=den)


# ---------------------------------------------------------------------------
# pipeline forward

def preprocess(x: np.ndarray, prep: sig.PreprocessConfig) -> tuple[np.ndarray, np.ndarray]:
    """Signal -> (windows (S, w), padded full signal)."""
    if prep.filter_enabled:
        x = sig.bandpass_filter(x, prep.sample_rate_hz, prep.filter_low_hz, prep.filter_high_hz)
    padded = sig.pad_to_fixed(x, prep.pad_len)
    return sig.segment_windows(padded, prep.window_seconds, prep.sample_rate_hz), padded


def _prepare(records: list[sig.RespirationRecord], prep: sig.PreprocessConfig,
             min_len: int = 1) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Preprocessed (windows, padded, label index) triples, no augmentation.
    A record the pipeline cannot take, such as one not sampled at the rate
    the filter and windows assume or one shorter than the `min_len`
    samples augmentation needs, raises a DataError that names it."""
    prepared = []
    for r in records:
        if r.sample_rate_hz != prep.sample_rate_hz:
            got, want = (repr(float(hz)).removesuffix(".0") for hz in (r.sample_rate_hz, prep.sample_rate_hz))
            raise sig.DataError(f"record {r.subject_id!r} is sampled at {got} Hz, but the pipeline expects {want} Hz")
        if r.samples.size < min_len:
            raise sig.DataError(f"record {r.subject_id!r} has {r.samples.size} samples, "
                                f"but augmentation needs at least {min_len}")
        try:
            prepared.append((*preprocess(r.samples, prep), r.label.index))
        except sig.DataError as e:
            raise sig.DataError(f"record {r.subject_id!r}: {e}") from e
    return prepared


def forward_views(windows: np.ndarray, padded: np.ndarray, enc_cfg: enc.EncoderConfig,
                  params: dict[str, Tensor], rng: np.random.Generator | None) -> tuple[Tensor, Tensor, Tensor]:
    """Encode every window plus the full signal with the shared encoder, in
    one `enc.encode` call; an rng means training (dropout drawn from it),
    None means inference.

    That call computes the latent half of the first cross-attention's
    scores, (wq(ln_q(latents)) wk.w^T) / sqrt(d), once for all S + 1
    signals, and each embedding equals, bit for bit, what `enc.encode`
    gives for its signal alone.
    """
    *embeddings, z_full = enc.encode([*windows, padded], enc_cfg, params, rng)
    z_add, z_concat = fus.fuse_windows(embeddings)
    return z_add, z_concat, z_full


def forward_logits(windows: np.ndarray, padded: np.ndarray, enc_cfg: enc.EncoderConfig,
                   params: dict[str, Tensor], variant: str,
                   rng: np.random.Generator | None) -> tuple[Tensor, int | None]:
    """(class logits, gate route or None) of one sample; an rng means training, None inference."""
    z_add, z_concat, z_full = forward_views(windows, padded, enc_cfg, params, rng)
    return fus.classify(z_add, z_concat, z_full, params, variant, rng)


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class MetricsReport:
    """Confusion-derived metrics for one evaluation pass.

    Macro accuracy is the unweighted mean of per-class recall (balanced
    accuracy); plain accuracy is trace / total.  Classes with zero
    support (or zero predictions, for precision) contribute zero terms.
    """

    macro_accuracy: float
    macro_precision: float
    macro_f1: float
    plain_accuracy: float
    mean_loss: float
    confusion: np.ndarray     # (C, C) int64, rows = true, cols = predicted


def metrics_from_confusion(confusion: np.ndarray, mean_loss: float) -> MetricsReport:
    conf = np.asarray(confusion, dtype=np.int64)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ValueError(f"confusion must be square, got shape {conf.shape}")
    c = conf.shape[0]
    diag = np.diag(conf).astype(np.float64)
    row = conf.sum(axis=1).astype(np.float64)
    col = conf.sum(axis=0).astype(np.float64)
    recall = np.divide(diag, row, out=np.zeros(c), where=row > 0)
    precision = np.divide(diag, col, out=np.zeros(c), where=col > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(c), where=pr > 0)
    total = conf.sum()
    plain = float(diag.sum() / total) if total > 0 else 0.0
    return MetricsReport(macro_accuracy=float(recall.mean()),
                         macro_precision=float(precision.mean()),
                         macro_f1=float(f1.mean()),
                         plain_accuracy=plain,
                         mean_loss=mean_loss,
                         confusion=conf)


def _eval_record(item: tuple[np.ndarray, np.ndarray, int], enc_cfg: enc.EncoderConfig,
                 params: dict[str, Tensor], variant: str) -> tuple[int, int, float]:
    """(label, predicted class, unsmoothed loss) of one preprocessed
    (windows, padded, label) triple.

    Runs outside the tape with no RNG: augmentation, dropout, and gate
    sampling are all inert, so repeat calls are bit-identical.
    """
    windows, padded, label_idx = item
    with nm.no_grad():
        logits, _ = forward_logits(windows, padded, enc_cfg, params, variant, None)
        return label_idx, int(np.argmax(logits.data)), smoothed_ce_loss(logits, label_idx, 0.0).item()


def _report(rows) -> MetricsReport:
    """Metrics of one or more (label, predicted class, loss) rows."""
    labels, preds, losses = zip(*rows)
    conf = np.zeros((sig.N_CLASSES, sig.N_CLASSES), dtype=np.int64)
    np.add.at(conf, (labels, preds), 1)
    return metrics_from_confusion(conf, float(np.mean(losses)))


def evaluate(records: list[sig.RespirationRecord], enc_cfg: enc.EncoderConfig,
             params: dict[str, Tensor], prep: sig.PreprocessConfig,
             variant: str = fus.DEFAULT_VARIANT) -> MetricsReport:
    """Full-pipeline evaluation of raw records (no augmentation)."""
    if not records:
        raise sig.DataError("evaluate needs at least one record")
    prepared = _prepare(records, prep)
    return _report(_eval_record(item, enc_cfg, params, variant) for item in prepared)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainResult:
    params: dict[str, Tensor]
    metrics_lines: list[str]
    val_reports: list[MetricsReport]
    train_loss_curve: list[float]
    best_epoch: int

    @property
    def final_report(self) -> MetricsReport:
        return self.val_reports[-1]

    @property
    def best_val_macro_acc(self) -> float:
        return self.val_reports[self.best_epoch].macro_accuracy

    @property
    def metrics_text(self) -> str:
        return "\n".join(self.metrics_lines) + "\n"


def pipeline_param_rows(enc_cfg: enc.EncoderConfig, variant: str, n_windows: int,
                        n_classes: int) -> Iterator[enc.ParamRow]:
    """The encoder's rows, then the variant's head and combiner rows: init order, read lazily."""
    fus.variant_spec(variant)   # an unknown variant fails first
    if n_windows < 1 or n_classes < 2:
        raise ValueError(f"need n_windows >= 1 and n_classes >= 2; got ({n_windows}, {n_classes})")
    return itertools.chain(enc.encoder_param_rows(enc_cfg),
                           fus.fusion_param_rows(variant, n_windows, enc_cfg.out_dim, n_classes))


def init_pipeline_params(enc_cfg: enc.EncoderConfig, variant: str, n_windows: int,
                         n_classes: int, rng: np.random.Generator,
                         dtype=nm.DEFAULT_DTYPE) -> dict[str, Tensor]:
    """Encoder parameters followed by fusion heads/gate, one flat dict."""
    return enc.draw_params(pipeline_param_rows(enc_cfg, variant, n_windows, n_classes), rng, dtype)


def _format_row(epoch: int, lr: float, train_loss: float, rep: MetricsReport,
                hist: np.ndarray) -> str:
    return (f"{epoch}\t{lr:.10g}\t{train_loss:.10g}\t{rep.macro_accuracy:.10g}"
            f"\t{rep.macro_precision:.10g}\t{rep.macro_f1:.10g}"
            f"\t{','.join(str(int(h)) for h in hist)}")


def train(train_records: list[sig.RespirationRecord],
          val_records: list[sig.RespirationRecord],
          enc_cfg: enc.EncoderConfig,
          train_cfg: TrainConfig,
          prep: sig.PreprocessConfig,
          aug_cfg: aug.AugmentConfig | None = None,
          out_dir: str | Path | None = None) -> TrainResult:
    """Run the full loop; returns trained parameters plus per-epoch metrics.

    When out_dir is given, writes metrics.tsv, checkpoint_final.bin,
    checkpoint_best.bin (best validation macro accuracy, earliest epoch on
    ties) and optional periodic checkpoint_epochNNN.bin files there.
    """
    if not train_records or not val_records:
        raise sig.DataError("train needs non-empty train and val splits")
    if aug_cfg is None:
        aug_cfg = aug.AugmentConfig()
    # checks every training record before the first step
    _prepare(train_records, prep, aug.min_length(aug_cfg) if train_cfg.augment_enabled else 1)
    val_prepared = _prepare(val_records, prep)
    n_classes = sig.N_CLASSES
    n_windows = prep.n_windows
    variant = train_cfg.fusion_variant

    # the parameters as one vector x in init order; `load` builds its tensors once per map
    init = init_pipeline_params(enc_cfg, variant, n_windows, n_classes,
                                stream(train_cfg.seed, _TAG_INIT))
    layout = {name: p.shape for name, p in init.items()}
    x = np.concatenate([p.data.ravel() for p in init.values()])
    del init
    bounds = [0, *itertools.accumulate(math.prod(shape) for shape in layout.values())]

    def load(x: np.ndarray) -> dict[str, Tensor]:
        return {name: nm.parameter(x[lo:hi].reshape(shape))
                for (name, shape), lo, hi in zip(layout.items(), bounds, bounds[1:])}

    optimizer = Adam()
    logger.info("optimizer: %s | lr schedule: peak %g, warmup %d, cooldown %d, %d epochs",
                optimizer.describe(), train_cfg.lr, train_cfg.warmup_epochs,
                train_cfg.cooldown_epochs, train_cfg.epochs)
    logger.info("model: layout %s, %d latents x %d, %d windows of %gs + full signal, variant %s",
                enc_cfg.layout(), enc_cfg.n_latents, enc_cfg.model_dim,
                n_windows, prep.window_seconds, variant)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    metrics_lines = [METRICS_HEADER]
    val_reports: list[MetricsReport] = []
    loss_curve: list[float] = []
    best_epoch, best_acc, best_x = -1, -1.0, None
    n = len(train_records)

    def train_sample(params: dict[str, Tensor], job: tuple[int, int, int]):
        """(loss, route, gradient vector in x's layout) of one sample of a batch of batch_len."""
        epoch, idx, batch_len = job
        rec = train_records[idx]
        samples = rec.samples
        if train_cfg.augment_enabled:
            samples = aug.apply_augmentations(samples, aug_cfg, stream(train_cfg.seed, _TAG_AUGMENT, epoch, idx))
        windows, padded = preprocess(samples, prep)
        rng_model = stream(train_cfg.seed, _TAG_MODEL, epoch, idx)
        logits, route = forward_logits(windows, padded, enc_cfg, params, variant, rng_model)
        loss = smoothed_ce_loss(logits, rec.label.index, train_cfg.label_smoothing)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericalError(f"non-finite loss {value} at epoch {epoch}, "
                                 f"record {rec.subject_id!r}; aborting")
        grads = nm.backward(nm.scale(loss, 1.0 / batch_len))
        return value, route, np.concatenate([grads[p].ravel() for p in params.values()])

    def eval_record(params: dict[str, Tensor], i: int) -> tuple[int, int, float]:
        return _eval_record(val_prepared[i], enc_cfg, params, variant)

    # Each sample's gradient is its own backward pass, summed in batch order:
    # the float32 additions a one-process loop makes, whichever worker
    # computed the sample.
    with par.Workers((train_sample, eval_record), train_cfg.batch_size, load) as pool:
        for epoch in range(train_cfg.epochs):
            lr = lr_at_epoch(epoch, train_cfg)
            order = stream(train_cfg.seed, _TAG_SHUFFLE, epoch).permutation(n)
            hist = np.zeros(fus.N_ROUTES, dtype=np.int64)
            epoch_losses = []
            for start in range(0, n, train_cfg.batch_size):
                batch = order[start:start + train_cfg.batch_size]
                jobs = [(epoch, int(idx), len(batch)) for idx in batch]
                total = None
                for value, route, grad in pool.map(train_sample, x, jobs):
                    epoch_losses.append(value)
                    if route is not None:
                        hist[route] += 1
                    total = grad if total is None else np.add(total, grad, out=total)
                if not np.isfinite(total).all():   # name the parameter of the first non-finite entry
                    name = list(layout)[np.searchsorted(bounds, np.argmin(np.isfinite(total)), "right") - 1]
                    raise NumericalError(f"non-finite gradient for parameter {name!r} at epoch {epoch}; "
                                         f"aborting before the optimizer step")
                x = optimizer.step(x, total, lr)

            train_loss = float(np.mean(epoch_losses))
            report = _report(pool.map(eval_record, x, list(range(len(val_prepared)))))
            metrics_lines.append(_format_row(epoch, lr, train_loss, report, hist))
            val_reports.append(report)
            loss_curve.append(train_loss)
            if report.macro_accuracy > best_acc:
                best_epoch, best_acc, best_x = epoch, report.macro_accuracy, x
            if out_path is not None and train_cfg.checkpoint_interval > 0 \
                    and (epoch + 1) % train_cfg.checkpoint_interval == 0:
                save_pipeline(out_path / f"checkpoint_epoch{epoch + 1:03d}.bin",
                              enc_cfg, load(x), prep, variant, n_classes)

    result = TrainResult(params=load(x), metrics_lines=metrics_lines,
                         val_reports=val_reports, train_loss_curve=loss_curve, best_epoch=best_epoch)
    logger.info("training done: best val macro acc %.4f at epoch %d; final %.4f",
                best_acc, best_epoch, result.final_report.macro_accuracy)
    if out_path is not None:
        (out_path / "metrics.tsv").write_text(result.metrics_text)
        save_pipeline(out_path / "checkpoint_final.bin", enc_cfg, result.params, prep, variant, n_classes)
        save_pipeline(out_path / "checkpoint_best.bin", enc_cfg,
                      result.params if best_x is x else load(best_x), prep, variant, n_classes)
    return result


# ---------------------------------------------------------------------------
# pipeline checkpoints (header of settings + encoder, head and gate tensors)

# the header's values, in file order: encoder settings, preprocessing settings, variant, class count
HEADER_TYPES = (enc.EncoderConfig, sig.PreprocessConfig, str, int)


def save_pipeline(path: str | Path, enc_cfg: enc.EncoderConfig, params: dict[str, Tensor],
                  prep: sig.PreprocessConfig, variant: str, n_classes: int) -> None:
    enc.save_checkpoint(path, HEADER_TYPES, (enc_cfg, prep, variant, n_classes), params)


def load_pipeline(path: str | Path) -> tuple[enc.EncoderConfig, dict[str, Tensor],
                                             sig.PreprocessConfig, str]:
    """Checkpoint -> (encoder config, trainable params, preprocessing, variant).

    Every tensor name and shape must match the parameter rows the stored
    config, variant and window count declare; the check builds no model.
    """
    (cfg, prep, variant, n_classes), arrays = enc.load_checkpoint(path, HEADER_TYPES)
    if variant not in fus.VARIANTS:
        raise enc.CheckpointError(f"{path}: unknown fusion variant {variant!r}")
    if n_classes != sig.N_CLASSES:
        raise enc.CheckpointError(f"{path}: checkpoint has {n_classes} classes, expected {sig.N_CLASSES}")
    # reading one row more than the file holds shows whether the config declares
    # more, so a corrupt header (say depth 10**6) costs no more than the file
    rows = pipeline_param_rows(cfg, variant, prep.n_windows, n_classes)
    want = {name: shape for name, shape, _ in itertools.islice(rows, len(arrays) + 1)}
    got = {n: a.shape for n, a in arrays.items()}
    # after a cut walk, a file tensor not yet read may still be declared further on
    names = want.keys() if len(want) > len(got) else want.keys() | got.keys()
    bad = sorted(n for n in names if want.get(n) != got.get(n))
    if bad:
        raise enc.CheckpointError(f"{path}: tensors do not fit the stored config: " + "; ".join(
            f"{n}: the file holds {got.get(n, 'nothing')}, the config needs {want.get(n, 'nothing')}"
            for n in bad[:5]))
    params = {name: nm.parameter(arr) for name, arr in arrays.items()}
    return cfg, params, prep, variant
