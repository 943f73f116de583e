"""The benchmark's workloads.

Each workload makes its inputs from the seed, hands the program only
those inputs, and checks the program's outputs.  `prepare` is the
in-process part of set-up (data, model, warm-up); `unit` is one
repeatable, timed piece of work whose outputs reduce to a digest, so
repeated units of one seed must agree byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from resppain import augment as aug
from resppain import cli
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import signal as sig
from resppain import training as trn

clock = time.perf_counter

# Lowest final validation macro accuracy accepted on desk_train.  Twenty
# epochs ended between 0.82 and 1.00 on the seeds measured while sizing
# the run (chance is 0.33); see README.md.
DESK_VAL_FLOOR = 0.6

DESK_ENCODER = dict(depth=1, cross_per_block=1, self_per_block=0, n_latents=16, model_dim=32,
                    fourier_bands=6, ffn_expansion=4, dropout=0.1, out_dim=32)
# The small model the paper-size workloads use in a --tiny self-test run.
TINY_ENCODER = dict(n_latents=8, model_dim=16, out_dim=16)


@dataclass
class UnitResult:
    samples: int                  # work items behind samples_per_s
    seconds: float                # wall time of the call that processed them
    latencies_ms: list[float]     # one per single-record evaluate call
    digest: str                   # of every output that must repeat exactly
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    wall: float = 0.0             # whole unit, set by the runner
    cpu: float = 0.0              # process CPU time of the unit, set by the runner

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.seconds


@dataclass
class EvalPass:
    latencies_ms: list[float]
    lines: list[str]              # "<predicted class> <loss>" per record
    failed: int


def evaluate_each(records, enc_cfg, params, prep, variant) -> EvalPass:
    """Single-record `training.evaluate` calls, timed one by one."""
    lat, lines, failed = [], [], 0
    for rec in records:
        t0 = clock()
        rep = trn.evaluate([rec], enc_cfg, params, prep, variant)
        lat.append((clock() - t0) * 1e3)
        row = rep.confusion[rec.label.index]
        pred = int(np.argmax(row))
        if row.sum() != 1 or rep.confusion.sum() != 1 or not math.isfinite(rep.mean_loss):
            failed += 1
        lines.append(f"{pred} {rep.mean_loss!r}")
    return EvalPass(lat, lines, failed)


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
        h.update(b"\0")
    return h.hexdigest()


def _metrics_rows_finite(text: str, epochs: int) -> list[str]:
    """Problems with a metrics.tsv text: row count and non-finite numbers."""
    rows = text.rstrip("\n").split("\n")
    problems = []
    if len(rows) != epochs + 1:
        problems.append(f"metrics has {len(rows)} rows, expected {epochs + 1}")
    for row in rows[1:]:
        cells = row.split("\t")
        if not all(math.isfinite(float(c)) for c in cells[:6]):
            problems.append(f"non-finite metrics row {row!r}")
    return problems


class Workload:
    name = ""
    min_units = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.variant = fus.DEFAULT_VARIANT
        self.prep = sig.PreprocessConfig(window_seconds=5.0)

    def prepare(self) -> None:
        raise NotImplementedError

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def _seeded_model(self) -> dict:
        """The model `training.train` starts from for this seed."""
        return trn.init_pipeline_params(self.enc_cfg, self.variant, self.prep.n_windows,
                                        sig.N_CLASSES, trn.stream(self.seed, 0))

    def _warm_up(self, record, params) -> None:
        """One inference, so lazy imports, BLAS threads and the allocator
        settle before anything is timed."""
        trn.evaluate([record], self.enc_cfg, params, self.prep, self.variant)


class DeskTrain(Workload):
    """Criterion-10 model trained through training.train; a held-out test
    split evaluated one record at a time with the seeded model before
    training and with the trained model after it."""

    name = "desk_train"
    # One pass over the test split takes ~0.7 s, short next to the time a
    # shared host stays in one speed state.  A desk-size evaluate call costs
    # the same whatever the weights, so the passes run both with the seeded
    # model before training and with the trained model after it: two
    # windows ~30 s apart.
    EVAL_PASSES = 4

    def prepare(self) -> None:
        per_class = (2, 1, 2) if self.tiny else (30, 15, 34)
        self.train_recs, self.val_recs, self.test_recs = (
            sig.synth_dataset(n, seed=[self.seed, split]) for split, n in enumerate(per_class))
        self.enc_cfg = enc.EncoderConfig(**DESK_ENCODER)
        ramp = 1 if self.tiny else 2
        self.train_cfg = trn.TrainConfig(epochs=2 if self.tiny else 20, batch_size=8, lr=3e-3,
                                         label_smoothing=0.1, warmup_epochs=ramp,
                                         cooldown_epochs=ramp, seed=self.seed,
                                         fusion_variant=self.variant, augment_enabled=True)
        self.init_params = self._seeded_model()
        self._warm_up(self.test_recs[0], self.init_params)

    def unit(self) -> UnitResult:
        cfg, passes = self.train_cfg, self.test_recs * self.EVAL_PASSES
        before = evaluate_each(passes, self.enc_cfg, self.init_params, self.prep, self.variant)
        t0 = clock()
        result = trn.train(self.train_recs, self.val_recs, self.enc_cfg, cfg, self.prep,
                           aug.AugmentConfig())
        seconds = clock() - t0
        n_train = cfg.epochs * len(self.train_recs)
        problems = _metrics_rows_finite(result.metrics_text, cfg.epochs)
        if not all(math.isfinite(v) for v in result.train_loss_curve):
            problems.append("non-finite training loss")
        acc = result.final_report.macro_accuracy
        if not self.tiny and acc < DESK_VAL_FLOOR:
            problems.append(f"val_macro_acc {acc:.4f} below floor {DESK_VAL_FLOOR}")
        after = evaluate_each(passes, self.enc_cfg, result.params, self.prep, self.variant)
        lines = before.lines + after.lines
        return UnitResult(samples=n_train, seconds=seconds,
                          latencies_ms=before.latencies_ms + after.latencies_ms,
                          digest=digest(result.metrics_text, *lines),
                          attempted=n_train + len(lines),
                          failed=before.failed + after.failed + (n_train if problems else 0),
                          problems=problems, info={"val_macro_acc": acc})


class PaperEval(Workload):
    """Default paper-size encoder with seeded init, saved, reloaded through
    training.load_pipeline, and run forward-only one record at a time."""

    name = "paper_eval"
    min_units = 2

    def prepare(self) -> None:
        self.records = sig.synth_dataset(2 if self.tiny else 17, seed=[self.seed, 3])
        enc_cfg = self.enc_cfg = enc.EncoderConfig(**TINY_ENCODER) if self.tiny else enc.EncoderConfig()
        params = self._seeded_model()
        path = self.workdir / "paper_eval.bin"
        trn.save_pipeline(path, enc_cfg, params, self.prep, self.variant, sig.N_CLASSES)
        self.enc_cfg, self.params, prep, variant = trn.load_pipeline(path)
        if (self.enc_cfg, prep, variant) != (enc_cfg, self.prep, self.variant) \
                or self.params.keys() != params.keys() \
                or not all(np.array_equal(self.params[k].data, params[k].data) for k in params):
            raise RuntimeError("reloaded checkpoint differs from the saved model")
        self._warm_up(self.records[0], self.params)

    def unit(self) -> UnitResult:
        ev = evaluate_each(self.records, self.enc_cfg, self.params, self.prep, self.variant)
        return UnitResult(samples=len(self.records), seconds=sum(ev.latencies_ms) / 1e3,
                          latencies_ms=ev.latencies_ms, digest=digest(*ev.lines),
                          attempted=len(self.records), failed=ev.failed)


class PaperTrain(Workload):
    """Paper-size model trained in process through `resppain train`, its
    final checkpoint reloaded and run on the test split."""

    name = "paper_train"
    min_units = 2
    EPOCHS = 1          # next to the 108 latencies, keeps a run under a minute
    EVAL_PASSES = 9     # over the 6 test records: >= 100 latencies in two units

    def prepare(self) -> None:
        data = self.workdir / "data"
        _cli(["synth", "--per-class", "1" if self.tiny else "2", "--val-per-class", "1",
              "--test-per-class", "2", "--seed", str(self.seed), "--out", str(data)])
        self.manifest = data / "manifest.tsv"
        splits = sig.load_dataset(self.manifest)
        self.n_train, self.test_recs = len(splits["train"]), splits["test"]
        self.enc_cfg = enc.EncoderConfig(**TINY_ENCODER) if self.tiny else enc.EncoderConfig()
        encoder_keys = "".join(f"{k} = {v}\n" for k, v in TINY_ENCODER.items()) if self.tiny else ""
        self.config = self.workdir / "paper_train.ini"
        self.config.write_text(
            f"[data]\nmanifest = {self.manifest}\n\n[encoder]\n{encoder_keys}\n"
            f"[train]\nepochs = {self.EPOCHS}\nbatch_size = 4\nlr = 1e-4\nwarmup_epochs = 0\n"
            f"cooldown_epochs = 0\nseed = {self.seed}\nwindow_seconds = 5.0\n")
        self.runs = 0
        self._warm_up(self.test_recs[0], self._seeded_model())

    def unit(self) -> UnitResult:
        self.runs += 1
        out = self.workdir / f"run{self.runs}"
        t0 = clock()
        code = _cli(["train", "--config", str(self.config), "--out", str(out)])
        seconds = clock() - t0
        if code != cli.EXIT_OK:
            raise RuntimeError(f"resppain train exited {code}")
        n_train = self.EPOCHS * self.n_train
        metrics = (out / "metrics.tsv").read_text()
        problems = _metrics_rows_finite(metrics, self.EPOCHS)
        checkpoint = out / "checkpoint_final.bin"
        enc_cfg, params, prep, variant = trn.load_pipeline(checkpoint)
        if (enc_cfg, prep, variant) != (self.enc_cfg, self.prep, self.variant):
            problems.append("final checkpoint reloads with other settings than were trained")
        ev = evaluate_each(self.test_recs * self.EVAL_PASSES, enc_cfg, params, prep, variant)
        result = UnitResult(samples=n_train, seconds=seconds, latencies_ms=ev.latencies_ms,
                            digest=digest(metrics, checkpoint.read_bytes(), *ev.lines),
                            attempted=n_train + len(ev.lines),
                            failed=ev.failed + (n_train if problems else 0), problems=problems)
        shutil.rmtree(out)
        return result


def _cli(argv: list[str]) -> int:
    """Run `resppain <argv>` in process; its stdout goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


WORKLOADS = {w.name: w for w in (DeskTrain, PaperEval, PaperTrain)}
