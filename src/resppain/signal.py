"""Respiration recordings: types, preprocessing, synthesis, and text I/O.

A recording is a 1-D sample vector at the rate its file states (100 Hz
in all shipped configs) with a three-level pain label.  Preprocessing is
band-pass filtering to the adult breathing band, zero-padding to a fixed
length, and segmentation into fixed-duration windows; each step is a
standalone function so tests can pin its contract in isolation.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import butter, sosfilt, sosfilt_zi


class DataError(ValueError):
    """Malformed recording, manifest, or incompatible signal arguments."""


class PainLabel(enum.Enum):
    NO_PAIN = "NoPain"
    LOW_PAIN = "LowPain"
    HIGH_PAIN = "HighPain"

    @classmethod
    def from_string(cls, s: str) -> "PainLabel":
        for member in cls:
            if member.value == s:
                return member
        raise DataError(f"unknown label {s!r}; expected one of {[m.value for m in cls]}")

    @property
    def index(self) -> int:
        return list(type(self)).index(self)


N_CLASSES = len(PainLabel)

# Nominal breathing band (Hz) used by every shipped config.
BAND_LOW_HZ = 0.05
BAND_HIGH_HZ = 0.5
PAD_TARGET = 1150
SAMPLE_RATE_HZ = 100.0


@dataclass(frozen=True)
class RespirationRecord:
    """One recording: samples (float32), rate in Hz, subject id, label."""

    samples: np.ndarray
    sample_rate_hz: float
    subject_id: str
    label: PainLabel

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=np.float32)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError(f"samples must be a non-empty vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"record {self.subject_id!r} contains non-finite samples")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz}")
        if "".join(self.subject_id.splitlines()) != self.subject_id:
            raise DataError(f"subject id {self.subject_id!r} holds a line break, which a record file cannot store")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class PreprocessConfig:
    """Filter/pad/window settings shared by training and evaluation.  Construction
    checks every field, so `n_windows` never raises."""

    sample_rate_hz: float = SAMPLE_RATE_HZ
    filter_enabled: bool = True
    filter_low_hz: float = BAND_LOW_HZ
    filter_high_hz: float = BAND_HIGH_HZ
    pad_len: int = PAD_TARGET
    window_seconds: float = 5.0

    def __post_init__(self):
        _check_band(self.filter_low_hz, self.filter_high_hz, self.sample_rate_hz)
        if self.filter_enabled:   # a band the filter cannot be designed for fails here
            _bandpass_sos(self.filter_low_hz, self.filter_high_hz, self.sample_rate_hz)
        if not math.isfinite(self.sample_rate_hz):   # with the filter off, inf passes the band check
            raise DataError(f"sample_rate_hz must be finite, got {self.sample_rate_hz}")
        if self.pad_len < 1:
            raise DataError(f"pad_len must be >= 1, got {self.pad_len}")
        if not (math.isfinite(self.window_seconds) and self.window_seconds > 0):
            raise DataError(f"window_seconds must be finite and positive, got {self.window_seconds}")
        _window_samples(self.window_seconds, self.sample_rate_hz)

    @property
    def n_windows(self) -> int:
        return n_windows_for(self.pad_len, self.window_seconds, self.sample_rate_hz)


# ---------------------------------------------------------------------------
# preprocessing

def _check_band(low_hz: float, high_hz: float, sample_rate_hz: float) -> None:
    if not (0.0 < low_hz < high_hz < sample_rate_hz / 2.0):
        raise DataError(f"band ({low_hz}, {high_hz}) Hz must satisfy 0 < low < high < "
                        f"{sample_rate_hz / 2.0} (Nyquist)")


@functools.lru_cache(maxsize=8)
def _bandpass_sos(low_hz: float, high_hz: float, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The Butterworth sections for one band and rate and their step-response
    initial conditions (`sosfilt_zi`), solved once and frozen.  A band whose
    sections or initial conditions fail or are not finite, such as 3e-8 to
    0.5 Hz, is a DataError."""
    try:
        # sosfilt_zi's last DC gain, which it never uses, is 0/0 for some
        # accepted bands with a tiny low edge (1e-7 Hz at 100 Hz)
        with np.errstate(divide="ignore", invalid="ignore"):
            sos = butter(2, [low_hz, high_hz], btype="bandpass", fs=sample_rate_hz, output="sos")
            zi = sosfilt_zi(sos)
            if not (np.isfinite(sos).all() and np.isfinite(zi).all()):
                raise ValueError("its sections or initial conditions are not finite")
    except (ValueError, np.linalg.LinAlgError) as e:
        raise DataError(f"band ({low_hz}, {high_hz}) Hz at {sample_rate_hz} Hz cannot be filtered: {e}") from e
    sos.flags.writeable = False
    zi.flags.writeable = False
    return sos, zi


def bandpass_filter(x: np.ndarray, sample_rate_hz: float,
                    low_hz: float = BAND_LOW_HZ, high_hz: float = BAND_HIGH_HZ) -> np.ndarray:
    """Zero-phase 4th-order Butterworth band-pass.

    Built as a second-order-section cascade (two biquads = four poles) and
    run forward then backward, which squares the magnitude response and
    cancels the phase.  Filtering happens in float64: the low band edge
    sits at 1e-3 of Nyquist, where a transfer-function realization would
    be numerically fragile.

    The sections and their initial conditions depend only on (low_hz,
    high_hz, sample_rate_hz), so they are solved once per such key and
    kept frozen in a small LRU cache: a hit returns what `butter` and
    `sosfilt_zi` would compute for the same key, so no entry can go stale.
    The passes are the steps of scipy's `sosfiltfilt`, written out so that
    they take the cached initial conditions: an odd extension of `padlen`
    samples at each end, `sosfilt` started at `zi * ext[0]`, `sosfilt` on
    the reversed output started at `zi * y[-1]`, then reversal and trimming.
    The output equals `sosfiltfilt`'s bit for bit, and since no call solves
    the initial conditions again, none needs an `errstate`.  `sosfilt` runs
    on a copy of the sections (12 floats), since it refuses a read-only array.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise DataError(f"bandpass_filter expects a vector, got shape {x.shape}")
    _check_band(low_hz, high_hz, sample_rate_hz)
    sos, zi = _bandpass_sos(low_hz, high_hz, sample_rate_hz)
    padlen = 3 * (2 * sos.shape[0] + 1)
    if x.size <= padlen:
        raise DataError(f"signal of {x.size} samples is too short to filter (needs > {padlen})")
    x = x.astype(np.float64)
    ext = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2:-padlen - 2:-1]))
    sos = sos.copy()
    y, _ = sosfilt(sos, ext, zi=zi * ext[0])
    y, _ = sosfilt(sos, y[::-1], zi=zi * y[-1])
    y = y[::-1][padlen:-padlen]
    if not np.isfinite(y).all():
        raise DataError(f"band ({low_hz}, {high_hz}) Hz at {sample_rate_hz} Hz gave a non-finite output")
    return np.ascontiguousarray(y, dtype=np.float32)


def pad_to_fixed(x: np.ndarray, target_len: int = PAD_TARGET) -> np.ndarray:
    """Append zeros up to target_len; longer inputs are rejected."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 1:
        raise DataError(f"pad_to_fixed expects a vector, got shape {x.shape}")
    if x.size > target_len:
        raise DataError(f"signal of {x.size} samples exceeds pad target {target_len}")
    out = np.zeros(target_len, dtype=np.float32)
    out[: x.size] = x
    return out


def n_windows_for(length: int, window_seconds: float, sample_rate_hz: float) -> int:
    """ceil(length / window_samples) for the given window duration."""
    w = _window_samples(window_seconds, sample_rate_hz)
    return int(math.ceil(length / w))


def _window_samples(window_seconds: float, sample_rate_hz: float) -> int:
    w_exact = window_seconds * sample_rate_hz
    w = int(round(w_exact)) if math.isfinite(w_exact) else 0
    if w < 1 or abs(w_exact - w) > 1e-9:
        raise DataError(f"window of {window_seconds}s at {sample_rate_hz} Hz is not a whole "
                        f"positive number of samples ({w_exact})")
    return w


def segment_windows(x: np.ndarray, window_seconds: float, sample_rate_hz: float) -> np.ndarray:
    """Split into ceil(len/w) contiguous windows of w = window_seconds * rate
    samples, zero-padding the tail so every window has full length: a
    (n_windows, w) float32 array."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 1 or x.size == 0:
        raise DataError(f"segment_windows expects a non-empty vector, got shape {x.shape}")
    w = _window_samples(window_seconds, sample_rate_hz)
    padded = np.zeros(n_windows_for(x.size, window_seconds, sample_rate_hz) * w, dtype=np.float32)
    padded[: x.size] = x
    return padded.reshape(-1, w)


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class _ClassShape:
    carrier_hz: float
    amplitude: float
    am_depth: float
    am_hz: float


# Class-conditional generator constants: breathing rate rises with pain
# level and the envelope becomes deeper and faster.  Carriers sit inside
# the band so the filter passes the discriminative structure.
SYNTH_CLASS_SHAPES: dict[PainLabel, _ClassShape] = {
    PainLabel.NO_PAIN: _ClassShape(carrier_hz=0.15, amplitude=0.8, am_depth=0.10, am_hz=0.05),
    PainLabel.LOW_PAIN: _ClassShape(carrier_hz=0.25, amplitude=1.1, am_depth=0.25, am_hz=0.08),
    PainLabel.HIGH_PAIN: _ClassShape(carrier_hz=0.40, amplitude=1.4, am_depth=0.40, am_hz=0.11),
}
SYNTH_FREQ_JITTER_HZ = 0.01
SYNTH_NOISE_SIGMA = 0.05


def synth_record(label: PainLabel, subject_id: str, rng: np.random.Generator,
                 duration_s: float = 10.0, sample_rate_hz: float = SAMPLE_RATE_HZ) -> RespirationRecord:
    """One synthetic breathing trace for the given class."""
    shape = SYNTH_CLASS_SHAPES[label]
    n_exact = duration_s * sample_rate_hz
    n = int(round(n_exact)) if math.isfinite(n_exact) else 0
    if not 1 <= n <= np.iinfo(np.intp).max:
        raise DataError(f"{duration_s} s at {sample_rate_hz} Hz is not a sample count "
                        f"in [1, {np.iinfo(np.intp).max}] ({n_exact})")
    t = np.arange(n, dtype=np.float64) / sample_rate_hz
    f = shape.carrier_hz + rng.uniform(-SYNTH_FREQ_JITTER_HZ, SYNTH_FREQ_JITTER_HZ)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 1.0 + shape.am_depth * np.sin(2.0 * np.pi * shape.am_hz * t + am_phase)
    x = shape.amplitude * envelope * np.sin(2.0 * np.pi * f * t + phase)
    x = x + SYNTH_NOISE_SIGMA * rng.standard_normal(n)
    return RespirationRecord(samples=x.astype(np.float32), sample_rate_hz=sample_rate_hz,
                             subject_id=subject_id, label=label)


def synth_dataset(n_per_class: int, seed: int | list[int], duration_s: float = 10.0,
                  sample_rate_hz: float = SAMPLE_RATE_HZ, id_prefix: str = "synth") -> list[RespirationRecord]:
    """Balanced synthetic dataset, bit-reproducible for a given seed."""
    if n_per_class < 1:
        raise DataError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng(seed)
    records = []
    for label in PainLabel:
        for i in range(n_per_class):
            sid = f"{id_prefix}_{label.value}_{i:04d}"
            records.append(synth_record(label, sid, rng, duration_s, sample_rate_hz))
    return records


# ---------------------------------------------------------------------------
# text I/O
#
# One recording per UTF-8 text file:
#     subject_id=<string>
#     label=<NoPain|LowPain|HighPain>
#     sample_rate_hz=<repr of the rate in Hz>
#     <one decimal sample per line>
# A dataset manifest lists "<relative_path>\t<split>" per line with split
# in {train, val, test}.

SPLITS = ("train", "val", "test")


def save_record(path: str | Path, record: RespirationRecord) -> None:
    """Write one recording; sample formatting round-trips float32 exactly."""
    lines = [f"subject_id={record.subject_id}", f"label={record.label.value}",
             f"sample_rate_hz={float(record.sample_rate_hz)!r}"]
    # repr of the exact float64 image of each float32 sample is lossless
    lines.extend(repr(float(v)) for v in record.samples)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> RespirationRecord:
    """Parse one recording file, at the rate it states; malformed content raises DataError."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as e:   # undecodable bytes, or a NUL in the path
        raise DataError(f"cannot read record {path}: {e}") from e
    lines = raw.splitlines()
    if len(lines) < 4:
        raise DataError(f"{path}: expected three header lines plus samples, got {len(lines)} lines")
    if not lines[0].startswith("subject_id="):
        raise DataError(f"{path}: first line must be 'subject_id=<s>', got {lines[0]!r}")
    if not lines[1].startswith("label="):
        raise DataError(f"{path}: second line must be 'label=<level>', got {lines[1]!r}")
    if not lines[2].startswith("sample_rate_hz="):
        raise DataError(f"{path}: third line must be 'sample_rate_hz=<Hz>', got {lines[2]!r}")
    subject_id = lines[0][len("subject_id="):]
    label = PainLabel.from_string(lines[1][len("label="):])
    if "" in lines[3:]:   # save_record writes none: a blank line means a damaged file
        raise DataError(f"{path}:{lines.index('', 3) + 1}: blank line among the samples")
    numbers = [lines[2][len("sample_rate_hz="):], *lines[3:]]
    for s in numbers:   # float() also takes '1_0', ' 1.0' and non-ASCII digits; repr writes none of them
        if not s.isascii() or "_" in s or s != s.strip():
            raise DataError(f"{path}: number line {s!r} must be plain ASCII, with no '_' or padding")
    try:
        sample_rate_hz = float(numbers[0])
        values = np.array([float(s) for s in numbers[1:]])
    except ValueError as e:
        raise DataError(f"{path}: bad sample rate or sample line: {e}") from e
    with np.errstate(over="ignore"):   # a finite value past the float32 range is reported below
        samples = values.astype(np.float32)
    beyond = np.flatnonzero(~np.isfinite(samples) & np.isfinite(values))
    if beyond.size:
        raise DataError(f"{path}: sample {beyond[0]} ({float(values[beyond[0]])!r}) is outside the float32 range")
    try:   # the record checks its rate and samples; say which file failed
        return RespirationRecord(samples=samples, sample_rate_hz=sample_rate_hz,
                                 subject_id=subject_id, label=label)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def write_manifest(path: str | Path, entries: list[tuple[str, str]]) -> None:
    """entries: (relative_path, split) rows, at least one."""
    path = Path(path)
    if not entries:   # read_manifest refuses an empty file
        raise DataError(f"{path}: manifest is empty")
    for rel, split in entries:
        if "\t" in rel or "".join(rel.splitlines()) != rel:
            raise DataError(f"manifest path {rel!r} holds a tab or a line break, which a manifest cannot store")
        if split not in SPLITS:
            raise DataError(f"manifest split {split!r} not in {SPLITS}")
    path.write_text("".join(f"{rel}\t{split}\n" for rel, split in entries), encoding="utf-8")


def read_manifest(path: str | Path) -> list[tuple[str, str]]:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as e:   # undecodable bytes, or a NUL in the path
        raise DataError(f"cannot read manifest {path}: {e}") from e
    entries = []
    for ln, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{ln}: expected '<path>\\t<split>', got {line!r}")
        rel, split = parts
        if split not in SPLITS:
            raise DataError(f"{path}:{ln}: split {split!r} not in {SPLITS}")
        entries.append((rel, split))
    if not entries:
        raise DataError(f"{path}: manifest is empty")
    return entries


def load_dataset(manifest_path: str | Path) -> dict[str, list[RespirationRecord]]:
    """Load every record listed in a manifest, grouped by split; record paths name their UTF-8 bytes."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    out: dict[str, list[RespirationRecord]] = {s: [] for s in SPLITS}
    for rel, split in read_manifest(manifest_path):
        out[split].append(load_record(root / os.fsdecode(rel.encode("utf-8"))))
    return out
