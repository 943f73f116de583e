"""Preprocessing contracts: filter response, padding and windowing
arithmetic, synthetic generator statistics, and text round trips."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, sosfiltfilt

from helpers import fresh
from resppain import signal as sig
from resppain import training as trn

FS = 100.0


def _tone(f_hz: float, duration_s: float = 120.0) -> np.ndarray:
    t = np.arange(int(duration_s * FS)) / FS
    return np.sin(2.0 * np.pi * f_hz * t).astype(np.float32)


def _steady_amplitude(y: np.ndarray) -> float:
    core = slice(int(20 * FS), int(100 * FS))
    return float(np.abs(y[core]).max())


# ---------------------------------------------------------------------------
# band-pass filter

def test_filter_passband_gain():
    # squared 2nd-order response keeps in-band tones near unity
    assert _steady_amplitude(sig.bandpass_filter(_tone(0.25), FS)) > 0.9
    assert _steady_amplitude(sig.bandpass_filter(_tone(0.15), FS)) > 0.9


def test_filter_stopband_attenuation():
    # >= 20 dB at 5 Hz (measured ~48 dB; forward-backward pass)
    amp = _steady_amplitude(sig.bandpass_filter(_tone(5.0), FS))
    assert 20.0 * np.log10(1.0 / amp) >= 20.0


def test_filter_band_edges_near_half_power_squared():
    # filtfilt squares the magnitude: -3 dB edges become -6 dB (gain 0.5)
    for edge in (sig.BAND_LOW_HZ, sig.BAND_HIGH_HZ):
        amp = _steady_amplitude(sig.bandpass_filter(_tone(edge), FS))
        assert abs(amp - 0.5) < 0.05


def test_filter_zero_phase():
    # group delay below one sample at the carrier
    f0 = 0.25
    x = _tone(f0)
    y = sig.bandpass_filter(x, FS).astype(np.float64)
    n = x.size
    k = int(round(f0 * n / FS))
    dphi = np.angle(np.fft.rfft(y)[k] / np.fft.rfft(x.astype(np.float64))[k])
    delay_samples = abs(dphi / (2.0 * np.pi * f0) * FS)
    assert delay_samples < 1.0


def test_filter_removes_linear_drift():
    t = np.arange(int(120 * FS)) / FS
    resp = 0.8 * np.sin(2.0 * np.pi * 0.25 * t)
    drift = np.linspace(0.0, 2.0, t.size)
    basis = np.vstack([t, np.ones_like(t)]).T
    slope_before = np.linalg.lstsq(basis, resp + drift, rcond=None)[0][0]
    filtered = sig.bandpass_filter((resp + drift).astype(np.float32), FS).astype(np.float64)
    slope_after = np.linalg.lstsq(basis, filtered, rcond=None)[0][0]
    assert abs(slope_after) < 0.05 * abs(slope_before)


def test_filter_linearity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=2000).astype(np.float32)
    b = rng.normal(size=2000).astype(np.float32)
    lhs = sig.bandpass_filter(a + b, FS)
    rhs = sig.bandpass_filter(a, FS) + sig.bandpass_filter(b, FS)
    assert float(np.abs(lhs - rhs).max()) < 1e-5


def test_filter_output_dtype_and_errors():
    y = sig.bandpass_filter(_tone(0.2, 30.0), FS)
    assert y.dtype == np.float32
    with pytest.raises(sig.DataError):
        sig.bandpass_filter(np.zeros(10, dtype=np.float32), FS)   # too short
    with pytest.raises(sig.DataError):
        sig.bandpass_filter(_tone(0.2, 30.0), FS, low_hz=0.5, high_hz=0.05)
    with pytest.raises(sig.DataError):
        sig.bandpass_filter(_tone(0.2, 30.0), FS, low_hz=0.05, high_hz=60.0)


def test_filter_design_cache_matches_a_fresh_design():
    # calls alternate between two bands and two rates; each equals a
    # filter designed afresh for its own key
    x = np.random.default_rng(1).normal(size=1500).astype(np.float32)
    for _ in range(2):
        for rate in (FS, 50.0):
            for low, high in ((0.05, 0.5), (0.1, 2.0)):
                sos = butter(2, [low, high], btype="bandpass", fs=rate, output="sos")
                want = sosfiltfilt(sos, x.astype(np.float64)).astype(np.float32)
                np.testing.assert_array_equal(sig.bandpass_filter(x, rate, low, high), want)
    assert not any(a.flags.writeable for a in sig._bandpass_sos(0.05, 0.5, FS))


def test_tiny_low_edge_filters_without_a_warning():
    # sosfilt_zi's unused DC gain is 0/0 for this band; the output is finite
    x = _tone(0.2, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = sig.bandpass_filter(x, FS, low_hz=1e-7, high_hz=0.5)
    assert np.isfinite(y).all()
    with pytest.raises(sig.DataError, match=r"band \(1e-07, 0.5\) Hz .* non-finite output"):
        sig.bandpass_filter(np.where(np.arange(x.size) == 100, np.nan, x), FS, low_hz=1e-7, high_hz=0.5)


_NYQUIST = FS / 2.0
_EDGE = st.one_of(st.floats(0.0, 1e-6, exclude_min=True),   # where the design breaks down
                  st.floats(0.0, _NYQUIST, exclude_min=True, exclude_max=True),
                  st.floats(_NYQUIST * (1 - 1e-9), _NYQUIST, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(_EDGE, _EDGE)
def test_any_valid_band_filters_to_finite_output_or_raises_data_error(a, b):
    # every 0 < low < high < Nyquist: a DataError naming the band, or a finite filter;
    # PreprocessConfig accepts exactly the bands the filter takes
    low, high = sorted((a, b))
    if not low < high:
        return
    x = np.random.default_rng(2).normal(size=300).astype(np.float32)
    try:
        y = sig.bandpass_filter(x, FS, low, high)
    except sig.DataError as e:
        assert f"band ({low!r}, {high!r}) Hz" in str(e)
        with pytest.raises(sig.DataError):
            sig.PreprocessConfig(filter_low_hz=low, filter_high_hz=high)
    else:
        assert np.isfinite(y).all()
        sig.PreprocessConfig(filter_low_hz=low, filter_high_hz=high)


@st.composite
def _filter_case(draw):
    rate = draw(st.floats(25.0, 200.0))
    low, high = sorted(e * rate / FS for e in (draw(_EDGE), draw(_EDGE)))   # _EDGE's bands, at this rate
    assume(0.0 < low < high < rate / 2.0)
    n = draw(st.integers(16, 3000))   # padlen + 1 and up
    scale = draw(st.floats(-1e6, 1e6))
    kind = draw(st.sampled_from(["normal", "constant", "step"]))
    if kind == "normal":
        x = scale * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    elif kind == "constant":
        x = np.full(n, scale)
    else:
        x = np.where(np.arange(n) < draw(st.integers(1, n - 1)), 0.0, scale)
    return x.astype(np.float32), rate, low, high


@settings(max_examples=300, deadline=None)
@given(_filter_case())
@example((_tone(0.2, 30.0), FS, 1e-7, 0.5))
def test_filter_equals_sosfiltfilt_bit_for_bit_or_raises_data_error(case):
    # the written-out passes on the cached initial conditions are scipy's
    # sosfiltfilt exactly; where scipy fails or goes non-finite, a DataError
    x, rate, low, high = case
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            sos = butter(2, [low, high], btype="bandpass", fs=rate, output="sos")
            want = sosfiltfilt(sos, x.astype(np.float64))
        ok = bool(np.isfinite(want).all())
    except (ValueError, np.linalg.LinAlgError):
        ok = False
    if ok:
        got = sig.bandpass_filter(x, rate, low, high)
        np.testing.assert_array_equal(got.view(np.uint32), want.astype(np.float32).view(np.uint32))
    else:
        with pytest.raises(sig.DataError):
            sig.bandpass_filter(x, rate, low, high)


# ---------------------------------------------------------------------------
# padding and windowing

def test_pad_to_fixed_examples():
    x = np.arange(1000, dtype=np.float32)
    padded = sig.pad_to_fixed(x, 1150)
    assert padded.shape == (1150,)
    np.testing.assert_array_equal(padded[:1000], x)
    np.testing.assert_array_equal(padded[1000:], np.zeros(150, dtype=np.float32))
    with pytest.raises(sig.DataError):
        sig.pad_to_fixed(np.zeros(1151, dtype=np.float32), 1150)
    same = sig.pad_to_fixed(np.ones(4, dtype=np.float32), 4)
    np.testing.assert_array_equal(same, np.ones(4, dtype=np.float32))


def test_n_windows_table():
    # ceil(1150 / (T * 100)) for T = 1..5
    want = {1: 12, 2: 6, 3: 4, 4: 3, 5: 3}
    for t_sec, n in want.items():
        assert sig.n_windows_for(1150, float(t_sec), FS) == n


def test_segment_windows_five_second_example():
    # 1150 samples at 5 s windows: 3 windows, tail padded by 350
    x = np.arange(1150, dtype=np.float32)
    windows = sig.segment_windows(x, 5.0, FS)
    assert windows.shape == (3, 500)
    np.testing.assert_array_equal(windows[0], x[:500])
    np.testing.assert_array_equal(windows[1], x[500:1000])
    np.testing.assert_array_equal(windows[2][:150], x[1000:])
    np.testing.assert_array_equal(windows[2][150:], np.zeros(350, dtype=np.float32))
    flat = windows.reshape(-1)
    np.testing.assert_array_equal(flat[:1150], x)   # exact reconstruction


def test_segment_windows_exact_multiple_has_no_padding():
    x = np.arange(1000, dtype=np.float32)
    windows = sig.segment_windows(x, 5.0, FS)
    assert windows.shape == (2, 500)
    np.testing.assert_array_equal(windows.reshape(-1), x)


def test_window_samples_must_be_integral():
    with pytest.raises(sig.DataError):
        sig.n_windows_for(1000, 0.0015, FS)   # 0.15 samples
    for bad in (float("nan"), float("inf"), 1e307):   # not a sample count at all
        with pytest.raises(sig.DataError):
            sig.n_windows_for(1000, bad, FS)
    assert sig.n_windows_for(1000, 2.5, FS) == 4   # 250 samples is integral


def test_preprocess_config_validation_and_n_windows():
    cfg = sig.PreprocessConfig()
    assert cfg.n_windows == 3
    assert sig.PreprocessConfig(window_seconds=1.0).n_windows == 12
    with pytest.raises(sig.DataError):
        sig.PreprocessConfig(filter_low_hz=0.5, filter_high_hz=0.05)
    with pytest.raises(sig.DataError):
        sig.PreprocessConfig(filter_high_hz=60.0)
    with pytest.raises(sig.DataError):
        sig.PreprocessConfig(pad_len=0)
    with pytest.raises(sig.DataError):
        sig.PreprocessConfig(window_seconds=-1.0)
    with pytest.raises(sig.DataError, match="window_seconds must be finite"):
        sig.PreprocessConfig(window_seconds=float("nan"))
    with pytest.raises(sig.DataError, match="sample_rate_hz must be finite"):
        sig.PreprocessConfig(sample_rate_hz=float("inf"), filter_enabled=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_preprocess_config_that_constructs_never_fails_later(data):
    # either construction raises, or every record the pad length admits preprocesses into
    # n_windows windows; arbitrary durations are rarely whole sample counts, so some are k / rate
    rate = data.draw(st.floats(1.0, 1000.0), "sample_rate_hz")
    window = data.draw(st.one_of(st.floats(0.0, 100.0, exclude_min=True),
                                 st.integers(1, int(100 * rate)).map(lambda k: k / rate)), "window_seconds")
    pad_len = data.draw(st.integers(1, 5000), "pad_len")
    try:
        prep = sig.PreprocessConfig(sample_rate_hz=rate, filter_enabled=False, filter_low_hz=rate / 8,
                                    filter_high_hz=rate / 4, pad_len=pad_len, window_seconds=window)
    except sig.DataError:
        return
    n = data.draw(st.integers(1, pad_len), "record length")
    windows, padded = trn.preprocess(np.ones(n, dtype=np.float32), prep)
    assert windows.shape[0] == prep.n_windows
    assert padded.shape == (pad_len,)


# ---------------------------------------------------------------------------
# records and synthetic data

def test_record_validation():
    with pytest.raises(sig.DataError):
        sig.RespirationRecord(np.zeros((2, 2), dtype=np.float32), FS, "s", sig.PainLabel.NO_PAIN)
    with pytest.raises(sig.DataError):
        sig.RespirationRecord(np.array([], dtype=np.float32), FS, "s", sig.PainLabel.NO_PAIN)
    with pytest.raises(sig.DataError):
        sig.RespirationRecord(np.array([1.0, np.nan], dtype=np.float32), FS, "s", sig.PainLabel.NO_PAIN)
    with pytest.raises(sig.DataError):
        sig.RespirationRecord(np.ones(5, dtype=np.float32), 0.0, "s", sig.PainLabel.NO_PAIN)
    for sid in ("x\x85y", "a\nlabel=HighPain", "s\r"):   # its record file could not hold the id
        with pytest.raises(sig.DataError, match=re.escape(repr(sid))):
            sig.RespirationRecord(np.ones(5, dtype=np.float32), FS, sid, sig.PainLabel.NO_PAIN)
    rec = sig.RespirationRecord(np.ones(5, dtype=np.float64), FS, "s", sig.PainLabel.LOW_PAIN)
    assert rec.samples.dtype == np.float32
    with pytest.raises(ValueError):
        rec.samples[0] = 2.0


def test_pain_label_round_trip():
    assert sig.N_CLASSES == 3
    for i, label in enumerate(sig.PainLabel):
        assert label.index == i
        assert sig.PainLabel.from_string(label.value) is label
    with pytest.raises(sig.DataError):
        sig.PainLabel.from_string("Agony")


def test_synth_dataset_balance_and_determinism():
    a = sig.synth_dataset(4, seed=11)
    b = sig.synth_dataset(4, seed=11)
    c = sig.synth_dataset(4, seed=12)
    assert len(a) == 12
    for label in sig.PainLabel:
        assert sum(1 for r in a if r.label is label) == 4
    for ra, rb in zip(a, b):
        assert ra.subject_id == rb.subject_id
        np.testing.assert_array_equal(ra.samples, rb.samples)
    assert any(not np.array_equal(ra.samples, rc.samples) for ra, rc in zip(a, c))
    assert a[0].samples.shape == (1000,)   # 10 s default at 100 Hz


def test_synth_carrier_frequencies_recoverable():
    # windowed zero-padded FFT peak lands on the class carrier
    # within the +-0.01 Hz jitter (tolerance 0.02) on a 60 s trace.
    for label, shape in sig.SYNTH_CLASS_SHAPES.items():
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            rec = sig.synth_record(label, "s", rng, duration_s=60.0)
            x = rec.samples.astype(np.float64)
            x -= x.mean()
            n_fft = 1 << 18
            spec = np.abs(np.fft.rfft(x * np.hanning(x.size), n=n_fft))
            freqs = np.fft.rfftfreq(n_fft, 1.0 / FS)
            mask = freqs <= 1.0
            peak = freqs[mask][int(np.argmax(spec[mask]))]
            assert abs(peak - shape.carrier_hz) < 0.02, (label, seed, peak)


def test_synth_class_ordering():
    # amplitude and carrier rise with the pain level
    shapes = [sig.SYNTH_CLASS_SHAPES[label] for label in sig.PainLabel]
    assert shapes[0].carrier_hz < shapes[1].carrier_hz < shapes[2].carrier_hz
    assert shapes[0].amplitude < shapes[1].amplitude < shapes[2].amplitude
    for s in shapes:
        assert sig.BAND_LOW_HZ < s.carrier_hz < sig.BAND_HIGH_HZ


# ---------------------------------------------------------------------------
# text I/O

def test_record_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    rec = sig.synth_record(sig.PainLabel.HIGH_PAIN, "subj_07", rng)
    p = tmp_path / "rec.txt"
    sig.save_record(p, rec)
    back = sig.load_record(p)
    assert back.subject_id == "subj_07"
    assert back.label is sig.PainLabel.HIGH_PAIN
    np.testing.assert_array_equal(back.samples, rec.samples)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_record_rate_round_trips_bit_for_bit(tmp_path_factory, rate):
    p = fresh(tmp_path_factory.getbasetemp() / "rate.txt")
    rec = sig.RespirationRecord(samples=np.array([0.5, -1.0]), sample_rate_hz=rate,
                                subject_id="s", label=sig.PainLabel.LOW_PAIN)
    sig.save_record(p, rec)
    back = sig.load_record(p).sample_rate_hz
    assert type(back) is float and back.hex() == rate.hex()


@pytest.mark.parametrize("third", [None, "abc", "0", "-1", "nan", "inf"])
def test_record_rate_line_missing_or_bad_is_named(tmp_path, third):
    p = tmp_path / "rec.txt"
    p.write_text("subject_id=s\nlabel=NoPain\nsample_rate_hz=50.0\n1.0\n2.0\n", encoding="utf-8")
    assert sig.load_record(p).sample_rate_hz == 50.0   # the same file with a good rate loads
    header = "subject_id=s\nlabel=NoPain\n" + ("" if third is None else f"sample_rate_hz={third}\n")
    p.write_text(header + "1.0\n2.0\n", encoding="utf-8")
    with pytest.raises(sig.DataError, match=re.escape(str(p))):
        sig.load_record(p)


def test_record_rejects_an_infinite_rate():
    with pytest.raises(sig.DataError, match="sample_rate_hz must be finite and positive, got inf"):
        sig.RespirationRecord(samples=np.ones(2), sample_rate_hz=float("inf"), subject_id="s",
                              label=sig.PainLabel.NO_PAIN)


def test_load_record_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("nonsense\nlabel=NoPain\nsample_rate_hz=100.0\n1.0\n")
    with pytest.raises(sig.DataError, match="first line must be"):
        sig.load_record(p)
    p.write_text("subject_id=s\nlabel=Agony\nsample_rate_hz=100.0\n1.0\n")
    with pytest.raises(sig.DataError, match="unknown label 'Agony'"):
        sig.load_record(p)
    p.write_text("subject_id=s\nlabel=NoPain\nsample_rate_hz=100.0\n1.0\nnot-a-number\n")
    with pytest.raises(sig.DataError, match="bad sample rate or sample line"):
        sig.load_record(p)
    p.write_text("subject_id=s\n")
    with pytest.raises(sig.DataError, match="expected three header lines"):
        sig.load_record(p)
    with pytest.raises(sig.DataError):
        sig.load_record(tmp_path / "missing.txt")


@pytest.mark.parametrize("samples, line", [("1.0\n\n\n2.0\n", 5), ("1.0\n2.0\n\n", 6), ("\n1.0\n", 4)])
def test_blank_sample_line_is_named(tmp_path, samples, line):
    p = tmp_path / "rec.txt"
    p.write_text("subject_id=s\nlabel=NoPain\nsample_rate_hz=100.0\n" + samples, encoding="utf-8")
    with pytest.raises(sig.DataError, match=re.escape(f"{p}:{line}: blank line")):
        sig.load_record(p)


# every boundary str.splitlines splits on, and the manifest's column separator
_UNSTORABLE = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.sampled_from(sig.SPLITS)), max_size=3))
@example([("a\x85b.txt", "train")])
@example([("a\tb.txt", "val")])
@example([])
def test_manifest_round_trips_or_the_path_is_refused(tmp_path_factory, entries):
    path = fresh(tmp_path_factory.getbasetemp() / "paths.tsv")
    try:
        sig.write_manifest(path, entries)
    except sig.DataError as e:   # only no entries, or a path holding a tab or a line break, is refused
        if not entries:
            assert str(e) == f"{path}: manifest is empty" and not path.exists()
            return
        refused = [rel for rel, _ in entries if repr(rel) in str(e)]
        assert refused and any(c in refused[0] for c in _UNSTORABLE), str(e)
        return
    assert sig.read_manifest(path) == entries


def test_manifest_round_trip_and_errors(tmp_path):
    entries = [("a.txt", "train"), ("b.txt", "val"), ("c.txt", "test")]
    man = tmp_path / "manifest.tsv"
    sig.write_manifest(man, entries)
    assert sig.read_manifest(man) == entries
    with pytest.raises(sig.DataError):
        sig.write_manifest(man, [("a.txt", "holdout")])
    man.write_text("a.txt train\n")   # space, not tab
    with pytest.raises(sig.DataError):
        sig.read_manifest(man)
    man.write_text("\n\n")
    with pytest.raises(sig.DataError):
        sig.read_manifest(man)
    with pytest.raises(sig.DataError):
        sig.read_manifest(tmp_path / "missing.tsv")


def test_load_dataset_groups_by_split(tmp_path):
    records = sig.synth_dataset(1, seed=3)
    entries = []
    for i, rec in enumerate(records):
        rel = f"r{i}.txt"
        sig.save_record(tmp_path / rel, rec)
        entries.append((rel, sig.SPLITS[i % 3]))
    sig.write_manifest(tmp_path / "m.tsv", entries)
    splits = sig.load_dataset(tmp_path / "m.tsv")
    assert {k: len(v) for k, v in splits.items()} == {"train": 1, "val": 1, "test": 1}
    np.testing.assert_array_equal(splits["train"][0].samples, records[0].samples)


def test_undecodable_record_and_manifest_are_data_errors(tmp_path):
    rec = tmp_path / "rec.txt"
    rec.write_bytes(b"subject_id=\xff\nlabel=NoPain\n1.0\n")
    with pytest.raises(sig.DataError, match="cannot read record"):
        sig.load_record(rec)
    man = tmp_path / "manifest.tsv"
    man.write_bytes(b"rec.txt\ttrain\n\xfe\n")
    with pytest.raises(sig.DataError, match="cannot read manifest"):
        sig.read_manifest(man)


def test_manifest_path_with_nul_is_a_data_error(tmp_path):
    man = tmp_path / "manifest.tsv"
    man.write_text("a\x00b.txt\ttrain\n", encoding="utf-8")
    with pytest.raises(sig.DataError, match="cannot read record.*null byte"):
        sig.load_dataset(man)


@pytest.mark.parametrize("value", ["1e39", "-1e39", "3.5e38"])
def test_sample_beyond_float32_range_is_named(tmp_path, value):
    rec = tmp_path / "rec.txt"
    rec.write_text(f"subject_id=s\nlabel=NoPain\nsample_rate_hz=100.0\n1.0\n{value}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's overflow warning would surface as an error
        with pytest.raises(sig.DataError, match=re.escape(f"sample 1 ({float(value)!r})")):
            sig.load_record(rec)


def test_float32_max_itself_loads(tmp_path):
    rec = tmp_path / "rec.txt"
    big = float(np.finfo(np.float32).max)
    rec.write_text(f"subject_id=s\nlabel=NoPain\nsample_rate_hz=100.0\n{big!r}\n{-big!r}\n", encoding="utf-8")
    np.testing.assert_array_equal(sig.load_record(rec).samples, [big, -big])


# well-formed records and manifests: any fields a record can be built from, and
# manifest rows that name its file
_RECORD_FIELDS = st.tuples(st.text(), st.sampled_from(list(sig.PainLabel)),
                           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                    min_size=1, max_size=6))
_MANIFEST_ENTRIES = st.lists(st.tuples(st.just("r.txt"), st.sampled_from(sig.SPLITS)), min_size=1, max_size=3)


def _record(fields) -> sig.RespirationRecord:
    subject_id, label, rate, samples = fields
    return sig.RespirationRecord(np.array(samples, dtype=np.float32), rate, subject_id, label)


_RECORDS = _RECORD_FIELDS.filter(lambda f: "".join(f[0].splitlines()) == f[0]).map(_record)


@settings(max_examples=300, deadline=None)
@given(_RECORD_FIELDS, _MANIFEST_ENTRIES)
def test_record_file_round_trips_or_the_record_is_refused(tmp_path_factory, fields, entries):
    try:
        rec = _record(fields)
    except sig.DataError as e:   # only an id its file cannot hold is refused, by name
        assert repr(fields[0]) in str(e)
        return
    root = tmp_path_factory.getbasetemp() / "round_trip"
    root.mkdir(exist_ok=True)
    sig.save_record(fresh(root / "r.txt"), rec)
    sig.write_manifest(fresh(root / "m.tsv"), entries)
    loaded = sig.load_dataset(root / "m.tsv")
    assert sum(len(v) for v in loaded.values()) == len(entries)
    for back in (r for split in loaded.values() for r in split):
        assert (back.subject_id, back.label) == (rec.subject_id, rec.label)
        assert back.sample_rate_hz.hex() == float(rec.sample_rate_hz).hex()
        assert back.samples.tobytes() == rec.samples.tobytes()


@pytest.mark.parametrize("text", ["1_0", " 1.0", "1.0 ", "\u0661"])
@pytest.mark.parametrize("line", ["rate", "sample"])
def test_number_lines_must_be_plain_ascii(tmp_path, line, text):
    # float() takes each of these, the Arabic-Indic digit one as 1.0
    rate, sample = (text, "2.0") if line == "rate" else ("100.0", text)
    p = tmp_path / "rec.txt"
    p.write_text(f"subject_id=s\nlabel=NoPain\nsample_rate_hz={rate}\n1.0\n{sample}\n", encoding="utf-8")
    with pytest.raises(sig.DataError, match=re.escape(f"{p}: number line {text!r}")):
        sig.load_record(p)


# random record and manifest bytes: load_dataset loads them or raises DataError, never
# another exception or a warning.  Each file is either well formed or made of random
# fields with junk bytes, which bring invalid UTF-8, NUL and stray separators.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b"])
_LABEL = st.sampled_from([*(m.value for m in sig.PainLabel), "Agony", ""])
_RATE = st.one_of(st.floats().map(repr), st.sampled_from(["100.0", "50", "abc", "", "1e400", "1_0"]))
_SAMPLE = st.one_of(st.floats(width=32).map(repr),
                    st.sampled_from(["nan", "-inf", "inf", "1e39", "-1e39", "1e-50", "1" * 400, "1_0", "x"]))
_NAME = st.sampled_from(["r.txt", "r.txt", "missing.txt", "a\x00b.txt", "", ".", "..", "m.tsv", "d\u00e4t\u00e4"])
_SPLIT = st.sampled_from([*sig.SPLITS, "holdout"])
_JUNK = st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\x85", b"\xc2\x85", b"\xed\xa0\x80", b"\t", b"\n"])


@st.composite
def _bytes_with_junk(draw, text):
    raw = bytearray(text.encode("utf-8"))
    for at, junk in draw(st.lists(st.tuples(st.integers(0, len(raw)), _JUNK), max_size=2)):
        raw[at:at] = junk
    return bytes(raw)


@st.composite
def _record_bytes(draw):
    br = draw(_BREAKS)
    lines = [f"subject_id={draw(st.text(max_size=6))}", f"label={draw(_LABEL)}",
             f"sample_rate_hz={draw(_RATE)}", *draw(st.lists(_SAMPLE, max_size=6))]
    return draw(_bytes_with_junk(br.join(lines) + draw(st.sampled_from(["", br]))))


@st.composite
def _manifest_bytes(draw):
    rows = draw(st.lists(st.tuples(_NAME, _SPLIT), max_size=3))
    br = draw(_BREAKS)
    return draw(_bytes_with_junk("".join(f"{name}\t{split}{br}" for name, split in rows)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_RECORDS, _record_bytes()), st.one_of(_MANIFEST_ENTRIES, _manifest_bytes()))
def test_random_record_and_manifest_bytes_raise_only_data_error(tmp_path_factory, record, manifest):
    root = tmp_path_factory.getbasetemp() / "fuzz_dataset"
    root.mkdir(exist_ok=True)
    if isinstance(record, bytes):
        fresh(root / "r.txt").write_bytes(record)
    else:
        sig.save_record(fresh(root / "r.txt"), record)
    if isinstance(manifest, bytes):
        fresh(root / "m.tsv").write_bytes(manifest)
    else:
        sig.write_manifest(fresh(root / "m.tsv"), manifest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sig.load_dataset(root / "m.tsv")
        except sig.DataError:
            pass
