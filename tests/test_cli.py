"""End-to-end CLI exercises: synth/train/eval/profile as a user would run
them, plus the exit-code contract for bad configs, bad data, and corrupt
checkpoints. Everything runs in-process through main(argv)."""

import argparse
import dataclasses
import filecmp
import os
import shutil
import struct
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import fresh
from resppain import augment as aug
from resppain import cli
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import numerics as nm
from resppain import signal as sig
from resppain import training as trn

MICRO_CONFIG = """\
[data]
pad_len = 400

[encoder]
depth = 1
cross_per_block = 1
self_per_block = 0
n_latents = 4
model_dim = 8
fourier_bands = 2
ffn_expansion = 2
dropout = 0.1
out_dim = 8

[train]
epochs = 2
batch_size = 4
lr = 0.001
warmup_epochs = 0
cooldown_epochs = 0
seed = 11
window_seconds = 2.0
fusion_variant = lf_avg_gate
"""


def _synth(out: Path, seed: int = 5) -> None:
    rc = cli.main(["synth", "--per-class", "2", "--val-per-class", "1",
                   "--test-per-class", "1", "--duration-s", "4.0",
                   "--seed", str(seed), "--out", str(out)])
    assert rc == 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset and one finished training run, shared
    read-only by the tests below."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    _synth(data)
    cfg = root / "micro.ini"
    cfg.write_text(MICRO_CONFIG)
    run = root / "run"
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data / "manifest.tsv"),
                   "--out", str(run)])
    assert rc == 0
    return {"root": root, "data": data, "config": cfg, "run": run}


# ---------------------------------------------------------------------------
# synth

def test_synth_layout_and_manifest(tmp_path, capsys):
    out = tmp_path / "ds"
    _synth(out)
    captured = capsys.readouterr()
    assert "wrote 12 records" in captured.out
    names = sorted(p.name for p in out.iterdir())
    assert "manifest.tsv" in names
    assert "train_0000.txt" in names and "train_0005.txt" in names
    assert "val_0002.txt" in names and "test_0002.txt" in names
    assert len(names) == 13
    entries = sig.read_manifest(out / "manifest.tsv")
    assert len(entries) == 12
    splits = sig.load_dataset(out / "manifest.tsv")
    assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (6, 3, 3)
    # balanced labels inside each split
    labels = sorted(r.label.value for r in splits["val"])
    assert labels == sorted({m.value for m in sig.PainLabel})


def test_synth_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _synth(a, seed=7)
    _synth(b, seed=7)
    _synth(c, seed=8)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert mismatch == [] and errors == []
    assert any((a / f).read_bytes() != (c / f).read_bytes()
               for f in files if f != "manifest.tsv")


def test_synth_rejects_bad_counts(tmp_path, capsys):
    rc = cli.main(["synth", "--per-class", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    rc = cli.main(["synth", "--per-class", "1", "--val-per-class", "-1",
                   "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flag,value,code", [("--duration-s", "nan", 2), ("--duration-s", "inf", 2),
                                             ("--duration-s", "-5", 2), ("--sample-rate-hz", "nan", 2),
                                             ("--duration-s", "1e300", 3), ("--duration-s", "0.001", 3),
                                             ("--seed", "-1", 2)])
def test_synth_rejects_bad_duration_and_rate(tmp_path, capsys, flag, value, code):
    # non-finite or non-positive flags are usage errors; a product that
    # rounds to no sample count in [1, intp max] is a data error.  Either
    # way no --out directory is made.
    try:
        rc = cli.main(["synth", "--per-class", "1", "--out", str(tmp_path / "x"), flag, value])
    except SystemExit as e:
        rc = e.code
    assert rc == code
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# config handling

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nepohcs = 3\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "epohcs" in err and "train" in err


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[trainer]\nepochs = 3\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "trainer" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 1\n",
    "[DEFAULT]\nseed = 5\n[train]\nepochs = 1\n",
    "[data]\npad_len = 400\n[DEFAULT]\nseed = 5\n",
])
def test_default_section_is_an_unknown_section(tmp_path, capsys, text):
    # configparser treats [DEFAULT] as special; here it is an unknown section
    # like any other, and none of its keys reaches another section
    cfg = tmp_path / "default.ini"
    cfg.write_text(text)
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def test_readme_config_example_is_read_by_the_schema(tmp_path):
    # the ```ini block under README's "Config file" heading names every section,
    # and config_used.ini writes each of its keys with the value it reads as
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Config file\n", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(example, encoding="utf-8")
    shown = cli.read_config(path)
    assert list(shown) == list(cli._SCHEMA)
    written = tmp_path / "config_used.ini"
    written.write_text(cli.serialize_settings(cli.build_settings(str(path), argparse.Namespace())),
                       encoding="utf-8")
    again = cli.read_config(written)
    assert {section: {key: again[section][key] for key in keys} for section, keys in shown.items()} == shown


def test_invalid_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[encoder]\ndepth = two\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "depth" in capsys.readouterr().err


def test_config_keys_follow_the_dataclasses():
    # the INI layout: dataclass fields in order, manifest first in [data],
    # and window_seconds in [train] after seed
    want = {
        "data": "manifest sample_rate_hz filter_enabled filter_low_hz filter_high_hz pad_len",
        "encoder": "depth cross_per_block self_per_block n_latents model_dim fourier_bands "
                   "max_freq_hz ffn_expansion dropout out_dim",
        "train": "epochs batch_size lr label_smoothing warmup_epochs cooldown_epochs seed "
                 "window_seconds fusion_variant checkpoint_interval augment_enabled",
        "augment": "polarity_prob noise_prob mask_prob mask_fraction noise_k",
    }
    assert {section: " ".join(keys) for section, keys in cli._SCHEMA.items()} == want


@pytest.mark.parametrize("section,key,value", [
    ("train", "window_seconds", "nan"), ("train", "window_seconds", "inf"),
    ("train", "lr", "nan"), ("encoder", "max_freq_hz", "nan"), ("augment", "noise_k", "1,inf"),
])
def test_non_finite_config_value_rejected(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err


@pytest.mark.parametrize("low", ["3e-8", "1e-8", "5e-324"])
def test_band_the_filter_cannot_take_rejected(workspace, tmp_path, capsys, low):
    # each passes 0 < low < high < Nyquist, but scipy cannot design or start its filter
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[data]\nfilter_low_hz = {low}\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert f"config error: band ({float(low)!r}, 0.5) Hz" in capsys.readouterr().err
    bad = _with_header_field(workspace["run"] / "checkpoint_best.bin", tmp_path / "bad.bin",
                             "filter_low_hz", float(low))
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and f"band ({float(low)!r}, 0.5) Hz" in err


def test_non_finite_window_seconds_flag_rejected(tmp_path, capsys):
    for argv in (["train", "--data", "whatever.tsv", "--out", str(tmp_path / "run")],
                 ["eval", "--checkpoint", "x.bin", "--data", "whatever.tsv"]):
        for value in ("nan", "inf"):
            with pytest.raises(SystemExit) as e:
                cli.main(argv + ["--window-seconds", value])
            assert e.value.code == 2
            assert "--window-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_window_seconds_flag_is_a_usage_error(workspace, capsys, value):
    # rejected as the flag is parsed, as in train: a real checkpoint and
    # manifest leave nothing else to fail on
    for argv in (["eval", "--checkpoint", str(workspace["run"] / "checkpoint_best.bin"),
                  "--data", str(workspace["data"] / "manifest.tsv")],
                 ["profile"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv + ["--window-seconds", value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "--window-seconds" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,rule", [
    (["synth", "--per-class", "1", "--duration-s", "nan"], "--duration-s: must be a finite number, got 'nan'"),
    (["profile", "--window-seconds", "0"], "--window-seconds: must be positive, got '0'"),
    (["eval", "--checkpoint", "x.bin", "--data", "m.tsv", "--window-seconds", "-1"],
     "--window-seconds: must be positive, got '-1'")], ids=["synth", "profile", "eval"])
def test_rejected_float_flag_names_the_rule_it_broke(tmp_path, capsys, argv, rule):
    if argv[0] == "synth":
        argv = argv + ["--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert rule in capsys.readouterr().err


@pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
def test_train_window_of_no_whole_sample_count_is_a_config_error(workspace, tmp_path, capsys, by_flag):
    # 0.123 s at 100 Hz is 12.3 samples, and 1e305 s is more samples than
    # any array holds: the settings fail before the run directory is made
    for value, named in (("0.123", "window of 0.123s"), ("1e305", "window of 1e+305s")):
        cfg = tmp_path / "window.ini"
        cfg.write_text(MICRO_CONFIG if by_flag else MICRO_CONFIG.replace("window_seconds = 2.0",
                                                                         f"window_seconds = {value}"))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg), "--data", str(workspace["data"] / "manifest.tsv"),
                       "--out", str(out)] + (["--window-seconds", value] if by_flag else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not out.exists()


@pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
def test_negative_train_seed_is_a_config_error(tmp_path, capsys, by_flag):
    cfg = tmp_path / "seed.ini"
    cfg.write_text("[train]\n" if by_flag else "[train]\nseed = -5\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")] + (["--seed", "-1"] if by_flag else []))
    assert rc == 2
    assert f"config error: seed must be >= 0, got {-1 if by_flag else -5}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_undecodable_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[train]\nepochs = \xff\xfe\n")
    rc = cli.main(["train", "--config", str(cfg), "--data", "whatever.tsv",
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


_TEXT = st.text(st.characters(codec="utf-8"), max_size=16)
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity"])
_PLAUSIBLE = {   # by field type: values that often pass, or fail only on range
    int: st.integers(0, 12).map(str),
    float: st.one_of(st.floats(0.0, 20.0).map(repr), _NON_FINITE),
    bool: st.sampled_from(["true", "false", "1", "off", "maybe"]),
    str: st.sampled_from([*fus.VARIANTS, "bogus", "data/manifest.tsv"]),
    tuple[float, float]: st.one_of(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(
        lambda p: f"{p[0]!r},{p[1]!r}"), _NON_FINITE, st.just("0.1,0.2,0.3")),
}
_JUNK = st.one_of(_TEXT, st.integers(-10, 10**30).map(str), st.floats().map(repr),
                  st.sampled_from(["", "-0", "1e-300", "1_000", "0x10", " 1 , 2 "]))


def _mostly(values: list[str], odd: list[str]):
    return st.sampled_from(values * 6 + odd)


def _section(name: str):
    """A [name] header, then distinct keys of that section (or bogus) with values."""
    keys = cli._SCHEMA.get(name, {})
    value = {key: st.one_of(*[_PLAUSIBLE[k.kind]] * 4, _JUNK) for key, k in keys.items()}
    return st.lists(_mostly(list(keys), ["bogus"]), unique=True, max_size=4).flatmap(
        lambda ks: st.tuples(*[value.get(k, _JUNK).map(lambda v, k=k: f"{k} = {v}") for k in ks])
    ).map(lambda lines: "\n".join([f"[{name}]", *lines]))


_CONFIG_TEXT = st.lists(_mostly(list(cli._SCHEMA), ["DEFAULT", "bogus"]), unique=True,
                        max_size=4).flatmap(lambda names: st.tuples(*map(_section, names))).map("\n".join)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_CONFIG_TEXT, _TEXT))
def test_random_config_text_raises_only_config_error(tmp_path_factory, text):
    # read_config + build_settings fail only with ConfigError; the window
    # count of settings they accept fails only with DataError
    path = fresh(tmp_path_factory.getbasetemp() / "fuzz.ini")
    path.write_text(text, encoding="utf-8")
    try:
        built = cli.build_settings(str(path), argparse.Namespace())
    except cli.ConfigError:
        return
    try:   # what train derives first from accepted settings
        assert built.prep.n_windows >= 1
    except sig.DataError:
        pass


_FINITE = dict(allow_nan=False, allow_infinity=False)


def _sorted_pair(lo, hi):
    return st.tuples(st.floats(lo, hi, **_FINITE), st.floats(lo, hi, **_FINITE)).map(
        lambda p: tuple(sorted(p)))


@st.composite
def _valid_settings(draw):
    rate = draw(st.floats(1.0, 1e4, **_FINITE))
    low, high = sorted(draw(st.lists(st.floats(0.0, rate / 2.0, exclude_min=True, exclude_max=True),
                                     min_size=2, max_size=2, unique=True)))
    epochs = draw(st.integers(1, 1000))
    warmup = draw(st.integers(0, epochs))
    try:
        prep = sig.PreprocessConfig(
            sample_rate_hz=rate, filter_enabled=draw(st.booleans()), filter_low_hz=low,
            filter_high_hz=high, pad_len=draw(st.integers(1, 10**6)),
            window_seconds=draw(st.integers(1, 10**6)) / rate)
    except sig.DataError:   # a band the filter cannot be designed for is no valid setting
        assume(False)
    return cli.RunSettings(
        enc_cfg=enc.EncoderConfig(
            depth=draw(st.integers(1, 4)), cross_per_block=draw(st.integers(1, 4)),
            self_per_block=draw(st.integers(0, 4)), n_latents=draw(st.integers(1, 4096)),
            model_dim=draw(st.integers(1, 4096)), fourier_bands=draw(st.integers(1, 64)),
            max_freq_hz=draw(st.floats(0.0, 1e6, exclude_min=True)),
            ffn_expansion=draw(st.integers(1, 8)),
            dropout=draw(st.floats(0.0, 1.0, exclude_max=True)), out_dim=draw(st.integers(1, 4096))),
        train_cfg=trn.TrainConfig(
            epochs=epochs, batch_size=draw(st.integers(1, 512)),
            lr=draw(st.floats(0.0, 10.0, exclude_min=True)),
            label_smoothing=draw(st.floats(0.0, 1.0, exclude_max=True)),
            warmup_epochs=warmup, cooldown_epochs=draw(st.integers(0, epochs - warmup)),
            seed=draw(st.integers(0, 2**63)), fusion_variant=draw(st.sampled_from(fus.VARIANTS)),
            checkpoint_interval=draw(st.integers(0, 100)), augment_enabled=draw(st.booleans())),
        prep=prep,
        aug_cfg=aug.AugmentConfig(
            polarity_prob=draw(_sorted_pair(0.0, 1.0)), noise_prob=draw(_sorted_pair(0.0, 1.0)),
            mask_prob=draw(_sorted_pair(0.0, 1.0)), mask_fraction=draw(_sorted_pair(0.0, 1.0)),
            noise_k=draw(_sorted_pair(1.0, 1e6))),
        manifest=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
    )


@settings(max_examples=300, deadline=None)
@given(_valid_settings())
def test_serialized_settings_read_back_exactly(tmp_path_factory, s):
    # serialize -> read_config -> build_settings -> serialize is the same text,
    # and every value reads back exactly
    text = cli.serialize_settings(s)
    path = fresh(tmp_path_factory.getbasetemp() / "roundtrip.ini")
    path.write_text(text)
    again = cli.build_settings(str(path), argparse.Namespace())
    assert cli.serialize_settings(again) == text
    assert again == s


def test_train_requires_a_dataset(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "no dataset given" in capsys.readouterr().err


def test_train_missing_manifest_is_data_error(tmp_path, capsys):
    rc = cli.main(["train", "--data", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("n_samples,mask_prob,filter_enabled", [
    pytest.param(5, "1.0,1.0", True, id="5-1.0,1.0"),              # too short to mask or filter
    pytest.param(5, "0.0,0.0", True, id="5-0.0,0.0"),              # too short to filter
    pytest.param(401, "0.0,0.0", True, id="401-0.0,0.0"),          # longer than pad_len = 400
    pytest.param(5, "1.0,1.0", False, id="5-1.0,1.0-unfiltered"),  # too short to mask
    pytest.param(5, "0.0,0.0", False, id="5-0.0,0.0-unfiltered"),  # no mask, no filter: it trains
])
def test_train_rejects_a_record_it_cannot_take_before_any_step(tmp_path, capsys, monkeypatch,
                                                               n_samples, mask_prob, filter_enabled):
    # the first training record is cut or repeated to n_samples
    data = tmp_path / "data"
    _synth(data)
    record = data / "train_0000.txt"
    lines = record.read_text().splitlines()
    header, samples = lines[:3], lines[3:]
    record.write_text("\n".join(header + (samples * 2)[:n_samples]) + "\n")
    cfg = tmp_path / "micro.ini"
    cfg.write_text(MICRO_CONFIG.replace("[data]\n", f"[data]\nfilter_enabled = {filter_enabled}\n")
                   + f"\n[augment]\nmask_prob = {mask_prob}\n")
    calls, real_step = [], trn.Adam.step

    def counting_step(self, params, grads, lr):
        calls.append(lr)
        return real_step(self, params, grads, lr)

    monkeypatch.setattr(trn.Adam, "step", counting_step)
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data / "manifest.tsv"),
                   "--out", str(tmp_path / "run")])
    if mask_prob == "0.0,0.0" and not filter_enabled:
        assert rc == 0 and calls
        return
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and repr(header[0].removeprefix("subject_id=")) in err
    assert calls == []


def test_record_rate_must_match_the_pipeline(workspace, tmp_path, capsys):
    # the records carry their 50 Hz; a pipeline at the default 100 Hz refuses them
    data = tmp_path / "data"
    assert cli.main(["synth", "--per-class", "2", "--val-per-class", "1", "--test-per-class", "1",
                     "--duration-s", "4.0", "--sample-rate-hz", "50", "--out", str(data)]) == 0
    cfg = tmp_path / "micro.ini"
    cfg.write_text(MICRO_CONFIG)
    run = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data / "manifest.tsv"), "--out", str(run)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "record 'train_NoPain_0000' is sampled at 50 Hz, but the pipeline expects 100 Hz" in err
    assert not list(run.glob("*.bin"))
    rc, err = _eval_rc(workspace["run"] / "checkpoint_best.bin", data / "manifest.tsv", capsys)
    assert rc == 3 and "is sampled at 50 Hz, but the pipeline expects 100 Hz" in err
    # a rate that differs past the 6th significant digit is printed in full
    near = tmp_path / "near"
    assert cli.main(["synth", "--per-class", "2", "--val-per-class", "1", "--test-per-class", "1",
                     "--duration-s", "4.0", "--sample-rate-hz", "100.0000001", "--out", str(near)]) == 0
    rc = cli.main(["train", "--config", str(cfg), "--data", str(near / "manifest.tsv"), "--out", str(tmp_path / "r2")])
    assert rc == 3
    assert "is sampled at 100.0000001 Hz, but the pipeline expects 100 Hz" in capsys.readouterr().err
    cfg.write_text(MICRO_CONFIG.replace("[data]\n", "[data]\nsample_rate_hz = 50\n"))
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data / "manifest.tsv"), "--out", str(run)])
    assert rc == 0
    assert (run / "checkpoint_final.bin").is_file()


# ---------------------------------------------------------------------------
# train

def test_train_artifacts(workspace, capsys):
    run = workspace["run"]
    for name in ("config_used.ini", "metrics.tsv", "checkpoint_final.bin", "checkpoint_best.bin"):
        assert (run / name).exists(), name
    lines = (run / "metrics.tsv").read_text().splitlines()
    assert len(lines) == 1 + 2            # header + one row per epoch
    assert lines[0].startswith("epoch\t")
    used = (run / "config_used.ini").read_text()
    assert "fusion_variant = lf_avg_gate" in used
    assert "window_seconds = 2" in used
    assert "pad_len = 400" in used


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    run2 = tmp_path / "run2"
    rc = cli.main(["train", "--config", str(workspace["config"]),
                   "--data", str(workspace["data"] / "manifest.tsv"), "--out", str(run2)])
    assert rc == 0
    for name in ("metrics.tsv", "checkpoint_final.bin", "checkpoint_best.bin", "config_used.ini"):
        assert (workspace["run"] / name).read_bytes() == (run2 / name).read_bytes(), name


def test_train_seed_flag_changes_the_run(workspace, tmp_path):
    run2 = tmp_path / "run2"
    rc = cli.main(["train", "--config", str(workspace["config"]),
                   "--data", str(workspace["data"] / "manifest.tsv"),
                   "--seed", "12", "--out", str(run2)])
    assert rc == 0
    assert (run2 / "config_used.ini").read_text() != (workspace["run"] / "config_used.ini").read_text()
    assert (run2 / "checkpoint_final.bin").read_bytes() \
        != (workspace["run"] / "checkpoint_final.bin").read_bytes()


def test_train_fusion_flag_overrides_config(workspace, tmp_path, capsys):
    run2 = tmp_path / "run2"
    rc = cli.main(["train", "--config", str(workspace["config"]),
                   "--data", str(workspace["data"] / "manifest.tsv"),
                   "--fusion", "concat_all", "--out", str(run2)])
    assert rc == 0
    assert "fusion_variant = concat_all" in (run2 / "config_used.ini").read_text()
    # gateless variant logs an all-zero route histogram
    rows = (run2 / "metrics.tsv").read_text().splitlines()[1:]
    assert all(row.rstrip().endswith("0,0,0,0") for row in rows)


# ---------------------------------------------------------------------------
# eval

def test_eval_prints_report_and_is_deterministic(workspace, capsys):
    argv = ["eval", "--checkpoint", str(workspace["run"] / "checkpoint_best.bin"),
            "--data", str(workspace["data"] / "manifest.tsv")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "split=test records=3" in first
    assert "macro_accuracy=" in first and "mean_loss=" in first
    assert "confusion (rows true, cols predicted)" in first
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_split_selector(workspace, capsys):
    rc = cli.main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint_final.bin"),
                   "--data", str(workspace["data"] / "manifest.tsv"), "--split", "val"])
    assert rc == 0
    assert "split=val records=3" in capsys.readouterr().out


def test_eval_matching_window_override_is_accepted(workspace, capsys):
    rc = cli.main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint_best.bin"),
                   "--data", str(workspace["data"] / "manifest.tsv"),
                   "--window-seconds", "2.0"])
    assert rc == 0


def test_eval_window_mismatch_is_rejected(workspace, capsys):
    # pad 400 at T=1 would need 4 windows, checkpoint heads expect 2
    rc = cli.main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint_best.bin"),
                   "--data", str(workspace["data"] / "manifest.tsv"),
                   "--window-seconds", "1.0"])
    assert rc == 3
    assert "window count mismatch" in capsys.readouterr().err
    # a window of more samples than any array holds is rejected as such, not as a mismatch
    rc = cli.main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint_best.bin"),
                   "--data", str(workspace["data"] / "manifest.tsv"),
                   "--window-seconds", "1e305"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "window of 1e+305s" in err and "mismatch" not in err


def test_eval_corrupt_checkpoint(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint at all")
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "manifest.tsv")])
    assert rc == 4
    assert "checkpoint error" in capsys.readouterr().err


def test_eval_rejects_checkpoint_of_an_older_version(workspace, tmp_path, capsys):
    # version 2 stored the preprocessing fields as tagged extras; its files are not read
    raw = bytearray((workspace["run"] / "checkpoint_best.bin").read_bytes())
    assert struct.unpack_from("<I", raw, 4) == (enc.CHECKPOINT_VERSION,) == (3,)
    struct.pack_into("<I", raw, 4, 2)
    bad = tmp_path / "v2.bin"
    bad.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "manifest.tsv")])
    assert rc == 4
    assert "unsupported checkpoint version 2" in capsys.readouterr().err


def _drop_ffn_wo(header, arrays):
    del arrays["block0.cross0.ffn.wo.w"]


def _five_gate_scores(header, arrays):
    arrays["gate.g"] = arrays["gate.g"][[0, 1, 2, 3, 3]]


def _four_classes(header, arrays):
    header[3] = 4


def _inflated_header(header, arrays):
    # a header describing far more parameters than the file holds is
    # refused before any template is built
    header[0] = dataclasses.replace(header[0], n_latents=100_000)


def _deep_header(header, arrays):
    # a million blocks are declared, but the check reads only one row more
    # than the file holds and names a block1 tensor the file lacks
    header[0] = dataclasses.replace(header[0], depth=10**6)


@pytest.mark.parametrize("edit,named", [(_drop_ffn_wo, "block0.cross0.ffn.wo.w"),
                                        (_five_gate_scores, "gate.g"),
                                        (_four_classes, "classes"),
                                        (_inflated_header, "holds"),
                                        (_deep_header, "block1.cross0.attn.ln_kv.b: the file holds nothing")])
def test_eval_rejects_checkpoint_that_does_not_fit_its_config(workspace, tmp_path, capsys,
                                                             edit, named):
    header, arrays = enc.load_checkpoint(workspace["run"] / "checkpoint_best.bin", trn.HEADER_TYPES)
    edit(header, arrays)
    bad = tmp_path / "bad.bin"
    enc.save_checkpoint(bad, trn.HEADER_TYPES, header, {k: nm.constant(v) for k, v in arrays.items()})
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "manifest.tsv")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err and named in err


def test_eval_rejects_checkpoint_that_names_a_tensor_twice(workspace, tmp_path, capsys):
    # a second gate.g after the first: loaded by name into one dict, the later
    # copy would replace the saved one and still fit the config's shapes
    ckpt = workspace["run"] / "checkpoint_best.bin"
    header, arrays = enc.load_checkpoint(ckpt, trn.HEADER_TYPES)
    head, extra = tmp_path / "head.bin", tmp_path / "extra.bin"
    enc.save_checkpoint(head, trn.HEADER_TYPES, header, {})
    enc.save_checkpoint(extra, trn.HEADER_TYPES, header, {"gate.g": nm.constant(arrays["gate.g"] + 9)})
    at = len(head.read_bytes()) - 4   # the u32 tensor count follows the header
    raw = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", raw, at, struct.unpack_from("<I", raw, at)[0] + 1)
    bad = tmp_path / "twice.bin"
    bad.write_bytes(bytes(raw) + extra.read_bytes()[at + 4:])
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and "tensor 'gate.g' appears more than once" in err


@pytest.mark.parametrize("name,value", [("latents", float("nan")),
                                        ("block0.cross0.ffn.wo.w", float("inf")),
                                        ("gate.g", float("-inf"))])
def test_eval_rejects_checkpoint_tensor_that_is_not_finite(workspace, tmp_path, capsys, name, value):
    # loaded, such a tensor would give a nan loss and one class for every record, and exit 0
    header, arrays = enc.load_checkpoint(workspace["run"] / "checkpoint_best.bin", trn.HEADER_TYPES)
    arrays[name] = arrays[name].copy()
    arrays[name].flat[-1] = value
    bad = tmp_path / "bad.bin"
    enc.save_checkpoint(bad, trn.HEADER_TYPES, header, {k: nm.constant(v) for k, v in arrays.items()})
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and f"tensor {name!r} holds 1 non-finite value(s)" in err


def _eval_rc(checkpoint, manifest, capsys) -> tuple[int, str]:
    rc = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(manifest)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("old,new", [(b"lf_avg_gate", b"\xfff_avg_gate"),            # the variant
                                     (b"\x07\x00latents", b"\x07\x00\xffatents")])  # a tensor name
def test_eval_rejects_checkpoint_string_that_is_not_utf8(workspace, tmp_path, capsys, old, new):
    raw = (workspace["run"] / "checkpoint_best.bin").read_bytes()
    assert raw.count(old) == 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw.replace(old, new))
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and "not UTF-8" in err


_FORMATS = {int: "<I", float: "<d", bool: "<B"}


def _with_header_field(checkpoint: Path, out: Path, field: str, value) -> Path:
    """A copy of a pipeline checkpoint with one config field of its header overwritten in place."""
    raw = bytearray(checkpoint.read_bytes())
    at = 8   # magic and version
    for kind in (enc.EncoderConfig, sig.PreprocessConfig):
        hints = typing.get_type_hints(kind)
        for f in dataclasses.fields(kind):
            if f.name == field:
                struct.pack_into(_FORMATS[hints[f.name]], raw, at, value)
                out.write_bytes(bytes(raw))
                return out
            at += struct.calcsize(_FORMATS[hints[f.name]])
    raise KeyError(field)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_eval_rejects_header_max_freq_that_is_not_finite_and_positive(workspace, tmp_path, capsys, value):
    bad = _with_header_field(workspace["run"] / "checkpoint_best.bin", tmp_path / "bad.bin", "max_freq_hz", value)
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and "max_freq_hz" in err


@pytest.mark.parametrize("value", [2, 255])
def test_eval_rejects_header_bool_byte_other_than_0_or_1(workspace, tmp_path, capsys, value):
    bad = _with_header_field(workspace["run"] / "checkpoint_best.bin", tmp_path / "bad.bin", "filter_enabled", value)
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and f"filter_enabled at offset 64 holds {value}, not 0 or 1" in err


@pytest.mark.parametrize("field,value,named", [("window_seconds", float("nan"), "window"),
                                               ("sample_rate_hz", float("inf"), "at inf Hz"),
                                               ("pad_len", 0, "pad_len"),
                                               ("depth", 0, "depth"),
                                               ("window_seconds", float("nan"), "window_seconds must be finite"),
                                               ("window_seconds", 0.123, "window of 0.123s"),
                                               # several fields: comma-separated names, one value each
                                               ("filter_enabled,sample_rate_hz", (False, float("inf")),
                                                "sample_rate_hz must be finite")])
def test_eval_rejects_header_field_that_fails_its_dataclass_check(workspace, tmp_path, capsys, field, value, named):
    bad = workspace["run"] / "checkpoint_best.bin"
    for name, v in zip(field.split(","), value if isinstance(value, tuple) else (value,)):
        bad = _with_header_field(bad, tmp_path / "bad.bin", name, v)
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and named in err


def test_eval_rejects_unknown_variant(workspace, tmp_path, capsys):
    raw = (workspace["run"] / "checkpoint_best.bin").read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw.replace(b"lf_avg_gate", b"lf_avg_gatX"))
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "unknown fusion variant 'lf_avg_gatX'" in err


def test_eval_rejects_header_cut_off_anywhere(workspace, tmp_path, capsys):
    # every cut from the magic to the first tensor's name
    raw = (workspace["run"] / "checkpoint_best.bin").read_bytes()
    end = raw.index(b"latents")
    bad = tmp_path / "bad.bin"
    for cut in range(end):
        bad.write_bytes(raw[:cut])
        with pytest.raises(enc.CheckpointError, match="truncated|bad magic"):
            trn.load_pipeline(bad)
    rc, err = _eval_rc(bad, workspace["data"] / "manifest.tsv", capsys)
    assert rc == 4
    assert "checkpoint error" in err and "truncated" in err


def test_eval_rejects_record_and_manifest_that_are_not_utf8(workspace, tmp_path, capsys):
    data = workspace["data"]
    rel, _ = sig.read_manifest(data / "manifest.tsv")[0]
    record = tmp_path / "rec.txt"
    record.write_bytes((data / rel).read_bytes().replace(b"subject_id=", b"subject_id=\xff", 1))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("rec.txt\ttest\n", encoding="utf-8")
    rc, err = _eval_rc(workspace["run"] / "checkpoint_best.bin", manifest, capsys)
    assert rc == 3 and "cannot read record" in err
    manifest.write_bytes(b"rec.txt\ttest\xff\n")
    rc, err = _eval_rc(workspace["run"] / "checkpoint_best.bin", manifest, capsys)
    assert rc == 3 and "cannot read manifest" in err


def test_eval_rejects_manifest_path_with_nul(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("a\x00b.txt\ttest\n", encoding="utf-8")
    rc, err = _eval_rc(workspace["run"] / "checkpoint_best.bin", manifest, capsys)
    assert rc == 3 and "cannot read record" in err and "null byte" in err


_ASCII_LOCALE = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
                 "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_utf8_config_under_an_ascii_locale(workspace, tmp_path):
    # the config and its run-directory copy are UTF-8 whatever the locale, and
    # the non-ASCII manifest path in it opens as its UTF-8 bytes
    manifest = tmp_path / "d\u00e4t\u00e4" / "manifest.tsv"
    shutil.copytree(workspace["data"], manifest.parent)
    cfg = tmp_path / "micro.ini"
    cfg.write_text(MICRO_CONFIG.replace("[data]\n", f"[data]\nmanifest = {manifest}\n"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "resppain.cli", "train", "--config", str(cfg),
                           "--out", str(tmp_path / "run")], env=_ASCII_LOCALE, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "metrics.tsv").is_file()
    used = (tmp_path / "run" / "config_used.ini").read_text(encoding="utf-8")
    assert f"manifest = {manifest}\n" in used


def test_utf8_record_paths_under_an_ascii_locale(workspace, tmp_path, capsys):
    # record paths read from a UTF-8 manifest open as their UTF-8 bytes; the
    # report equals the one for the same records under ASCII names
    data = tmp_path / "d\u00e4t\u00e4"
    shutil.copytree(workspace["data"], data)
    rows = [line.split("\t") for line in (data / "manifest.tsv").read_text().splitlines()]
    for rel, _ in rows:
        (data / rel).rename(data / f"\u00fc{rel}")
    (data / "manifest.tsv").write_text("".join(f"\u00fc{rel}\t{split}\n" for rel, split in rows), encoding="utf-8")
    ckpt = str(workspace["run"] / "checkpoint_final.bin")
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", str(workspace["data"] / "manifest.tsv")]) == 0
    proc = subprocess.run([sys.executable, "-m", "resppain.cli", "eval", "--checkpoint", ckpt,
                           "--data", str(data / "manifest.tsv")],
                          env=_ASCII_LOCALE, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("blocked", [False, True, "name_too_long", "symlink_loop"])
def test_out_that_cannot_be_a_directory_is_a_config_error(workspace, tmp_path, capsys, command, blocked):
    # an existing file as --out (False), a path under a file (True), a name too
    # long for the file system, or a path through a symlink loop: exit 2 naming the path
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    (tmp_path / "loop").symlink_to("loop")
    out = str({False: blocker, True: blocker / "run", "name_too_long": tmp_path / ("x" * 300),
               "symlink_loop": tmp_path / "loop" / "run"}[blocked])
    argv = {"train": ["train", "--config", str(workspace["config"]), "--data",
                      str(workspace["data"] / "manifest.tsv"), "--out", out],
            "synth": ["synth", "--per-class", "1", "--out", out]}[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and out in err
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# profile

def test_profile_tables(capsys):
    assert cli.main(["profile"]) == 0
    out = capsys.readouterr().out
    assert "params(M)" in out and "dev%" in out
    grid_rows = [l for l in out.splitlines() if l.strip().startswith(("1 ", "2 "))]
    assert len(grid_rows) >= 6
    assert "1150-sample input" in out
    assert "max at T=1, min at T=5" in out


def test_profile_rejects_window_of_no_whole_sample_count(capsys):
    # 1e307 s * 100 Hz overflows to inf; 0.0015 s is 0.15 samples; 1e305 s
    # is 1e307 samples, more than any array holds
    for value in ("1e307", "0.0015", "1e305"):
        assert cli.main(["profile", "--window-seconds", value]) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and captured.out == ""


def test_profile_custom_input_len(capsys):
    assert cli.main(["profile", "--input-len", "600"]) == 0
    out = capsys.readouterr().out
    assert "600-sample input" in out


@pytest.mark.parametrize("value", ["0", "-5", pytest.param(str(sig.MAX_SAMPLES + 1), id="intp_max+1"),
                                   pytest.param("1" + "0" * 400, id="1e400")])
def test_profile_rejects_input_len_below_one(capsys, value):
    # below one, or above the sample-count bound that no array could hold
    assert cli.main(["profile", "--input-len", value]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--input-len" in captured.err and captured.out == ""
