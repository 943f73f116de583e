"""Command-line entry points: synth, train, eval, profile.

Configuration is flat ``key = value`` text under ``[section]`` headers
(INI syntax).  Every key is validated against the schema below, which
is derived from the config dataclasses; an unknown section ([DEFAULT]
included) or key is a hard error naming it, and float values must be
finite.  Exit codes: 0 ok, 2 usage or config error, 3 data error,
4 numerical error (including a corrupt checkpoint).

Example config::

    [data]
    manifest = data/manifest.tsv
    pad_len = 1150

    [encoder]
    depth = 1
    n_latents = 256

    [train]
    epochs = 300
    lr = 1e-4
    window_seconds = 5.0

    [augment]
    noise_prob = 0.2,0.2
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import logging
import math
import os
import sys
import typing
from pathlib import Path

from . import augment as aug
from . import cost
from . import encoder as enc
from . import fusion as fus
from . import signal as sig
from . import training as trn

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid config file content or invalid flag combination."""


# ---------------------------------------------------------------------------
# config schema

def finite_float(s: str) -> float:
    """float(s), rejecting nan and +-inf; parses config floats and the float flags."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {s!r}")
    return v


def positive_float(s: str) -> float:
    """finite_float(s), rejecting zero and negatives; parses the duration, rate and window flags."""
    try:
        if (v := finite_float(s)) <= 0:
            raise ValueError(f"must be positive, got {s!r}")
    except ValueError as e:   # argparse prints the text of this error only, so the flag names its rule
        raise argparse.ArgumentTypeError(str(e)) from e
    return v


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_range(s: str) -> tuple[float, float]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) == 1:
        v = finite_float(parts[0])
        return (v, v)
    if len(parts) == 2:
        return (finite_float(parts[0]), finite_float(parts[1]))
    raise ValueError(f"expected 'low,high' or a single value, got {s!r}")


def _format_float(v: float) -> str:
    """10 significant digits, or all a value needs to read back exactly."""
    short = f"{v:.10g}"
    return short if float(short) == v else repr(float(v))


# field type -> (parser of its config text, formatter back to that text)
_KINDS: dict[object, tuple] = {
    int: (int, str),
    float: (finite_float, _format_float),
    bool: (_parse_bool, lambda v: str(v).lower()),
    str: (str, str),
    tuple[float, float]: (_parse_range, lambda r: ",".join(map(_format_float, r))),
}


class _Key(typing.NamedTuple):
    owner: str    # RunSettings attribute whose field holds the value ("" for RunSettings itself)
    field: str
    kind: object  # the field's type, a _KINDS key


@dataclasses.dataclass
class RunSettings:
    enc_cfg: enc.EncoderConfig
    train_cfg: trn.TrainConfig
    prep: sig.PreprocessConfig
    aug_cfg: aug.AugmentConfig
    manifest: str | None = None


# Each [section] lists the fields of one RunSettings dataclass, in order, except:
# RunSettings.manifest is the first [data] key, and PreprocessConfig.window_seconds
# sits in [train] after seed.
_SECTIONS = {"data": "prep", "encoder": "enc_cfg", "train": "train_cfg", "augment": "aug_cfg"}
_LEADING = {"data": _Key("", "manifest", str)}
_MOVED = {"window_seconds": ("train", "seed")}

# train flags that override one config value: flag -> (owner, field)
_FLAG_OVERRIDES = {"data": ("", "manifest"), "seed": ("train_cfg", "seed"),
                   "fusion": ("train_cfg", "fusion_variant"), "window_seconds": ("prep", "window_seconds")}


def _derive_schema() -> dict[str, dict[str, _Key]]:
    """[section] -> config key -> the field it sets, in file order."""
    owner_types = typing.get_type_hints(RunSettings)
    layout, moved = {}, {}
    for section, owner in _SECTIONS.items():
        hints = typing.get_type_hints(owner_types[owner])
        keys = layout[section] = [_LEADING[section]] if section in _LEADING else []
        for f in dataclasses.fields(owner_types[owner]):
            key = _Key(owner, f.name, hints[f.name])
            if f.name in _MOVED:
                moved[f.name] = key
            else:
                keys.append(key)
    for name, (section, after) in _MOVED.items():
        keys = layout[section]
        keys.insert([k.field for k in keys].index(after) + 1, moved[name])
    return {section: {k.field: k for k in keys} for section, keys in layout.items()}


_SCHEMA = _derive_schema()


def read_config(path: str | Path) -> dict[str, dict[str, object]]:
    """Parse and validate a config file against the schema."""
    # no header names "", so [DEFAULT] is an ordinary section and no key reaches another
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e
    out: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]; "
                              f"expected one of {sorted(_SCHEMA)}")
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]; "
                                  f"valid keys: {sorted(_SCHEMA[section])}")
            parse, _ = _KINDS[_SCHEMA[section][key].kind]
            try:
                out[section][key] = parse(raw)
            except ValueError as e:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {e}") from e
    return out


def build_settings(config_path: str | None, args: argparse.Namespace) -> RunSettings:
    """Config file plus flag overrides -> validated settings."""
    raw = read_config(config_path) if config_path else {}
    kw: dict[str, dict[str, object]] = {owner: {} for owner in ("", *_SECTIONS.values())}
    for section, values in raw.items():
        for key, value in values.items():
            owner, field, _ = _SCHEMA[section][key]
            kw[owner][field] = value
    if "manifest" in kw[""]:   # a path read from UTF-8 text opens as those bytes on any locale
        kw[""]["manifest"] = os.fsdecode(kw[""]["manifest"].encode("utf-8"))
    for flag, (owner, field) in _FLAG_OVERRIDES.items():
        if getattr(args, flag, None) is not None:
            kw[owner][field] = getattr(args, flag)
    owner_types = typing.get_type_hints(RunSettings)
    try:
        return RunSettings(**kw.pop(""), **{owner: owner_types[owner](**values)
                                            for owner, values in kw.items()})
    except (ValueError, sig.DataError) as e:
        raise ConfigError(str(e)) from e


def serialize_settings(s: RunSettings) -> str:
    """Resolved settings as config text, for the run-directory copy."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (owner, field, kind) in keys.items():
            value = getattr(getattr(s, owner) if owner else s, field)
            if value is not None:
                lines.append(f"{key} = {_KINDS[kind][1](value)}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def _make_out_dir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:   # say a file where the directory must be, or a name too long
        raise ConfigError(f"--out {path} cannot be a directory: {e.strerror}") from e
    return Path(path)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.per_class < 1:
        raise ConfigError(f"--per-class must be >= 1, got {args.per_class}")
    if args.val_per_class < 0 or args.test_per_class < 0:
        raise ConfigError("--val-per-class and --test-per-class must be >= 0")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    counts = {"train": args.per_class, "val": args.val_per_class, "test": args.test_per_class}
    # every split is generated, and its duration and rate checked, before --out is made
    splits = {split: sig.synth_dataset(per_class, seed=[args.seed, split_idx],
                                       duration_s=args.duration_s,
                                       sample_rate_hz=args.sample_rate_hz,
                                       id_prefix=split)
              for split_idx, (split, per_class) in enumerate(counts.items()) if per_class > 0}
    out = _make_out_dir(args.out)
    entries = []
    for split, records in splits.items():
        for i, rec in enumerate(records):
            rel = f"{split}_{i:04d}.txt"
            sig.save_record(out / rel, rec)
            entries.append((rel, split))
    sig.write_manifest(out / "manifest.tsv", entries)
    print(f"wrote {len(entries)} records and manifest.tsv to {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    settings = build_settings(args.config, args)
    if settings.manifest is None:
        raise ConfigError("no dataset given: pass --data or set data.manifest in the config")
    out = _make_out_dir(args.out)
    (out / "config_used.ini").write_text(serialize_settings(settings), encoding="utf-8", errors="surrogateescape")
    splits = sig.load_dataset(settings.manifest)
    if not splits["train"] or not splits["val"]:
        raise sig.DataError(f"manifest {settings.manifest} needs non-empty train and val splits "
                            f"(got {len(splits['train'])} train, {len(splits['val'])} val)")
    result = trn.train(splits["train"], splits["val"], settings.enc_cfg, settings.train_cfg,
                       settings.prep, settings.aug_cfg, out_dir=out)
    print(f"best val macro accuracy {result.best_val_macro_acc:.10g} at epoch {result.best_epoch}")
    print(f"final val macro accuracy {result.final_report.macro_accuracy:.10g}")
    print(f"run artifacts in {out}: config_used.ini metrics.tsv checkpoint_final.bin checkpoint_best.bin")
    return EXIT_OK


def _print_report(rep: trn.MetricsReport, split: str, n: int) -> None:
    print(f"split={split} records={n}")
    print(f"macro_accuracy={rep.macro_accuracy:.10g}")
    print(f"macro_precision={rep.macro_precision:.10g}")
    print(f"macro_f1={rep.macro_f1:.10g}")
    print(f"plain_accuracy={rep.plain_accuracy:.10g}")
    print(f"mean_loss={rep.mean_loss:.10g}")
    labels = [m.value for m in sig.PainLabel]
    print("confusion (rows true, cols predicted): " + " ".join(labels))
    for i, row in enumerate(rep.confusion):
        print(f"  {labels[i]:<9s} " + " ".join(f"{int(v):4d}" for v in row))


def cmd_eval(args: argparse.Namespace) -> int:
    enc_cfg, params, prep, variant = trn.load_pipeline(args.checkpoint)
    if args.window_seconds is not None and args.window_seconds != prep.window_seconds:
        new_prep = dataclasses.replace(prep, window_seconds=args.window_seconds)
        if new_prep.n_windows != prep.n_windows:
            raise sig.DataError(
                f"--window-seconds {args.window_seconds} yields {new_prep.n_windows} windows but the "
                f"checkpoint's heads were trained for {prep.n_windows} (window count mismatch)")
        prep = new_prep
    splits = sig.load_dataset(args.data)
    records = splits[args.split]
    if not records:
        raise sig.DataError(f"manifest {args.data} has no records in split {args.split!r}")
    rep = trn.evaluate(records, enc_cfg, params, prep, variant)
    _print_report(rep, args.split, len(records))
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    if not 1 <= args.input_len <= sig.MAX_SAMPLES:
        raise ConfigError(f"--input-len must be in [1, {sig.MAX_SAMPLES}], got {args.input_len}")
    defaults = enc.EncoderConfig()
    n_windows = sig.n_windows_for(args.input_len, args.window_seconds, sig.SAMPLE_RATE_HZ)
    window_samples = sig._window_samples(args.window_seconds, sig.SAMPLE_RATE_HZ)
    print(f"encoder grid at n_latents={defaults.n_latents}, model_dim={defaults.model_dim}, "
          f"window of {window_samples} samples:")
    print(f"{'depth':>5} {'cross':>5} {'self':>5} {'params(M)':>10} {'ref(M)':>7} {'dev%':>7} "
          f"{'flops(G)':>9} {'ref(G)':>7} {'dev%':>7}")
    for (d, c, s), (ref_p, ref_f) in cost.REFERENCE_COSTS.items():
        cfg = dataclasses.replace(defaults, depth=d, cross_per_block=c, self_per_block=s)
        report = cost.count_params(cfg, n_windows=n_windows)
        flops = cost.encode_flops(cfg, window_samples)
        pm, fg = report.params_total / 1e6, flops / 1e9
        print(f"{d:>5} {c:>5} {s:>5} {pm:>10.2f} {ref_p:>7.2f} {100 * (pm - ref_p) / ref_p:>+7.1f} "
              f"{fg:>9.2f} {ref_f:>7.2f} {100 * (fg - ref_f) / ref_f:>+7.1f}")

    print()
    print(f"pipeline FLOPs vs window size on a {args.input_len}-sample input, "
          f"layout ({','.join(map(str, defaults.layout()))}):")
    print(f"{'T(s)':>5} {'windows':>8} {'flops(G)':>10}")
    flops_by_t = {}
    for t in range(1, 6):
        nw = sig.n_windows_for(args.input_len, float(t), sig.SAMPLE_RATE_HZ)
        flops_by_t[t] = cost.count_flops(defaults, args.input_len, nw).flops_forward
        print(f"{t:>5} {nw:>8} {flops_by_t[t] / 1e9:>10.3f}")
    t_min = min(flops_by_t, key=lambda t: (flops_by_t[t], -t))
    t_max = max(flops_by_t, key=lambda t: (flops_by_t[t], t))
    print(f"max at T={t_max}, min at T={t_min} "
          f"({flops_by_t[t_max] / 1e9:.3f}G vs {flops_by_t[t_min] / 1e9:.3f}G)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resppain",
                                     description="Respiration-based pain-level classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--per-class", type=int, required=True,
                         help="training records per class")
    p_synth.add_argument("--val-per-class", type=int, default=0)
    p_synth.add_argument("--test-per-class", type=int, default=0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--duration-s", type=positive_float, default=sig.SYNTH_DURATION_S, dest="duration_s")
    p_synth.add_argument("--sample-rate-hz", type=positive_float, default=sig.SAMPLE_RATE_HZ,
                         dest="sample_rate_hz")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a classifier from a manifest")
    p_train.add_argument("--config", help="INI config file")
    p_train.add_argument("--data", help="dataset manifest (overrides config)")
    p_train.add_argument("--out", required=True, help="run directory")
    p_train.add_argument("--seed", type=int, help="override train.seed")
    p_train.add_argument("--window-seconds", type=positive_float, dest="window_seconds")
    p_train.add_argument("--fusion", choices=list(fus.VARIANTS), help="override fusion variant")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset manifest")
    p_eval.add_argument("--split", choices=list(sig.SPLITS), default="test")
    p_eval.add_argument("--window-seconds", type=positive_float, dest="window_seconds")
    p_eval.set_defaults(func=cmd_eval)

    p_prof = sub.add_parser("profile", help="parameter/FLOP tables for the standard layouts")
    p_prof.add_argument("--input-len", type=int, default=sig.PAD_TARGET, dest="input_len")
    p_prof.add_argument("--window-seconds", type=positive_float, default=sig.WINDOW_SECONDS,
                        dest="window_seconds")
    p_prof.set_defaults(func=cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except sig.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except enc.CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except trn.NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
