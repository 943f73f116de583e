"""Run a fixed set of resppain commands and keep every artifact, so that
two checkouts can be compared byte for byte.

Usage (from any checkout, into a fresh directory):

    python tools/identity_run.py OUT

It runs, in process through ``resppain.cli.main`` and with ``OUT`` as the
working directory:

- ``synth`` into ``OUT/data``
- ``train`` for every ``--fusion`` variant with a micro config (4 latents
  x 8 wide, one self-attention layer, dropout 0.1, augmentation at 0.5,
  4 epochs, ``checkpoint_interval = 2``) into ``OUT/runs/<variant>``
- ``eval`` of every checkpoint those runs wrote, plus a digest of what
  ``training.load_pipeline`` returns for it (every config field, the
  variant, and a sha256 per tensor) in ``OUT/digests/<variant>_<stem>.txt``;
  it does not depend on the file format, so two checkouts that write the
  same payload in different checkpoint layouts give equal digests
- ``profile``, with default flags and with ``--input-len 600
  --window-seconds 2``

Each command's stdout goes to ``OUT/stdout/<step>.txt``; logging (stderr)
is not kept.  The config names its manifest relative to ``OUT``, so
``config_used.ini`` does not depend on where ``OUT`` lives.  Two runs of
equal code give trees that ``diff -r`` finds identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from resppain import cli  # noqa: E402
from resppain import fusion as fus  # noqa: E402
from resppain import training as trn  # noqa: E402

MICRO_CONFIG = """\
[data]
manifest = data/manifest.tsv
pad_len = 400

[encoder]
depth = 1
cross_per_block = 1
self_per_block = 1
n_latents = 4
model_dim = 8
fourier_bands = 2
ffn_expansion = 2
dropout = 0.1
out_dim = 8

[train]
epochs = 4
batch_size = 4
lr = 0.01
warmup_epochs = 1
cooldown_epochs = 1
seed = 11
window_seconds = 2.0
checkpoint_interval = 2

[augment]
polarity_prob = 0.5
noise_prob = 0.5
mask_prob = 0.5
"""


def _run(step: str, argv: list[str]) -> None:
    """cli.main(argv) with stdout captured to stdout/<step>.txt; any exit but 0 aborts."""
    with open(Path("stdout") / f"{step}.txt", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"identity_run: {step} ({' '.join(argv)}) exited {rc}")


def _digest(checkpoint: Path) -> str:
    """What load_pipeline returns for a checkpoint, as text independent of the file format."""
    enc_cfg, params, prep, variant = trn.load_pipeline(checkpoint)
    lines = [f"{type(c).__name__}.{name} = {value!r}"
             for c in (enc_cfg, prep) for name, value in dataclasses.asdict(c).items()]
    lines.append(f"variant = {variant}")
    lines += [f"{name} {t.data.dtype} {t.data.shape} {hashlib.sha256(t.data.tobytes()).hexdigest()}"
              for name, t in params.items()]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path("stdout").mkdir(exist_ok=True)
    Path("digests").mkdir(exist_ok=True)
    Path("micro.ini").write_text(MICRO_CONFIG, encoding="utf-8")
    _run("synth", ["synth", "--per-class", "3", "--val-per-class", "2", "--test-per-class", "2",
                   "--duration-s", "4.0", "--seed", "5", "--out", "data"])
    for variant in fus.VARIANTS:
        _run(f"train_{variant}", ["train", "--config", "micro.ini", "--fusion", variant,
                                  "--out", f"runs/{variant}"])
        for ckpt in sorted(Path("runs", variant).glob("checkpoint_*.bin")):
            _run(f"eval_{variant}_{ckpt.stem}", ["eval", "--checkpoint", str(ckpt),
                                                 "--data", "data/manifest.tsv"])
            Path("digests", f"{variant}_{ckpt.stem}.txt").write_text(_digest(ckpt), encoding="utf-8")
    _run("profile_default", ["profile"])
    _run("profile_600_2s", ["profile", "--input-len", "600", "--window-seconds", "2"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
