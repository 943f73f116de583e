"""Count and time the backward pass of one desk-size training sample, op by op.

Usage (from any checkout):

    python tools/tape_census.py [REPEATS]

It builds the acceptance-criterion-10 model (16 latents x 32 wide, one
cross-attention layer, 3 five-second windows over a 1150-sample signal,
gated fusion) and runs one ``training.train`` call on one record, for one
epoch at batch size 1, so the smoothed loss is not scaled by 1/8 and the
map runs in this process.  That one training sample is the only backward
pass; validation runs outside the tape.  Every backward closure is
wrapped at ``numerics._result``, the one place where ops record them, and
the table prints per op:

- ``nodes``: closures that ran
- ``grads`` and ``kB``: parent gradients they returned, and their bytes
- ``to_const`` and ``const_kB``: how many of those went to an operand
  that needs no gradient (``requires_grad`` false), and their bytes
- ``ms``: time inside the op's closures, the minimum over REPEATS
  (default 20) runs of the same sample

Counts are the same on every run; only the times vary.  The wrapper
costs a few microseconds per closure, which the times exclude.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from resppain import encoder as enc  # noqa: E402
from resppain import numerics as nm  # noqa: E402
from resppain import signal as sig  # noqa: E402
from resppain import training as trn  # noqa: E402

ENC_CFG = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0, n_latents=16,
                            model_dim=32, fourier_bands=6, ffn_expansion=4, dropout=0.1,
                            out_dim=32)
PREP = sig.PreprocessConfig(window_seconds=5.0)
TRAIN_CFG = trn.TrainConfig(epochs=1, batch_size=1, warmup_epochs=0, cooldown_epochs=0,
                            label_smoothing=0.1, seed=3407)
_RECORD = nm._result


class Census:
    """Per-op tallies of the closures that ran in one backward pass."""

    def __init__(self):
        self.nodes = defaultdict(int)
        self.grads = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.to_const = defaultdict(int)
        self.const_bytes = defaultdict(int)
        self.seconds = defaultdict(float)

    def recording(self, data, parents, bwd):
        """Stand-in for numerics._result: record the node with a counting closure."""
        op = sys._getframe(1).f_code.co_name

        def counted(g):
            t0 = time.perf_counter()
            out = bwd(g)
            self.seconds[op] += time.perf_counter() - t0
            self.nodes[op] += 1
            for p, pg in zip(parents, out):
                if pg is None:
                    continue
                size = np.asarray(pg).nbytes
                self.grads[op] += 1
                self.nbytes[op] += size
                if not p.requires_grad:
                    self.to_const[op] += 1
                    self.const_bytes[op] += size
            return out

        return _RECORD(data, parents, counted)


def one_sample(record: sig.RespirationRecord) -> Census:
    """One ``training.train`` call on ``record`` alone, with every closure counted."""
    census = Census()
    nm._result = census.recording
    try:
        trn.train([record], [record], ENC_CFG, TRAIN_CFG, PREP)
    finally:
        nm._result = _RECORD
    return census


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not (argv[0].isdigit() and int(argv[0]) > 0)):
        print(__doc__, file=sys.stderr)
        return 2
    repeats = int(argv[0]) if argv else 20
    record = sig.synth_dataset(1, seed=[20260818, 0], duration_s=10.0)[0]
    runs = [one_sample(record) for _ in range(repeats)]
    first = runs[0]
    ms = {op: 1e3 * min(r.seconds[op] for r in runs) for op in first.nodes}
    print(f"{'op':<17}{'nodes':>6}{'grads':>7}{'kB':>10}{'to_const':>9}{'const_kB':>10}"
          f"{'ms':>8}")
    for op in sorted(first.nodes, key=lambda o: -first.nbytes[o]):
        print(f"{op:<17}{first.nodes[op]:>6}{first.grads[op]:>7}{first.nbytes[op] / 1e3:>10.1f}"
              f"{first.to_const[op]:>9}{first.const_bytes[op] / 1e3:>10.1f}{ms[op]:>8.3f}")
    total = min(sum(r.seconds.values()) for r in runs) * 1e3
    print(f"{'total':<17}{sum(first.nodes.values()):>6}{sum(first.grads.values()):>7}"
          f"{sum(first.nbytes.values()) / 1e3:>10.1f}{sum(first.to_const.values()):>9}"
          f"{sum(first.const_bytes.values()) / 1e3:>10.1f}{total:>8.3f}")
    print(f"(one desk-size training sample; times are the minimum of {repeats} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
