"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload desk_train --seeds 101 102 103 104 105

Runs the benchmark once per seed, one run at a time, as BENCHMARK.json
says, and prints for each end-to-end metric the median of the runs and
the distance between the first and third quartile as a share of that
median, next to the metric's bound.  Fails if a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        print(f"{args.workload} {m['name']}: median {med:.5g} {m['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
