"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --tiny size, untraced and
traced, and checks the result line: exactly the contract's keys, every
check passed, and every metric the spec names printed with its unit and
a finite value.  Then checks that the benchmark exits non-zero, without
a result line, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, expected: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks failed: {proc.stdout.strip().splitlines()[-2]}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, spec says {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check_result(run(ROOT, workload["name"], trace), spec[kind])
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload['name']} --trace {trace}: {len(spec[kind])} metrics")
            failures += [f"{workload['name']} --trace {trace}: {p}" for p in problems]

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        bare_ok = proc.returncode != 0 and not last.startswith("{")
        print(f"{'ok' if bare_ok else 'FAIL':4s} without the package: exit {proc.returncode}")
        if not bare_ok:
            failures.append("benchmark did not fail without the package source")

    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
