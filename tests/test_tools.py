"""Smoke tests of the scripts under tools/: each runs as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_tape_census_runs_and_prints_a_total_row():
    proc = subprocess.run([sys.executable, str(TOOLS / "tape_census.py"), "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = [line.split() for line in proc.stdout.splitlines() if line.startswith("total")]
    # counts repeat exactly on every run: a change to the tape re-pins them
    assert len(totals) == 1 and totals[0][1:3] == ["99", "201"], proc.stdout


def test_identity_run_is_worker_count_independent(tmp_path):
    # one run as is (a worker per CPU, up to the batch size), one pinned to a
    # single CPU (training in process): every artifact must match byte for byte
    one_cpu = min(os.sched_getaffinity(0))
    trees = []
    for name, pin in (("as_is", None), ("one_cpu", lambda: os.sched_setaffinity(0, {one_cpu}))):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, str(TOOLS / "identity_run.py"), str(out)],
                              capture_output=True, text=True, timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 101
    assert trees[0].keys() == trees[1].keys()
    for rel, data in trees[0].items():
        assert trees[1][rel] == data, rel
