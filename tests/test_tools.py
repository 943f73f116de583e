"""Smoke tests of the scripts under tools/: each runs as a user would run it."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_tape_census_runs_and_prints_a_total_row():
    proc = subprocess.run([sys.executable, str(TOOLS / "tape_census.py"), "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = [line.split() for line in proc.stdout.splitlines() if line.startswith("total")]
    assert len(totals) == 1 and int(totals[0][1]) > 0, proc.stdout
