"""Compare every artifact of `tools/identity_run.py` between this checkout's
working tree, uncommitted edits included, and a git revision, byte for byte.

Usage (from any directory):

    python tools/identity_diff.py REV

It exports REV with ``git archive`` into a temporary directory, then runs
each side's own ``tools/identity_run.py`` twice: once as is (a worker per
CPU, up to the batch size) and once pinned to one CPU with
``os.sched_setaffinity`` (training in process).  For each of the two
modes it prints every path whose bytes differ between the two sides, or
that only one side wrote, then a summary line.  It exits 0 when both
modes match file for file, 1 when any path differs, and 2 when REV
cannot be exported or a run fails.  The four runs go one after another,
each taking a few seconds to a minute.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def diff_trees(a: Path, b: Path, names: tuple[str, str]) -> list[str]:
    """One line per relative file path whose bytes differ between trees a
    and b, or that exists in only one of them (named by `names`), in path order."""
    files = [{p.relative_to(root): p for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    lines = []
    for rel in sorted(files[0].keys() | files[1].keys()):
        if rel not in files[1]:
            lines.append(f"only in {names[0]}: {rel}")
        elif rel not in files[0]:
            lines.append(f"only in {names[1]}: {rel}")
        elif files[0][rel].read_bytes() != files[1][rel].read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _identity_run(checkout: Path, out: Path, pin) -> None:
    proc = subprocess.run([sys.executable, str(checkout / "tools" / "identity_run.py"), str(out)],
                          capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        print(f"identity_diff: identity_run.py of {checkout} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="identity_diff_") as tmp:
        tmp = Path(tmp)
        theirs = tmp / "rev"
        theirs.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
        if archive.returncode != 0:
            print(f"identity_diff: cannot export {rev!r}: {archive.stderr.decode(errors='replace')}",
                  file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(theirs)], input=archive.stdout, check=True)
        failed = False
        for mode, pin in (("as_is", None), ("one_cpu", _pin_to_one_cpu)):
            trees = tmp / mode / "rev", tmp / mode / "this"
            _identity_run(theirs, trees[0], pin)
            _identity_run(ROOT, trees[1], pin)
            lines = diff_trees(*trees, names=(rev, "this checkout"))
            for line in lines:
                print(f"{mode}: {line}")
            n_files = sum(1 for p in trees[1].rglob("*") if p.is_file())
            print(f"{mode}: {len(lines)} paths differ from {rev}, {n_files} files in this checkout's tree")
            failed |= bool(lines)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
