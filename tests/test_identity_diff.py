"""tools/identity_diff.py's tree comparison, on small hand-made trees."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "identity_diff", Path(__file__).resolve().parents[1] / "tools" / "identity_diff.py")
identity_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity_diff)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_diff_trees_names_every_differing_or_missing_path(tmp_path):
    a = _tree(tmp_path / "a", {"same.txt": b"x", "runs/m.tsv": b"1\n", "only_a.bin": b"", "d/e.txt": b"e"})
    b = _tree(tmp_path / "b", {"same.txt": b"x", "runs/m.tsv": b"2\n", "only_b.bin": b"", "d/e.txt": b"e"})
    assert identity_diff.diff_trees(a, b, ("old", "new")) == [
        "only in old: only_a.bin", "only in new: only_b.bin", "differs: runs/m.tsv"]
    assert identity_diff.diff_trees(a, a, ("old", "new")) == []
