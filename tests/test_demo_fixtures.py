"""The committed fixtures are exactly what tools/make_demo_fixtures.py writes."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_regenerated_fixtures_are_byte_identical(tmp_path):
    # the script derives its root from its own path, so the copy writes
    # tmp_path/fixtures and never the repository's
    for directory in ("src", "tools"):
        shutil.copytree(
            ROOT / directory, tmp_path / directory, ignore=shutil.ignore_patterns("__pycache__")
        )
    subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "make_demo_fixtures.py")],
        cwd=tmp_path, check=True, capture_output=True,
    )
    regenerated, committed = _tree(tmp_path / "fixtures"), _tree(ROOT / "fixtures")
    assert sorted(regenerated) == sorted(committed)
    assert [path for path in sorted(committed) if regenerated[path] != committed[path]] == []
