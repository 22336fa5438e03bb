"""``tools/frozen_refs.py``, the check that a change keeps the test files'
frozen references, run on a scratch git repository."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "frozen_refs.py"

BASE = '''import math


def frozen_area(r):
    """The old formula."""
    return math.pi * r * r


def _oracle_sum(values):
    return sum(values)


def helper(x):
    return x
'''


def git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def frozen_refs(repo: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "HEAD"], cwd=repo, capture_output=True, text=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_frozen_refs_fails_only_on_a_changed_or_missing_reference(tmp_path):
    (tmp_path / "tests").mkdir()
    test_file = tmp_path / "tests" / "test_area.py"
    test_file.write_text(BASE, encoding="utf-8")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    assert frozen_refs(tmp_path).returncode == 0

    # comments and other functions may change, and references be added
    kept = BASE.replace("    return x\n", "    return x + 1\n").replace("    return math.pi", "    # a comment\n    return math.pi")
    test_file.write_text(kept + "\n\ndef frozen_new():\n    return 1\n", encoding="utf-8")
    assert frozen_refs(tmp_path).returncode == 0

    test_file.write_text(BASE.replace("return sum(values)", "return sum(values) + 0"), encoding="utf-8")
    result = frozen_refs(tmp_path)
    assert (result.returncode, result.stdout) == (1, "changed or missing: tests/test_area.py::_oracle_sum\n")

    test_file.unlink()
    result = frozen_refs(tmp_path)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "changed or missing: tests/test_area.py::frozen_area",
        "changed or missing: tests/test_area.py::_oracle_sum",
    ]
