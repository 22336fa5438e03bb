"""Check that the test files' frozen references are unchanged against a base
revision.

Usage, from the root of a git checkout:

    python3 tools/frozen_refs.py BASE

BASE is any git revision, such as ``origin/main`` or a commit.  Every
top-level ``frozen_*``, ``oracle_*`` or ``_oracle_*`` function of a
``tests/*.py`` file at BASE must be in the working tree's file of the same
name with the same syntax tree (``ast.dump``, so comments and formatting may
change).  New references are allowed.  Prints each reference that changed
or is missing and exits 1, or prints that none changed and exits 0.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

PREFIXES = ("frozen_", "oracle_", "_oracle_")


def references(source: str) -> dict[str, str]:
    """name -> syntax tree of each top-level reference function of ``source``."""
    return {
        node.name: ast.dump(node)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(PREFIXES)
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def changed(base: str) -> list[str]:
    """``file::function`` for each reference at ``base`` that the working
    tree changed or lacks."""
    found = []
    for name in git("ls-tree", "--name-only", base, "tests/").split():
        if name.endswith(".py"):
            old = references(git("show", f"{base}:{name}"))
            if os.path.exists(name):
                with open(name, encoding="utf-8") as stream:
                    new = references(stream.read())
            else:
                new = {}
            found += [f"{name}::{function}" for function in old if new.get(function) != old[function]]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = changed(argv[0])
    print("\n".join(f"changed or missing: {entry}" for entry in found) or "no frozen reference changed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
