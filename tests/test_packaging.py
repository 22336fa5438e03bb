"""numpy stays the only runtime dependency: in the package metadata and in
every import of the package's modules, each of which uses every name it
imports.  And one function, ``corpus.publish``, writes every file."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # a requirement is its distribution name, then any version specifier
    assert [re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]] == ["numpy"]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "dictsieve").glob("*.py")))
def test_modules_import_only_the_standard_library_and_numpy(module):
    tree = ast.parse((ROOT / "src" / "dictsieve" / module).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "dictsieve").glob("*.py")))
def test_modules_use_every_name_they_import(module):
    """A name bound by an import is read somewhere in the module, or listed
    in its ``__all__``."""
    tree = ast.parse((ROOT / "src" / "dictsieve" / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "dictsieve").glob("*.py")))
def test_modules_import_no_private_name_of_another_module(module):
    """A name that starts with an underscore (a dunder aside) is private to
    its module: what two modules share has a public name."""
    tree = ast.parse((ROOT / "src" / "dictsieve" / module).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dictsieve")
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert private == []


def _writes(tree: ast.AST) -> list[ast.Call]:
    """The calls under ``tree`` that write or rename a file: ``open`` with a
    mode holding ``w``, ``a``, ``x`` or ``+`` (or a mode that is not a
    literal), ``.write_bytes``, ``.write_text``, ``os.replace`` and
    ``os.rename``."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value)):
                calls.append(node)
        elif isinstance(func, ast.Attribute) and (
            func.attr in ("write_bytes", "write_text")
            or (func.attr in ("replace", "rename") and isinstance(func.value, ast.Name) and func.value.id == "os")
        ):
            calls.append(node)
    return calls


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "dictsieve").glob("*.py")))
def test_every_file_is_written_by_publish(module):
    """One writer: only ``corpus.publish`` opens a file for writing or
    renames one, so every artifact is written under a temporary name and
    renamed into place."""
    tree = ast.parse((ROOT / "src" / "dictsieve" / module).read_text(encoding="utf-8"))
    publish = [
        node
        for node in tree.body
        if module == "corpus.py" and isinstance(node, ast.FunctionDef) and node.name == "publish"
    ]
    allowed = {id(call) for node in publish for call in _writes(node)}
    assert [f"{module}:{call.lineno}" for call in _writes(tree) if id(call) not in allowed] == []
    # the walk finds publish's own ``open(temp, "wb")`` and ``os.replace``
    assert len(allowed) == (2 if module == "corpus.py" else 0)
