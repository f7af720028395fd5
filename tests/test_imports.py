"""Every name a module of the package imports is used in that module,
and no module imports another package module's ``_``-prefixed names.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import binaryshield

PACKAGE_MODULES = sorted(Path(binaryshield.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names ``source`` imports from the package."""
    return [f"line {node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "binaryshield")
            for alias in node.names if alias.name.startswith("_")]


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom typing import Iterator\n"
                          "from . import kernels\nsys.exit(kernels)\n") == [
        "line 1: os", "line 3: Iterator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_guard_flags_a_private_import():
    assert private_imports("from __future__ import annotations\n"
                           "from .evaluation import _iter_jsonl, load_pairs\n"
                           "from os import _exit\nfrom . import _kernels\n"
                           "def f():\n    from binaryshield.store import _HEADER\n") == [
        "line 2: _iter_jsonl", "line 4: _kernels", "line 6: _HEADER"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text("utf-8")) == []
