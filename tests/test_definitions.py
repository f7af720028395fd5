"""Every function and class the package defines is named somewhere else
in the package or its tests.

Dunders are called by Python itself, and decorated functions (click
commands, properties) are reached through their decorator, so both are
left out.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

import binaryshield

PACKAGE = Path(binaryshield.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SEARCHED = MODULES + sorted(Path(__file__).parent.glob("*.py"))


def definitions(source: str) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.decorator_list:
                continue
        elif not isinstance(node, ast.ClassDef):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            names.append(node.name)
    return names


@functools.cache
def _counts(texts: tuple[str, ...]) -> tuple[Counter, Counter]:
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defined = Counter(name for text in texts for name in definitions(text))
    return words, defined


def unreferenced(source: str, texts: tuple[str, ...]) -> list[str]:
    """The names ``source`` defines that occur in ``texts`` no more often
    than they are defined there (``texts`` includes ``source``)."""
    words, defined = _counts(texts)
    return [name for name in definitions(source) if words[name] <= defined[name]]


def test_guard_flags_an_unreferenced_definition():
    module = ("import click\n\nclass Used:\n    def __len__(self): return 0\n"
              "    def orphan(self): pass\n\n@click.command()\ndef cli(): pass\n\n"
              "def helper(): return Used()\n")
    assert unreferenced(module, (module, "helper()\n")) == ["orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    texts = tuple(p.read_text("utf-8") for p in SEARCHED)
    assert unreferenced(path.read_text("utf-8"), texts) == []
