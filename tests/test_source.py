"""Checks on the program's source text that need no linter installed."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parent.parent / "src" / "treelogic"


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never reads.

    A name counts as read when it appears as a name anywhere in the
    module, annotations included, or as a string in ``__all__``.
    ``from __future__ import annotations`` is a compiler switch, not a
    name.
    """
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


# the package's __init__ imports names in order to re-export them
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_check_finds_one():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport os.path\n"
                     "from math import comb, floor as fl\n"
                     "__all__ = ['comb']\n"
                     "def f(x: 'int') -> os.path.Path:\n"
                     "    return x\n")
    assert _unused_imports(tree) == [(2, "json"), (4, "fl")]
