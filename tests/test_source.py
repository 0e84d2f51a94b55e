"""Checks on the program's source text that need no linter installed."""

import ast
import importlib
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


def _private_bindings(tree: ast.Module) -> dict:
    """Private names a module binds at its top level, with their lines:
    functions, classes and assignment targets named ``_x`` (not dunders)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def _unused_private_names(trees: dict) -> list:
    """(module, line, name) for each top-level private name that no module
    of ``trees`` reads, as a loaded name or as ``module.name``."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                read.add(node.attr)
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in _private_bindings(tree).items()
                  if name not in read)


def test_no_unused_private_names():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SOURCE.glob("*.py"))}
    assert _unused_private_names(trees) == []


def test_unused_private_name_check_finds_one():
    trees = {
        "a": ast.parse("_KINDS = (1, 2)\n_A, _B = 1, 2\n"
                       "def _f():\n    return _A\n"
                       "class _C:\n    _B = 3\n__all__ = []\n"),
        "b": ast.parse("from . import a\nfrom .a import _f\n"
                       "x = a._C\n_f()\n"),
    }
    assert _unused_private_names(trees) == [("a", 1, "_KINDS"),
                                            ("a", 2, "_B")]


def _perfbench_hooks() -> list:
    """``HOOKS`` of perfbench/spans.py, read from its source text."""
    path = SOURCE.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["HOOKS"])


def test_perfbench_hooks_name_existing_targets():
    # the benchmark's tracer wraps these; a renamed target drops its span
    # from every trace, and only a traced run would list it as missing
    hooks = _perfbench_hooks()
    assert hooks
    missing = []
    for _, module, owner, attribute in hooks:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if not hasattr(target, attribute):
            missing.append((module, owner, attribute))
    assert missing == []


def _package_imports() -> dict:
    """Module -> the names ``treelogic/__init__`` imports from it."""
    path = SOURCE / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(
                alias.name for alias in node.names)
    return imported


def _declared_exports(tree: ast.Module) -> list:
    """The strings of a module's ``__all__``, or [] without one."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)), [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_are_what_the_package_imports(path):
    # a name in ``__all__`` that the package does not re-export is public
    # only in name; a re-exported name missing from ``__all__`` is hidden
    # from ``from module import *``
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_declared_exports(tree)) == \
        sorted(_package_imports().get(path.stem, []))


def _private_reads(tree: ast.Module) -> list:
    """(line, what) for each import from a ``treelogic`` submodule, each
    ``_private`` name imported from ``treelogic`` and each ``_private``
    attribute read (dunders excepted)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("treelogic.")]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("treelogic"):
            if node.module != "treelogic":
                found.append((node.lineno, node.module))
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and \
                node.attr.startswith("_") and not node.attr.startswith("__"):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_test_references_read_only_the_public_package():
    # the naive references hold the package's code to the definitions;
    # reading its submodules or private names would let them share it
    path = Path(__file__).parent / "helpers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_reads(tree) == []
    public = {name for names in _package_imports().values()
              for name in names}
    used = {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "treelogic"
            for alias in node.names}
    assert used and used <= public


def test_private_read_check_finds_one():
    tree = ast.parse("import treelogic.model\n"
                     "from treelogic import atom, _bits\n"
                     "from treelogic.partition import _close\n"
                     "x = frame._box_rows\ny = frame.__class__\n")
    assert _private_reads(tree) == [(1, "treelogic.model"), (2, "_bits"),
                                    (3, "_close"), (3, "treelogic.partition"),
                                    (4, "_box_rows")]
