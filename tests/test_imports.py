"""Every name a module of the package imports, and every private name
it defines at module level, is used in it.

A stdlib ast scan: an imported name counts as used when the module
reads it anywhere or lists it in __all__; a private module-level name
(a leading underscore, not a dunder) counts as used when the module
reads it anywhere.
"""

import ast
from pathlib import Path

import mm3sym

PACKAGE = Path(mm3sym.__file__).resolve().parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _stored_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored_names(elt)


def unused_private_names(source):
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n for t in node.targets for n in _stored_names(t)]
        elif isinstance(node, ast.AnnAssign):
            names = list(_stored_names(node.target))
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in read)


def test_scan_finds_unused_names():
    source = ("import os, re as regex\nfrom .a import b, c\n"
              "from .d import e\n__all__ = ['e']\nprint(regex, c)\n")
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_package_has_no_unused_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_scan_finds_unused_private_names():
    source = ("_A = 1\n_B, C = 2, 3\n__version__ = '1'\n"
              "def _f():\n    return _A\n"
              "def _g():\n    _h = 0\n"
              "class _K:\n    pass\n"
              "_n: int = 0\n_m = {}\n_m['k'] = _f()\n")
    assert unused_private_names(source) == [
        (2, "_B"), (6, "_g"), (8, "_K"), (10, "_n")]


def test_package_has_no_unused_private_names():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_private_names(path.read_text())]
    assert found == []
