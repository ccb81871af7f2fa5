"""Every name a module of the package imports is used in it.

A stdlib ast scan: an imported name counts as used when the module
reads it anywhere or lists it in __all__.
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


def test_scan_finds_unused_names():
    source = ("import os, re as regex\nfrom .a import b, c\n"
              "from .d import e\n__all__ = ['e']\nprint(regex, c)\n")
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_package_has_no_unused_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
