"""Every name a module of the package imports, and every private name
it defines at module level, is used in it; every name in a module's
__all__ is read somewhere in the package, or kept for a stated reason;
every parameter of a function is read in its body.

A stdlib ast scan: an imported name counts as used when the module
reads it anywhere or lists it in __all__; a private module-level name
(a leading underscore, not a dunder) counts as used when the module
reads it anywhere; an exported name counts as used when some module
reads it, as a name or an attribute, outside the top-level statement
that defines it; a parameter counts as read when the body of its
function or lambda reads it anywhere, nested functions included.
"""

import ast
import subprocess
import sys
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
        if _is_all(node):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _stored_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored_names(elt)


def _defined_names(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n for t in node.targets for n in _stored_names(t)]
    if isinstance(node, ast.AnnAssign):
        return list(_stored_names(node.target))
    return []


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unused_private_names(source):
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        for name in _defined_names(node):
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in read)


def unused_exports(sources):
    """The names in some module's __all__ that no module reads outside
    the top-level statement defining them; sources are module texts."""
    exported, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            if _is_all(node):
                exported |= set(ast.literal_eval(node.value))
                continue
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            read |= names.difference(_defined_names(node))
    return sorted(exported - read)


def unread_parameters(source):
    """(line, "function.parameter") for each parameter that its
    function's body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, f"{name}.{a.arg}")
                  for a in params if a.arg not in read]
    return sorted(found)


# Exported names that no module of the package reads, each with the
# reason it stays.
UNREAD_EXPORTS = {
    "verify_catalog": "package API; bench/ runs it as the catalog workload",
    "enumerate_multisets": "package API: the multiset walk as a list, "
                           "which tests check for order and count",
    "compose": "reference route: tests check act_on_tensor is an action",
    "orbit_and_stabilizer": "package API: the orbit as Tensors, which tests "
                            "compare with the action route",
    "r_sum": "reference route: tests check project against class sums",
    "reynolds": "reference route: tests check project against averaging",
    "trivial_solution": "the rank-27 decomposition ROADMAP item 3 starts from",
}


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


def test_scan_finds_unused_exports():
    sources = [
        "__all__ = ['f', 'g', 'h', 'K']\ndef f():\n    return f()\n"
        "def g():\n    pass\nh = 1\nclass K:\n    pass\n",
        "from . import a\n__all__ = ['k']\ndef k():\n    return a.g(), K\n",
    ]
    # f reads only itself, h and k nothing reads
    assert unused_exports(sources) == ["f", "h", "k"]


def test_package_exports_are_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_exports(sources) == sorted(UNREAD_EXPORTS)


def test_scan_finds_unread_parameters():
    source = ("def f(a, b, *c, d=0, **e):\n    return a + d\n"
              "def g(x):\n    def h(y):\n        return x\n    return h\n"
              "k = lambda u, v: u\n")
    assert unread_parameters(source) == [
        (1, "f.b"), (1, "f.c"), (1, "f.e"), (4, "h.y"), (7, "<lambda>.v")]


def test_package_parameters_are_read():
    # cli dispatch calls every handler _cmd_<name>(args, out)
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unread_parameters(path.read_text())
             if not (path.name == "cli.py" and name.startswith("_cmd_"))]
    assert found == []


def test_cli_import_skips_heavy_stdlib_modules():
    # records are named tuples, so no process pays for dataclasses and
    # the inspect, ast and dis modules it loads
    code = ("import sys\nbefore = set(sys.modules)\nimport mm3sym.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         cwd=PACKAGE.parent).stdout.split()
    assert "mm3sym.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
