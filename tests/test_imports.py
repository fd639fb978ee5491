"""No heis7 module imports a name it never reads, or defines one nobody names.

No linter is installed, so this scans the sources with `ast`. A name that
an import binds at module level must be read somewhere in the module. A
name that a function imports must be read inside that function. The
package's `__init__.py` imports only to re-export, so its module-level
imports are exempt. Every module-level function and class of the package
must be named outside its own body somewhere in the package, the tests or
perfbench; the checks registered with @declare_id are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heis7"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_imports(scope):
    """The import statements of a scope, not those of the functions in it."""
    found, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source, reexports=False):
    """'line name' for each imported name its scope never reads."""
    tree = ast.parse(source)
    scopes = [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    if not reexports:
        scopes.append(tree)
    unused = []
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{node.lineno} {name}")
    return sorted(unused, key=lambda s: int(s.split()[0]))


def test_the_scan_finds_unused_imports():
    source = (
        "import os\n"
        "from math import comb, gcd as g\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return loads, g\n"
        "def h():\n"
        "    from math import floor\n"
        "    return lambda: floor\n"
    )
    assert unused_imports(source) == ["1 os", "2 comb", "4 dumps"]
    assert unused_imports(source, reexports=True) == ["4 dumps"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_the_group_layer_needs_no_polynomials():
    # MonoMat.act works on exponent dicts, so heisenberg imports nothing
    # from the polynomial layer and no Q(zeta7) coefficient domain
    tree = ast.parse((SRC / "heisenberg.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n.module for n in imports if n.module in ("poly", "heis7.poly")]
    assert "CYC" not in {alias.name for n in imports for alias in n.names}


ROOT = SRC.parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _named(tree) -> Counter:
    """How often a tree names each identifier: names read, attributes,
    imported names, and the parts of dotted-name strings (the benchmark
    tracer and monkeypatch name functions by string)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            found.update(node.value.split("."))
    return found


def _registered_check(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "declare_id"
        for d in getattr(node, "decorator_list", ())
    )


def unnamed_definitions(sources, defining):
    """'file name' for each module-level function or class of the files in
    `defining` that no source names outside its own body; checks
    registered with @declare_id run through the registry and are exempt."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    dead = []
    for path in defining:
        for node in trees[path].body:
            if isinstance(node, DEFINITIONS) and not _registered_check(node):
                if named[node.name] == _named(node)[node.name]:
                    dead.append(f"{path} {node.name}")
    return dead


def test_the_scan_finds_unnamed_definitions():
    sources = {
        "a.py": "def used():\n    return 1\ndef rec(n):\n    return rec(n - 1)\n"
        "@declare_id('x')\ndef check():\n    pass\nclass Gone:\n    pass\n",
        "b.py": "from a import used\nTARGETS = ['a.Traced']\n",
        "c.py": "class Traced:\n    pass\ndef orphan():\n    '''orphan is named in text only'''\n",
    }
    assert unnamed_definitions(sources, ["a.py", "c.py"]) == ["a.py rec", "a.py Gone", "c.py orphan"]


def test_no_dead_definitions():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in files}
    package = [name for name in sources if name.startswith("src/")]
    assert unnamed_definitions(sources, package) == []
