"""No heis7 module imports a name it never reads, or defines one nobody names.

No linter is installed, so this scans the sources with `ast`. A name that
an import binds at module level must be read somewhere in the module. A
name that a function imports must be read inside that function. The
package's `__init__.py` imports only to re-export, so its module-level
imports are exempt. Every module-level function and class of the package
must be named outside its own body somewhere in the package or perfbench,
and so must every name a module-level assignment binds and every method
or property of a module-level class, dunders aside; a name that only the
tests use belongs in the tests. The checks registered with @declare_id
are exempt. The scan matches names, not owners, so a member that shares
its name with another attribute (`rows`, say) hides from it.
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


def _defined(node) -> list:
    """The names a module-level statement defines: a function or class
    (unless registered with @declare_id), or the plain names an assignment
    binds, dunder names aside."""
    if isinstance(node, DEFINITIONS):
        return [] if _registered_check(node) else [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        return [name for name in names if not name.startswith("__")]
    return []


def _members(node) -> list:
    """The methods and properties of a module-level class, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [m for m in methods if not (m.name.startswith("__") and m.name.endswith("__"))]


def unnamed_definitions(sources, defining, naming):
    """'file name' for each module-level function, class or assigned name,
    and 'file Class.member' for each method or property of a module-level
    class, of the files in `defining` that no file in `naming` (which holds
    `defining`) names outside its own statement; checks registered with
    @declare_id run through the registry and are exempt."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = sum((_named(trees[path]) for path in naming), Counter())
    dead = []
    for path in defining:
        for node in trees[path].body:
            for name in _defined(node):
                if named[name] == _named(node)[name]:
                    dead.append(f"{path} {name}")
            for member in _members(node):
                if named[member.name] == _named(member)[member.name]:
                    dead.append(f"{path} {node.name}.{member.name}")
    return dead


def test_the_scan_finds_unnamed_definitions():
    sources = {
        "a.py": "def used():\n    return 1\ndef rec(n):\n    return rec(n - 1)\n"
        "@declare_id('x')\ndef check():\n    pass\nclass Gone:\n    pass\n"
        "KEPT, _LOST = 1, 2\nCOUNT: int = KEPT\n__all__ = []\n",
        "b.py": "from a import used\nTARGETS = ['a.Traced']\n",
        "c.py": "class Traced:\n    pass\ndef orphan():\n    '''orphan is named in text only'''\n"
        "def tested():\n    pass\n",
        "test_c.py": "from c import tested\n",
    }
    dead = ["a.py rec", "a.py Gone", "a.py _LOST", "a.py COUNT", "c.py orphan"]
    assert unnamed_definitions(sources, ["a.py", "c.py"], sources) == dead
    # a definition that only a test names does not count as used
    package = ["a.py", "b.py", "c.py"]
    assert unnamed_definitions(sources, ["a.py", "c.py"], package) == [*dead, "c.py tested"]


def test_the_scan_finds_unnamed_members():
    sources = {
        "a.py": "class Kept:\n    def __init__(self):\n        self.run()\n    def run(self):\n        return 1\n"
        "    def go(self):\n        return self.go()\n    @property\n    def shape(self):\n        return 1\n"
        "    @staticmethod\n    def spare():\n        pass\n    def __eq__(self, other):\n        return True\n",
        "b.py": "from a import Kept\nfrom c import Other\nWRAPPED = ['c.Other.traced']\nSEEN = Kept().rows\n",
        "c.py": "class Other:\n    def traced(self):\n        pass\n    def tested(self):\n        pass\n"
        "    def rows(self):\n        pass\n",
        "test_c.py": "def test(o):\n    o.tested()\n",
    }
    # go only calls itself, shape and spare are never named, and the
    # dunder is exempt; Other.rows hides behind the attribute Kept().rows
    dead = ["a.py Kept.go", "a.py Kept.shape", "a.py Kept.spare"]
    assert unnamed_definitions(sources, ["a.py", "c.py"], sources) == dead
    # a member that only a test names does not count as used
    package = ["a.py", "b.py", "c.py"]
    assert unnamed_definitions(sources, ["a.py", "c.py"], package) == [*dead, "c.py Other.tested"]


def test_no_dead_definitions():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in files}
    package = [name for name in sources if name.startswith("src/")]
    naming = [name for name in sources if not name.startswith("tests/")]
    assert unnamed_definitions(sources, package, naming) == []
