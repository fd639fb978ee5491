"""No heis7 module imports a name it never reads.

No linter is installed, so this scans the sources with `ast`. A name that
an import binds at module level must be read somewhere in the module. A
name that a function imports must be read inside that function. The
package's `__init__.py` imports only to re-export, so its module-level
imports are exempt.
"""

import ast
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
