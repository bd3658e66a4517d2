"""Dead-import guard: a stdlib stand-in for a linter's unused-import check.

Every module of the package reads each name it imports, and the package's
__all__ lists exactly the names its __init__ imports.
"""

import ast
from pathlib import Path

import pytest

import x0genus

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "x0genus"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module binds by import statements (__future__ excluded)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported_names(tree) - read == set()


def test_all_lists_exactly_the_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(x0genus.__all__) == sorted(imported_names(tree))
    assert len(x0genus.__all__) == len(set(x0genus.__all__))
