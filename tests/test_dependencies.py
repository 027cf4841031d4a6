"""The package's runtime needs only what pyproject.toml declares."""

import ast
from pathlib import Path

import dirichlet_li

PACKAGE = Path(dirichlet_li.__file__).parent


def _imported_modules(tree):
    """Every module an import statement names, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_no_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [(path.name, name) for path in sources
             for name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] == "scipy"]
    assert found == []


def test_every_exported_name_resolves():
    # a stale name in __all__ would make `from dirichlet_li import *` raise
    missing = [name for name in dirichlet_li.__all__ if not hasattr(dirichlet_li, name)]
    assert missing == []
