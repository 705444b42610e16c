"""Static check of the package source: no module imports a name it never
uses.  A name counts as used when the module reads it or lists it in its
``__all__`` (a re-export); the package ``__init__`` only re-exports."""

import ast
from pathlib import Path

import pytest

import edanet

SOURCES = sorted(p for p in Path(edanet.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """``{bound name: line}`` of every import in the module, ``__future__``
    ones aside; ``import a.b`` binds ``a``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used | exported_names(tree)}
    assert not unused, f"{path.name}: imported but never used: {unused}"
