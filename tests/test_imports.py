"""Import hygiene of the package's modules, read from their source with
ast: every imported name is used, and no module reaches into another's
private (underscore) names."""

import ast
from pathlib import Path

import pytest

import mhslab

SOURCES = sorted(Path(mhslab.__file__).parent.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, imported name, node) for each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    assert [bound for bound, _, _ in _imports(tree) if bound not in used] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text())
    private = [
        name
        for _, name, node in _imports(tree)
        if isinstance(node, ast.ImportFrom) and name.startswith("_")
    ]
    assert private == []
