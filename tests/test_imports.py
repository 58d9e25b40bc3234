"""Source hygiene of the package's modules.  Read with ast, every
imported name is used and no module reaches into another's private
(underscore) names; read as text, no line is over 100 columns.  In a
fresh interpreter, importing the package does not load `dataclasses`."""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_is_over_100_columns(path):
    lines = path.read_text().splitlines()
    assert [i for i, line in enumerate(lines, 1) if len(line) > 100] == []


@pytest.mark.parametrize(
    "code",
    ["import mhslab", "import mhslab.congruences as c; c.registry()", "import mhslab.cli"],
)
def test_import_does_not_load_dataclasses(code):
    # Every command-line call pays the import: the records are NamedTuples,
    # so no dataclass machinery (dataclasses, inspect, ast) loads with it.
    env = dict(os.environ)
    src = str(Path(mhslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code += "\nimport sys\nprint('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
