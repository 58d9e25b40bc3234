"""The command line's usage-error boundary, read from the source of
cli.py with ast: no _cmd_* function catches an exception, and
parser.error is called only from main, where library errors become usage
errors, and from _reject_ignored."""

import ast
from pathlib import Path

import mhslab.cli as cli

TREE = ast.parse(Path(cli.__file__).read_text())
TRY = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def _top_level(tree: ast.Module):
    """(function name, or None outside a function, node) for every node,
    attributed to the top-level statement that holds it."""
    for stmt in tree.body:
        name = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            yield name, node


def test_no_command_catches_an_exception():
    commands = {name for name, _ in _top_level(TREE) if name and name.startswith("_cmd_")}
    assert len(commands) >= 6
    catching = {
        name for name, node in _top_level(TREE) if name in commands and isinstance(node, TRY)
    }
    assert catching == set()


def test_parser_error_is_called_only_at_the_boundary():
    callers = {
        name
        for name, node in _top_level(TREE)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "error"
        and ast.unparse(node.func.value).endswith("parser")
    }
    assert callers == {"main", "_reject_ignored"}
