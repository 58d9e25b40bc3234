"""README examples run as written.

Every `$ mhslab ...` line in a ```text block goes through mhslab.cli.main,
and its stdout must equal the lines shown under it.  A leading `...` line
stands for any lines before the shown tail.  The "Library use" block is
executed as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from mhslab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for every CLI example."""
    examples: list[tuple[str, list[str]]] = []
    for block in _blocks("text"):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif examples and line:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) >= 15
    assert all(cmd.startswith("mhslab ") for cmd, _ in EXAMPLES)


@pytest.mark.parametrize("cmd, want", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_cli_example(cmd, want, capsys):
    main(shlex.split(cmd)[1:])
    got = capsys.readouterr().out.splitlines()
    if want[:1] == ["..."]:
        tail = want[1:]
        assert len(got) >= len(tail) and got[len(got) - len(tail):] == tail
    else:
        assert got == want


def test_library_use_block():
    section = README.split("## Library use", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.M | re.S)
    exec(compile(code, "README.md (Library use)", "exec"), {})
