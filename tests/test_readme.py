"""The README's command lines are a smoke test: run in order, each exits 0."""

import shlex
from pathlib import Path

from toposurge.cli import main

README = Path(__file__).parent.parent / "README.md"


def readme_command_lines() -> list[list[str]]:
    """The argument lists of every `toposurge ...` line in the README's
    fenced blocks, in order, with backslash continuations joined."""
    fenced, inside = [], False
    for line in README.read_text().splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            fenced.append(line.strip())
    joined = "\n".join(fenced).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("toposurge ")]


def test_every_readme_command_line_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = readme_command_lines()
    # every README line that starts with the command sits in a fenced block
    assert len(argvs) == sum(line.lstrip().startswith("toposurge ")
                             for line in README.read_text().splitlines())
    for argv in argvs:
        assert main(argv) == 0, "toposurge " + " ".join(argv)
    capsys.readouterr()
