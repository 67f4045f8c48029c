"""README.md's examples, run as written against the output they show."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from coherelab.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _block(lang, first_line):
    [body] = [body for tag, body in BLOCKS if tag == lang and body.startswith(first_line)]
    return body


def _examples():
    """``(command, shown output)`` for each ``$ coherelab ...`` line."""
    examples = []
    for tag, body in BLOCKS:
        for chunk in body.split("\n\n"):
            command, *shown = chunk.strip("\n").split("\n")
            if tag == "sh" and command.startswith("$ coherelab "):
                examples.append((command[2:], shown))
    return examples


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    (tmp_path / "plant.net").write_text(_block("", "# plant.net"))
    (tmp_path / "pop.model").write_text(_block("", "# pop.model"))
    monkeypatch.chdir(tmp_path)


def test_the_readme_shows_every_command_example():
    assert [cmd.split()[1] for cmd, _ in _examples()] == [
        "eval", "converge", "simulate", "concentrate", "check"
    ]


@pytest.mark.parametrize("command,shown", _examples(),
                         ids=[cmd.split()[1] for cmd, _ in _examples()])
def test_command_example(readme_files, capsys, command, shown):
    command, _, pipe = command.partition(" | ")
    argv = shlex.split(command)[1:]
    code = main(argv)
    printed = capsys.readouterr().out.splitlines()
    if pipe:
        assert pipe.startswith("head -")
        printed = printed[: int(pipe[len("head -"):])]
    assert code == 0
    assert printed == shown


def test_quickstart():
    code = _block("python", "import numpy as np")
    lines = code.splitlines()
    shown = []
    for k, line in enumerate(lines):
        if line.startswith("print("):
            for comment in lines[k + 1:]:
                if not comment.startswith("# "):
                    break
                shown.append(comment[2:])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown
    assert len(shown) == 5
