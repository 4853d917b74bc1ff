"""Every command of README's "Command line" block runs and exits 0, so the
README cannot cite a flag the CLI does not take."""

import io
import re
import shlex
from pathlib import Path

import pytest

from fdrelay.cli import EXIT_OK, cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands() -> list[list[str]]:
    """The block's ``fdrelay`` lines, ``\\`` continuations joined, as argv
    lists without the program name and any output redirection."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "fdrelay":
            if ">" in words:
                words = words[:words.index(">")]
            commands.append(words[1:])
    return commands


def test_block_has_every_subcommand():
    assert {argv[0] for argv in _commands()} == {"solve", "sweep", "verify"}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    assert cli_main(argv, out, err) == EXIT_OK, err.getvalue()
    assert out.getvalue()
