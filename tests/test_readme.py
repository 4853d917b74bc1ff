"""Every command of README's "Command line" block runs and exits 0, and its
example configuration and every inline `key = value` of its "Modeling
notes" parse, so the README cannot cite a flag or a key the program does
not take."""

import io
import re
import shlex
from pathlib import Path

import pytest

from fdrelay.cli import EXIT_OK, cli_main
from fdrelay.config import ScenarioParams, parse_params

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def _commands() -> list[list[str]]:
    """The block's ``fdrelay`` lines, ``\\`` continuations joined, as argv
    lists without the program name and any output redirection."""
    block = re.search(r"```sh\n(.*?)```", _section("Command line"),
                      re.S).group(1)
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


def test_example_config_parses():
    example = _section("Command line").split("Example:", 1)[1]
    block = re.search(r"```\n(.*?)```", example, re.S).group(1)
    params = parse_params(block)
    assert params != ScenarioParams()
    params.build()


def _modeling_settings() -> list[str]:
    return re.findall(r"`(\w+ = [^`]+)`", _section("Modeling notes"))


def test_modeling_notes_cite_settings():
    assert len(_modeling_settings()) >= 3


@pytest.mark.parametrize("line", _modeling_settings())
def test_modeling_notes_setting_parses(line):
    parse_params(line).build()
