"""Every ``causaltext`` command line in the README's shell blocks is one the
CLI takes: it parses, and an ``eval`` line names a backend ``eval`` builds.
Every long option the CLI takes is named in the README."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from causaltext import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's ``causaltext`` shell lines."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        # a backslash at the end of a line continues the command
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["causaltext"]:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"generate", "solve", "eval", "score"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_is_taken(argv, tmp_path, monkeypatch):
    args = cli.build_parser().parse_args(argv)  # a rejected flag exits 2
    if args.command == "eval":
        monkeypatch.setenv("API_TOKEN", "token")
        monkeypatch.chdir(tmp_path)
        if args.replay is not None:
            (tmp_path / args.replay).mkdir(parents=True)
        backend, _ = cli._eval_backend(args)
        assert backend is not None


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of ``parser`` and of its subcommands' parsers."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= long_options(sub)
    return options


def test_readme_names_every_long_option():
    text = README.read_text(encoding="utf-8")
    missing = sorted(o for o in long_options(cli.build_parser()) - {"--help"}
                     if not re.search(re.escape(o) + r"(?![\w-])", text))
    assert not missing
