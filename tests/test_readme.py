"""README.md documents the command line; check that what it says still holds."""

import argparse
import pathlib
import re

from gamebounds.cli import main, make_parser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_every_option_in_the_readme_is_accepted():
    # argparse has no public accessor for subcommands and their options
    commands = next(a for a in make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {option for name in ("analyze", "verify-qis", "lift")
                for option in commands[name]._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README))
    assert named, "the README names no option"
    assert sorted(named - accepted) == []


def test_quick_start_transcript_is_the_output(capsys):
    transcript = re.search(r"```sh\n\$ gamebounds analyze chsh\n(.*?)```",
                           README, re.S)
    assert transcript is not None
    assert main(["analyze", "chsh"]) == 0
    assert capsys.readouterr().out == transcript.group(1)
