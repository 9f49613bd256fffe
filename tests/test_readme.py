import argparse
import re
import shlex
from pathlib import Path

import pytest

from aclab.cli import build_parser

REPO = Path(__file__).resolve().parents[1]


def _bash_commands():
    # one command per logical line of each ```bash block, continuations joined
    text = (REPO / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, re.S | re.M):
        commands += [shlex.split(line, comments=True) for line in
                     block.replace("\\\n", " ").splitlines()]
    return [c for c in commands if c]


def test_readme_has_cli_and_python_commands():
    programs = {argv[0] for argv in _bash_commands()}
    assert "aclab" in programs and "python3" in programs


@pytest.mark.parametrize("argv", [c for c in _bash_commands() if c[0] == "aclab"])
def test_readme_aclab_command_parses(argv):
    build_parser().parse_args(argv[1:])  # a usage error raises SystemExit


@pytest.mark.parametrize("argv", [c for c in _bash_commands() if c[0].startswith("python")])
def test_readme_python_command_names_an_existing_file(argv):
    for path in (a for a in argv[1:] if a.endswith(".py")):
        assert (REPO / path).is_file(), path


def test_readme_flags_are_aclab_options():
    # every --flag of an inline code span that names a flag or an aclab command
    text = re.sub(r"^```.*?^```", "", (REPO / "README.md").read_text(), flags=re.S | re.M)
    spans = [s for s in re.findall(r"`([^`\n]+)`", text) if s.startswith(("--", "aclab "))]
    flags = {f for s in spans for f in re.findall(r"(?<!\S)--[a-z][a-z0-9-]*", s)}
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for sub in commands.choices.values() for o in sub._option_string_actions}
    assert "--kappa" in flags
    assert not flags - options, sorted(flags - options)
