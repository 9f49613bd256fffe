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
