import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import aclab
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


def test_readme_names_resolve():
    # every `module.name` or `aclab.module.name` span whose module is an aclab
    # module names something it defines, and every `aclab.module` a module;
    # a file name such as `oracles.py` is not a name
    text = re.sub(r"^```.*?^```", "", (REPO / "README.md").read_text(), flags=re.S | re.M)
    modules = {m.name for m in pkgutil.iter_modules(aclab.__path__)}
    spans = re.findall(r"`([^`\n]+)`", text)
    packaged = [m[1] for s in spans for m in [re.fullmatch(r"aclab\.(\w+)", s)] if m]
    names = {m.groups() for s in spans
             for m in [re.fullmatch(r"(?:aclab\.)?(\w+)\.(\w+)(?:\(.*\))?", s)] if m and m[1] in modules}
    names -= {(module, "py") for module in modules}
    assert "quadrature" in packaged and ("evolution", "MAX_STEPS") in names
    assert not set(packaged) - modules, sorted(set(packaged) - modules)
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"aclab.{module}"), name))
    assert not missing, missing
