"""The runtime dependencies pyproject.toml lists are the ones the library imports."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import aclab

REPO = Path(__file__).resolve().parents[1]


def _third_party_imports():
    # top-level modules the library imports anywhere, outside the standard library
    names = set()
    for path in Path(aclab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"aclab"}


def test_runtime_dependencies_are_the_imported_modules():
    with open(REPO / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies}
    assert listed == _third_party_imports()
