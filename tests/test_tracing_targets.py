"""The benchmark's tracer names aclab functions by (module, name) strings.

A rename or a deletion in the library would otherwise surface only when the
benchmark runs.  The tracer's tables are read from its source, not imported,
so the benchmark directory is left as it is.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tables():
    tree = ast.parse(TRACING.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYER_FUNCTIONS", "HOOKED_FUNCTIONS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_tracer_declares_both_tables():
    # a traced run wraps LAYER_FUNCTIONS only, so the hooked outputs the
    # accuracy metrics read must be among them
    tables = _tables()
    assert sorted(tables) == ["HOOKED_FUNCTIONS", "LAYER_FUNCTIONS"]
    assert set(tables["HOOKED_FUNCTIONS"]) <= set(tables["LAYER_FUNCTIONS"])


@pytest.mark.parametrize(
    "mod_name, fn_name", sorted({pair for table in _tables().values() for pair in table})
)
def test_traced_function_resolves(mod_name, fn_name):
    # the lookup instrument() makes before it wraps each function
    fn = getattr(importlib.import_module(f"aclab.{mod_name}"), fn_name)
    assert callable(fn)
