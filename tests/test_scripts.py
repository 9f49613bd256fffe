import ast
import os
import subprocess
import sys
from pathlib import Path

import aclab

REPO = Path(__file__).resolve().parents[1]


def _run_script(name, out):
    env = dict(os.environ)
    src = str(Path(aclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_steady_state_report_smoke(tmp_path):
    from aclab.cli import main

    result = _run_script("steady_state_report.py", tmp_path / "report")
    assert result.returncode == 0, result.stderr
    for name in ("energy_table.csv", "spectral_gaps.csv", "catalog_kappa_0.26.json"):
        assert (tmp_path / "report" / name).stat().st_size > 0
    assert main(["energy-table", "--out", str(tmp_path / "cli")]) == 0

    def kappa_column(path):
        return [line.split(",")[0] for line in path.read_text().splitlines()]

    table = kappa_column(tmp_path / "report" / "energy_table.csv")
    assert table == kappa_column(tmp_path / "cli" / "energy_table.csv")
    assert [float(k) for k in table[1:]] == [round(0.05 * i, 2) for i in range(1, 20)]
    gaps = kappa_column(tmp_path / "report" / "spectral_gaps.csv")
    assert gaps[1:] == [k for k in table[1:] if float(k) >= 0.3]


def test_scripts_use_no_private_aclab_name():
    # the scripts run on the public API: they neither import an _-prefixed
    # aclab name nor read one as an attribute of anything imported from aclab
    def private(dotted):
        return any(p.startswith("_") and not p.startswith("__") for p in dotted.split("."))

    hits = []
    for path in sorted((REPO / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                pairs = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
            else:
                continue
            for dotted, local in pairs:
                if dotted.split(".")[0] == "aclab":
                    bound.add(local)
                    hits += [(path.name, dotted)] if private(dotted) else []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    hits.append((path.name, ast.unparse(node)))
    assert hits == []
