import json
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


def test_relaxation_experiments_smoke(tmp_path):
    result = _run_script("relaxation_experiments.py", tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("kappa2", "kappa1", "kappa09"):
        assert (tmp_path / f"trajectory_{name}.csv").stat().st_size > 0
    for name in ("kappa2", "kappa1"):
        assert (tmp_path / f"fit_{name}_l2.csv").stat().st_size > 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"kappa2", "kappa1", "kappa09"}
    assert summary["kappa09"]["terminal"] == "steady_detected"


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
