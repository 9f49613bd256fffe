import json
import os
import subprocess
import sys
from pathlib import Path

import aclab

REPO = Path(__file__).resolve().parents[1]


def test_relaxation_experiments_smoke(tmp_path):
    env = dict(os.environ)
    src = str(Path(aclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = REPO / "scripts" / "relaxation_experiments.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for name in ("kappa2", "kappa1", "kappa09"):
        assert (tmp_path / f"trajectory_{name}.csv").stat().st_size > 0
    for name in ("kappa2", "kappa1"):
        assert (tmp_path / f"fit_{name}_l2.csv").stat().st_size > 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"kappa2", "kappa1", "kappa09"}
    assert summary["kappa09"]["terminal"] == "steady_detected"
