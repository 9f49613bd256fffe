"""Tests of the benchmark itself; kept out of the tier-1 suite (``testpaths``).

    python3 -m pytest benchmarks -q

The traced-run tests start the benchmark as a subprocess from the repository root;
the ``gate`` workload makes them take about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("gate", "steady_survey", "basin_map")

# per-layer metrics the benchmark promises later changes can cite
REQUIRED_PER_LAYER = [
    f"{fn}.{kind}"
    for fn in (
        "quadrature.integrate",
        "roots.find_root",
        "ground_state.solve_peak",
        "ground_state.build_ground_state",
        "catalog.build_catalog",
        "catalog.spectral_gap",
        "catalog.basin_criterion",
        "catalog.classify_orbit",
        "evolution.evolve",
        "diagnostics.fit_rate",
        "diagnostics.check_log_convexity",
        "diagnostics.theta_ode_oracle",
        "oracles.shoot_profile",
        "oracles.peak_complement_mp",
        "oracles.first_return_period",
    )
    for kind in ("calls", "s")
] + ["evolution.steps", "evolution.snapshots", "evolution.s_per_step", "trace.overhead_s"]


def run_bench(workload, trace, seed=5, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_promised_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(REQUIRED_PER_LAYER) <= names
    sys.path.insert(0, str(ROOT / "src"))
    from aclab.verify import ALL_CHECK_NAMES

    assert {f"verify.{c}.s" for c in ALL_CHECK_NAMES} <= names
    assert [m["name"] for m in SPEC["end_to_end"]][:2] == ["wall_s", "setup_s"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat(workload):
    first = last_json(run_bench(workload, trace=1))
    second = last_json(run_bench(workload, trace=1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert first["attempted"] >= 1 and first["failed"] == 0


def test_untraced_run_prints_end_to_end_metrics():
    result = last_json(run_bench("basin_map", trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("steady_survey", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_an_operation_fails_once():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import PassResult, _attempt
    from aclab.errors import AclabError

    def refuse():
        raise AclabError("refused")

    res = PassResult()
    _attempt(res, "build a", refuse)
    res.fail("build a", "energy check")
    _attempt(res, "build b", lambda: None)
    assert (res.attempted, res.failed, len(res.failures)) == (2, 1, 2)


def test_self_time_subtracts_child_spans():
    sys.path.insert(0, str(HERE))
    from tracing import Recorder

    rec = Recorder(spans=True)

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = rec.wrap("m.inner", inner)
    rec.wrap("m.outer", outer)()
    table = rec.per_request()[0]
    assert table["m.inner"][0] == 2 and table["m.outer"][0] == 1
    assert 0.01 <= table["m.outer"][1] < 0.03
    assert table["m.inner"][1] >= 0.04
    assert list(rec.parent) == [-1, 0, 0]
