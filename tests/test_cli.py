import json
import math
import re

import numpy as np
import pytest

from aclab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    _parse_kappa_grid,
    main,
)


def run_cli(args):
    return main(args)


def test_ground_state_outputs(tmp_path, capsys):
    code = run_cli(["ground-state", "--kappa", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "peak value N" in out
    record = json.loads((tmp_path / "ground_state_kappa_0.5.json").read_text())
    assert record["kappa"] == 0.5
    assert record["n_points"] == 2048
    assert len(record["values"]) == 2048
    assert 0.0 < record["N"] < 1.0
    csv_lines = (tmp_path / "ground_state_profile_kappa_0.5.csv").read_text().splitlines()
    assert csv_lines[0] == "x,u,kink"
    assert len(csv_lines) == 2048 // 4 + 2


def test_ground_state_energy_below_half_pi(tmp_path, capsys):
    code = run_cli(["ground-state", "--kappa", "0.9", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    energy_line = next(line for line in out.splitlines() if line.startswith("energy"))
    value = float(energy_line.split("=")[1].split("(")[0])
    assert value < math.pi / 2.0


def test_domain_error_exit_code(tmp_path, capsys):
    code = run_cli(["ground-state", "--kappa", "1.5", "--out", str(tmp_path)])
    assert code == EXIT_DOMAIN_ERROR
    assert "domain error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run_cli(["verify", "--suite", "bogus"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [
        ["ground-state", "--kappa", "0.5", "--seed", "1"],
        ["classify", "--u0", "0.3", "--v0", "0.0", "--kappa", "0.5", "--out", "x"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(args):
    # --seed belongs to verify alone, and classify writes no file
    with pytest.raises(SystemExit) as info:
        run_cli(args)
    assert info.value.code == EXIT_USAGE


def test_removed_filter_choice_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run_cli(["evolve", "--kappa", "0.9", "--filter", "odd"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [
        ["energy-table", "--kappa-grid", "0.1,abc"],
        ["energy-table", "--kappa-grid", ","],
        ["energy-table", "--kappa-grid", "0.1:x:0.1"],
        ["energy-table", "--kappa-grid", "0.1:inf:0.1"],
        ["evolve", "--kappa", "0.9", "--coeffs", "1:x"],
        ["evolve", "--kappa", "0.9", "--dt", "0.01", "--t-end", "0.015"],
        ["evolve", "--kappa", "0.3", "--preset", "sin_2x", "--filter", "bandgap"],
    ],
)
def test_malformed_input_is_domain_error(args, tmp_path, capsys):
    assert run_cli(args + ["--out", str(tmp_path)]) == EXIT_DOMAIN_ERROR
    assert "domain error" in capsys.readouterr().err


def test_classify_json(capsys):
    code = run_cli(["classify", "--u0", "0.3", "--v0", "0.0", "--kappa", "0.5"])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "periodic"
    assert record["C"] == pytest.approx(0.08595)
    assert record["period"] == pytest.approx(3.2536652810824, abs=1e-10)


def test_energy_table_monotone(tmp_path, capsys):
    code = run_cli(
        ["energy-table", "--kappa-grid", "0.3,0.5,0.7", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "energy_table.csv").read_text().splitlines()
    assert lines[0] == "kappa,N,energy,energy_over_kappa"
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert energies == sorted(energies)


def test_energy_table_single_row(tmp_path, capsys):
    code = run_cli(["energy-table", "--kappa-grid", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK


def test_kappa_grid_points_are_the_decimal_values():
    # start + i*step would give 0.15000000000000002, 0.6000000000000001, ...
    decimals = [f"0.{k:02d}".rstrip("0") for k in range(5, 100, 5)]
    assert _parse_kappa_grid("0.05:0.95:0.05") == [float(d) for d in decimals]
    assert _parse_kappa_grid("0.025:0.125:0.05") == [0.025, 0.075, 0.125]
    assert _parse_kappa_grid("1e-1:3e-1:1e-1") == [0.1, 0.2, 0.3]


def test_energy_table_grid_row_matches_single_kappa(tmp_path, capsys):
    assert run_cli(["energy-table", "--kappa-grid", "0.5:0.6:0.05",
                    "--out", str(tmp_path / "grid")]) == EXIT_OK
    assert run_cli(["energy-table", "--kappa-grid", "0.6",
                    "--out", str(tmp_path / "single")]) == EXIT_OK
    grid_rows = (tmp_path / "grid" / "energy_table.csv").read_text().splitlines()
    single_rows = (tmp_path / "single" / "energy_table.csv").read_text().splitlines()
    assert grid_rows[-1] == single_rows[-1]


def test_catalog_table(tmp_path, capsys):
    code = run_cli(["catalog", "--kappa", "0.4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    record = json.loads((tmp_path / "catalog_kappa_0.4.json").read_text())
    assert record["m"] == 2
    assert len(record["replicas"]) == 2
    assert record["replicas"][0]["period"] == pytest.approx(2.0 * math.pi)


def test_evolve_outputs_and_determinism(tmp_path, capsys):
    args = [
        "evolve", "--kappa", "0.9", "--dt", "0.01", "--t-end", "1.0",
        "--preset", "half_sin_x", "--record-every", "10",
    ]
    code = run_cli(args + ["--out", str(tmp_path / "a")])
    assert code == EXIT_OK
    code = run_cli(args + ["--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    name = "trajectory_half_sin_x_kappa_0.9.csv"
    a = (tmp_path / "a" / name).read_bytes()
    b = (tmp_path / "b" / name).read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "t,mass,energy,c1,hi_mass,linf"
    summary = json.loads((tmp_path / "a" / "diagnostics_half_sin_x_kappa_0.9.json").read_text())
    assert summary["terminal"] in ("reached_t_end", "steady_detected")


def test_evolve_with_coeffs_and_filter(tmp_path, capsys):
    code = run_cli(
        [
            "evolve", "--kappa", "2.0", "--dt", "0.01", "--t-end", "0.5",
            "--coeffs", "1:1.0,3:0.3", "--filter", "bandgap",
            "--record-every", "5", "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK


def test_evolve_snapshot_dump(tmp_path, capsys):
    code = run_cli(
        [
            "evolve", "--kappa", "0.9", "--dt", "0.01", "--t-end", "0.2",
            "--preset", "sin_x", "--record-every", "10",
            "--dump-snapshots", "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    record = json.loads((tmp_path / "snapshots_sin_x_kappa_0.9.json").read_text())
    assert len(record["times"]) == len(record["coeffs"])
    assert record["coeffs"][0][0] == 1.0


def test_verify_steady_suite(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "steady", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    # one timing column between the check name and the observed quantity
    rows = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(rows) == 9
    assert all(re.search(r"  +\d+\.\d{3} s  ", line) for line in rows)
    records = json.loads((tmp_path / "verify_steady.json").read_text())
    assert len(records) == 9
    assert all(set(r) >= {"check_name", "pass", "observed", "expected", "tolerance"}
               for r in records)
    assert all(r["pass"] for r in records)


def test_energy_table_bytes_repeat(tmp_path):
    args = ["energy-table", "--kappa-grid", "0.4,0.6,0.8"]
    assert run_cli(args + ["--out", str(tmp_path / "first")]) == EXIT_OK
    assert run_cli(args + ["--out", str(tmp_path / "second")]) == EXIT_OK
    a = (tmp_path / "first" / "energy_table.csv").read_bytes()
    b = (tmp_path / "second" / "energy_table.csv").read_bytes()
    assert a == b


def test_exit_code_constants_are_distinct():
    codes = {EXIT_OK, EXIT_CHECK_FAILURE, EXIT_DOMAIN_ERROR, EXIT_USAGE}
    assert codes == {0, 1, 2, 64}
