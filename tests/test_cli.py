import json
import math
import re

import numpy as np
import pytest

from aclab import serialize, verify
from aclab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    _parse_kappa_grid,
    build_parser,
    main,
)
from aclab.diagnostics import fit_rate
from aclab.evolution import PRESETS, evolve, initial_spectrum
from aclab.spectral import sine_transform
from helpers import time_limit


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
    assert 0.0 < record["residual"] < 1e-8  # the profile's PDE residual, and the peak solve's
    assert 0.0 <= record["peak_residual"] < 1e-12
    assert f"pde residual     = {serialize.fmt(record['residual'])}" in out
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
        ["evolve", "--kappa", "nan"],
        ["evolve", "--kappa", "inf"],
        ["evolve", "--kappa", "0.9", "--t-end", "nan"],
        ["evolve", "--kappa", "0.9", "--t-end", "inf"],
        ["evolve", "--kappa", "1e200"],
        ["catalog", "--kappa", "1e-320"],  # once an OverflowError traceback, exit 1
        ["verify", "--suite", "steady", "--seed", "-1"],
    ],
)
def test_malformed_input_is_domain_error(args, tmp_path, capsys):
    assert run_cli(args + ["--out", str(tmp_path)]) == EXIT_DOMAIN_ERROR
    assert "domain error" in capsys.readouterr().err


def test_repeated_coefficient_mode_is_domain_error(tmp_path, capsys):
    # the last value won: "1:0.5,1:0.7" ran with c_1 = 0.7
    args = ["evolve", "--kappa", "0.9", "--t-end", "0.1", "--coeffs", "1:0.5,1:0.7",
            "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_DOMAIN_ERROR
    assert "mode 1 given twice" in capsys.readouterr().err


def test_verify_seed_default_is_the_suite_default():
    args = build_parser().parse_args(["verify", "--suite", "all"])
    assert args.seed == verify.DEFAULT_SEED == 20240817


@pytest.mark.parametrize("u0, v0", [("1e100", "0"), ("0", "1e200")])
def test_classify_overflowing_invariant_is_domain_error(u0, v0, capsys):
    assert run_cli(["classify", "--u0", u0, "--v0", v0, "--kappa", "0.5"]) == EXIT_DOMAIN_ERROR
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["inf", "1e200"])
def test_classify_bad_kappa_is_named(kappa, capsys):
    assert run_cli(["classify", "--u0", "0.3", "--v0", "0", "--kappa", kappa]) == EXIT_DOMAIN_ERROR
    assert f"kappa={float(kappa)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("n_points, code", [("2048", EXIT_OK), ("512", EXIT_DOMAIN_ERROR)])
def test_ground_state_resolution_is_judged_by_the_residual(n_points, code, tmp_path, capsys):
    # kappa = 0.02 builds at the default grid; n_points = 512 cannot resolve its layer
    args = ["ground-state", "--kappa", "0.02", "--n-points", n_points, "--out", str(tmp_path)]
    assert run_cli(args) == code
    if code == EXIT_DOMAIN_ERROR:
        assert "n_points=512" in capsys.readouterr().err


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


@pytest.mark.parametrize("spec", ["0.5,0.1", "0.3,0.3", "0.5:0.5000000000000001:1e-18"])
def test_kappa_grid_not_strictly_increasing_is_domain_error(spec, tmp_path, capsys):
    # "0.5,0.1" printed E/kappa at 0.5 as the smallest kappa's and then failed
    # on energies that were fine; the last step is finer than the floats at 0.5
    code = run_cli(["energy-table", "--kappa-grid", spec, "--out", str(tmp_path / "out")])
    assert code == EXIT_DOMAIN_ERROR
    assert "not strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kappa_grid_points_are_the_decimal_values():
    # start + i*step would give 0.15000000000000002, 0.6000000000000001, ...
    decimals = [f"0.{k:02d}".rstrip("0") for k in range(5, 100, 5)]
    assert _parse_kappa_grid("0.05:0.95:0.05") == [float(d) for d in decimals]
    assert _parse_kappa_grid("0.025:0.125:0.05") == [0.025, 0.075, 0.125]
    assert _parse_kappa_grid("1e-1:3e-1:1e-1") == [0.1, 0.2, 0.3]
    # the count stops at the last point not past stop, never rounds up past it
    assert _parse_kappa_grid("0.1:0.36:0.1") == [0.1, 0.2, 0.3]
    assert _parse_kappa_grid("0.05:0.99:0.05") == [float(d) for d in decimals]


@pytest.mark.parametrize("spec", ["0:1:1e-30", "0:1:1e-9", "0.5:100000.5:1"])
def test_oversized_kappa_grid_is_domain_error(spec, tmp_path, capsys):
    # 1e-30 once overflowed the decimal quotient; 1e-9 asked for 1e9 ground states
    with time_limit(5.0):
        code = run_cli(["energy-table", "--kappa-grid", spec, "--out", str(tmp_path)])
    assert code == EXIT_DOMAIN_ERROR
    assert f"more than {MAX_GRID_POINTS} points" in capsys.readouterr().err
    assert not (tmp_path / "energy_table.csv").exists()


def test_largest_kappa_grid_is_accepted():
    with time_limit(5.0):
        kappas = _parse_kappa_grid("0.5:100000.49:1")
    assert len(kappas) == MAX_GRID_POINTS
    assert kappas[0] == 0.5 and kappas[-1] == 99999.5


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


@pytest.mark.parametrize("kappa", ["1.0", "1.5"])
def test_compare_steady_without_a_steady_profile_is_domain_error(kappa, tmp_path, capsys):
    # at kappa >= 1 there is no nontrivial steady state to compare against
    args = ["evolve", "--kappa", kappa, "--dt", "0.05", "--t-end", "1",
            "--compare-steady", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_DOMAIN_ERROR
    assert "--compare-steady needs kappa < 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_gamma_is_a_usage_error(tmp_path, capsys):
    # evolve solves kappa^2 u_xx + u - u^3 and takes no fractional order
    with pytest.raises(SystemExit) as info:
        run_cli(["evolve", "--kappa", "0.9", "--gamma", "1", "--out", str(tmp_path)])
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --gamma 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_overflowing_step_count_is_domain_error(tmp_path, capsys):
    # t_end / dt is inf: this exited 1 with an OverflowError traceback
    args = ["evolve", "--kappa", "0.5", "--dt", "1e-320", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_DOMAIN_ERROR
    assert "t_end/dt=inf must be positive and finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kappa", ["0.5", "1"])
def test_step_count_above_the_ceiling_is_domain_error(tmp_path, capsys, monkeypatch, kappa):
    # dt = 1e-300 reported sin x steady at kappa = 0.5 and ran until killed
    # at kappa = 1; a run that starts fails the test instead
    def no_run(u0, params):
        raise AssertionError(f"{params} was not refused")

    monkeypatch.setattr("aclab.cli.evolve", no_run)
    args = ["evolve", "--kappa", kappa, "--dt", "1e-300", "--out", str(tmp_path)]
    with time_limit(10.0):
        assert run_cli(args) == EXIT_DOMAIN_ERROR
    assert "exceeds the 1e+08 steps a run may take" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_dt_lost_against_one_is_domain_error(tmp_path, capsys):
    args = ["evolve", "--kappa", "0.5", "--dt", "1e-17", "--t-end", "1e-16", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_DOMAIN_ERROR
    assert "dt=1e-17 is lost against 1.0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_compare_steady_on_a_grid_finer_than_the_default(tmp_path):
    # the profile was built on 2048 points, which cannot hold the run's 1024
    # modes: the run wrote its CSV, then exited 2 with no JSON
    args = ["evolve", "--kappa", "0.9", "--n-points", "4096", "--t-end", "0.1",
            "--compare-steady", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_OK
    summary = json.loads((tmp_path / "diagnostics_sin_x_kappa_0.9.json").read_text())
    assert summary["steady_match"] == "+u_kappa"
    assert 0.0 < summary["steady_max_error"] < 1.0


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_is_a_choice(preset, tmp_path):
    # the CLI reads its --preset choices off evolution.PRESETS
    args = ["evolve", "--kappa", "0.9", "--t-end", "0.1", "--preset", preset, "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_OK
    assert (tmp_path / f"trajectory_{preset}_kappa_0.9.csv").exists()


@pytest.mark.parametrize("preset", ["mixed", "sin_x"])
def test_preset_with_coeffs_is_usage_error(preset, tmp_path):
    # --coeffs won and the preset was dropped without a word
    with pytest.raises(SystemExit) as info:
        run_cli(["evolve", "--kappa", "0.9", "--t-end", "0.1", "--preset", preset,
                 "--coeffs", "1:0.5", "--out", str(tmp_path)])
    assert info.value.code == EXIT_USAGE
    assert not any(tmp_path.iterdir())


def test_compare_steady_names_the_terminal_profile(tmp_path, capsys):
    args = ["evolve", "--kappa", "0.9", "--preset", "half_sin_x", "--dt", "0.05",
            "--t-end", "120", "--record-every", "20", "--compare-steady", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_OK
    summary = json.loads((tmp_path / "diagnostics_half_sin_x_kappa_0.9.json").read_text())
    assert summary["terminal"] == "steady_detected"
    assert summary["steady_match"] == "+u_kappa"
    assert summary["steady_max_error"] < 1e-9
    assert "converged: +u_kappa" in capsys.readouterr().out


def test_compare_steady_says_closest_to_unless_the_run_is_steady(tmp_path, capsys):
    # a run stopped at t = 0.1, far from any steady state, printed
    # "converged: +u_kappa (max error 4.3e-01)"
    args = ["evolve", "--kappa", "0.9", "--preset", "half_sin_x", "--dt", "0.05",
            "--t-end", "0.1", "--compare-steady", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged" not in out
    line = next(ln for ln in out.splitlines() if "u_kappa" in ln)
    assert line.startswith("reached_t_end, closest to: +u_kappa (max error ")
    args[args.index("0.1")] = "120"
    assert run_cli(args) == EXIT_OK
    assert "steady_detected, converged: +u_kappa (max error " in capsys.readouterr().out


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
    # no steady check runs a trajectory or fits a decay, so no table is written
    assert [p.name for p in tmp_path.iterdir()] == ["verify_steady.json"]


def test_verify_dynamics_writes_its_tables(tmp_path, capsys, gs_cache):
    # each table equals the rows of an independent run of the gate's settings
    # and of the same fit, and a second verify run writes the same bytes
    for run in ("first", "second"):
        args = ["verify", "--suite", "dynamics", "--out", str(tmp_path / run)]
        assert run_cli(args) == EXIT_OK
    want = tmp_path / "want"
    want.mkdir()

    def table(check, name, header, rows):
        serialize.write_csv(want / f"verify_{check}_{name}.csv", header, rows)

    def trajectory(check, run):
        params, preset = verify._RUNS[run]
        traj = evolve(initial_spectrum(preset, params.max_mode), params)
        table(check, f"trajectory_{run}", serialize.TRAJECTORY_HEADER,
              serialize.trajectory_rows(traj))
        return traj

    def fit(check, name, times, values, model, window):
        rows = serialize.rate_fit_rows(fit_rate(times, values, model, window))
        table(check, name, serialize.RATE_FIT_HEADER, rows)

    d = trajectory("fast_decay_kappa2", "kappa2_sinx").diagnostics
    fit("fast_decay_kappa2", "fit_l2", d.times, np.sqrt(d.mass), "exponential", (1.0, 3.0))
    fit("fast_decay_kappa2", "fit_tail", d.times, d.hi_mass, "exponential", (0.5, 2.0))
    d = trajectory("algebraic_decay_kappa1", "kappa1_sinx").diagnostics
    fit("algebraic_decay_kappa1", "fit_l2", d.times, np.sqrt(d.mass), "algebraic", (10.0, 100.0))
    traj = trajectory("convergence_to_ground_state", "kappa09_half")
    cu = sine_transform(gs_cache(0.9).field).coeffs[: traj.params.max_mode]
    dist = np.sqrt(np.pi * np.sum((traj.snapshots - cu) ** 2, axis=1))
    sel = (dist > 1e-5) & (dist < 1e-2)
    t = traj.times[sel]
    fit("convergence_to_ground_state", "fit_distance", t, dist[sel], "exponential",
        (float(t[0]), float(t[-1])))
    trajectory("sharp_log_convexity", "sharp_logconv")

    tables = sorted(p.name for p in want.iterdir())
    assert len(tables) == 8
    for run in ("first", "second"):
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == sorted(
            tables + ["verify_dynamics.json"]
        )
        for name in tables:
            assert (tmp_path / run / name).read_bytes() == (want / name).read_bytes(), name
    first = (tmp_path / "first" / "verify_dynamics.json").read_bytes()
    assert (tmp_path / "second" / "verify_dynamics.json").read_bytes() == first


@pytest.mark.parametrize("t_end, step", [("0.4", 4), ("0.5", 5)])
def test_evolve_blow_up_is_a_check_failure(t_end, step, tmp_path, capsys):
    # at 0.4 the last state is finite but too large for its diagnostics; it
    # was once reported as a domain error
    args = ["evolve", "--kappa", "0.5", "--dt", "0.1", "--t-end", t_end,
            "--record-every", "1", "--coeffs", "1:100", "--out", str(tmp_path)]
    assert run_cli(args) == EXIT_CHECK_FAILURE
    assert f"blow-up detected at step {step}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_default_energy_table_and_catalog(tmp_path, capsys):
    assert run_cli(["energy-table", "--out", str(tmp_path)]) == EXIT_OK
    assert run_cli(["catalog", "--kappa", "0.26", "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "energy_table.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows[1:]] == [
        round(0.05 * i, 2) for i in range(1, 20)
    ]
    record = json.loads((tmp_path / "catalog_kappa_0.26.json").read_text())
    assert record["m"] == 3


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
