#!/usr/bin/env python3
"""Relaxation-rate experiments across the three diffusion regimes.

Runs the canonical initial data sin(x) at kappa = 2 (exponential decay to
zero), kappa = 1 (algebraic decay with the universal first-mode level), and
0.5 sin(x) at kappa = 0.9 (convergence to the nontrivial steady profile),
then writes trajectory CSVs, fitted-decay residual curves, and a JSON
summary of rates and profiles.

The run settings (dt, t_end, record spacing, initial data) are the
acceptance gate's, read from ``aclab.verify._RUNS``.

Usage: python scripts/relaxation_experiments.py [--out OUT]
"""

import argparse
import math
from pathlib import Path

import numpy as np

from aclab import serialize
from aclab.diagnostics import extract_profile, fit_rate
from aclab.evolution import evolve, initial_spectrum, terminal_comparison
from aclab.ground_state import DEFAULT_N_POINTS, build_ground_state
from aclab.spectral import TorusGrid
from aclab.verify import _RUNS


def run_and_dump(name, run, out):
    params, preset = _RUNS[run]
    traj = evolve(initial_spectrum(preset, params.max_mode), params)
    serialize.write_csv(
        out / f"trajectory_{name}.csv",
        serialize.TRAJECTORY_HEADER,
        serialize.trajectory_rows(traj),
    )
    return traj


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/relaxation"))
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    summary = {}

    fast = run_and_dump("kappa2", "kappa2_sinx", out)
    d = fast.diagnostics
    fit = fit_rate(d.times, np.sqrt(d.mass), "exponential", window=(1.0, 3.0))
    serialize.write_csv(
        out / "fit_kappa2_l2.csv",
        serialize.RATE_FIT_HEADER,
        serialize.rate_fit_rows(d.times, np.sqrt(d.mass), fit),
    )
    tail = fit_rate(d.times, d.hi_mass, "exponential", window=(0.5, 2.0))
    summary["kappa2"] = {
        "l2_rate": fit.rate_or_exponent,
        "expected_rate": 3.0,
        "tail_rate": tail.rate_or_exponent,
        "expected_tail_rate": 9.0,  # 3 (kappa^2 - 1), the rate of c_1^3; the gate asks >= 8.8
    }
    print(f"kappa=2: L2 rate {fit.rate_or_exponent:.5f} (expect 3), "
          f"tail rate {tail.rate_or_exponent:.4f} (expect 9)")

    slow = run_and_dump("kappa1", "kappa1_sinx", out)
    d = slow.diagnostics
    fit = fit_rate(d.times, np.sqrt(d.mass), "algebraic", window=(10.0, 100.0))
    serialize.write_csv(
        out / "fit_kappa1_l2.csv",
        serialize.RATE_FIT_HEADER,
        serialize.rate_fit_rows(d.times, np.sqrt(d.mass), fit),
    )
    prof = extract_profile(d, 1.0, window=(10.0, 100.0))
    summary["kappa1"] = {
        "l2_exponent": fit.rate_or_exponent,
        "expected_exponent": 0.5,
        "first_mode_level_squared": prof.value**2,
        "universal_level_squared": 2.0 / 3.0,
    }
    print(f"kappa=1: exponent {fit.rate_or_exponent:.4f} (expect 0.5), "
          f"level^2 {prof.value**2:.6f} (expect {2 / 3:.6f})")

    settle = run_and_dump("kappa09", "kappa09_half", out)
    gs = build_ground_state(0.9, TorusGrid(DEFAULT_N_POINTS))
    sign, err = terminal_comparison(settle, gs.field)
    summary["kappa09"] = {
        "terminal": settle.terminal,
        "match": f"{'+' if sign > 0 else '-'}u_kappa",
        "max_error": err,
        "steady_energy": gs.energy,
        "half_pi": math.pi / 2.0,
    }
    print(f"kappa=0.9: {settle.terminal}, matches {summary['kappa09']['match']} "
          f"to {err:.3e}")

    serialize.write_json(out / "summary.json", summary)
    print(f"wrote {out}/summary.json")


if __name__ == "__main__":
    main()
