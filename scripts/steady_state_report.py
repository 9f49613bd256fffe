#!/usr/bin/env python3
"""Steady-state survey: energy table, replica catalogs, spectral gaps.

Writes plot-ready files into the output directory:

  energy_table.csv       kappa, peak value, ground energy, energy/kappa
  catalog_kappa_*.json   every steady state at the sampled kappas
  spectral_gaps.csv      smallest linearization eigenvalue vs kappa

The table and the catalogs are written by ``aclab energy-table`` and
``aclab catalog``, so they are byte-identical to the CLI's files; only the
spectral gaps are computed here, at the table's kappas from 0.3 up.

Usage: python scripts/steady_state_report.py [--out OUT] [--n-points N]
"""

import argparse
import sys
from pathlib import Path

from aclab import cli, serialize
from aclab.catalog import spectral_gap
from aclab.ground_state import DEFAULT_N_POINTS, build_ground_state
from aclab.spectral import TorusGrid

KAPPA_GRID = "0.05:0.95:0.05"
CATALOG_KAPPAS = ("0.9", "0.45", "0.26")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/steady_report"))
    parser.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    args = parser.parse_args()
    common = ["--n-points", str(args.n_points), "--out", str(args.out)]

    runs = [["energy-table", "--kappa-grid", KAPPA_GRID]]
    runs += [["catalog", "--kappa", kappa] for kappa in CATALOG_KAPPAS]
    for argv in runs:
        status = cli.main(argv + common)
        if status:
            return status

    grid = TorusGrid(args.n_points)
    # the table's kappas, written with 17 digits, parse back to the same doubles
    rows = (args.out / "energy_table.csv").read_text().splitlines()[1:]
    kappas = [k for k in (float(row.split(",")[0]) for row in rows) if k >= 0.3]
    gaps = [(k, spectral_gap(build_ground_state(k, grid), M=256)) for k in kappas]
    serialize.write_csv(args.out / "spectral_gaps.csv", ("kappa", "gap"), gaps)
    print(f"wrote {args.out}/spectral_gaps.csv "
          f"(all gaps positive: {all(g > 0 for _, g in gaps)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
