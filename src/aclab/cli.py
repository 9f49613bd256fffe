"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 domain error, 64 usage error.
Identical configurations produce byte-identical files.
"""

import argparse
import math
import sys
from decimal import Decimal
from pathlib import Path

from . import serialize
from .catalog import build_catalog, classify_orbit
from .errors import AclabError, DomainError, ResolutionError, SymmetryError
from .evolution import PRESETS, EvolveParams, evolve, initial_spectrum, terminal_comparison
from .ground_state import DEFAULT_N_POINTS, build_ground_state, energy_identities, kink_profile
from .spectral import TorusGrid
from .verify import DEFAULT_SEED, ENERGY_RATIO_LIMIT, SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN_ERROR = 2
EXIT_USAGE = 64

MAX_GRID_POINTS = 100_000  # one ground state each

FILTER_NAMES = {"none": "none", "bandgap": "odd_band_gap"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind, token, text):
    try:
        return kind(token)
    except ValueError:
        raise DomainError(f"domain error: malformed number {token!r} in {text!r}") from None


def _parse_kappa_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"domain error: grid spec {text!r} is not start:stop:step")
        start, stop, step = (_number(float, p, text) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
            raise DomainError(f"domain error: bad grid spec {text!r}")
        # counted and summed in decimal, so 0.05:0.95:0.05 holds 0.15, not
        # 0.15000000000000002, and 0.1:0.36:0.1 stops at 0.3
        d_start, d_stop, d_step = (Decimal(p) for p in parts)
        # a tiny step overflows the decimal quotient, so the float one screens it
        count = math.inf
        if (stop - start) / step <= MAX_GRID_POINTS:
            count = int((d_stop - d_start) // d_step) + 1
        if count > MAX_GRID_POINTS:
            raise DomainError(f"domain error: grid spec {text!r} holds more than "
                              f"{MAX_GRID_POINTS} points")
        return [float(d_start + i * d_step) for i in range(count)]
    kappas = [_number(float, p, text) for p in text.split(",") if p.strip()]
    if not kappas:
        raise DomainError(f"domain error: empty kappa grid {text!r}")
    return kappas


def _parse_coeffs(text):
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        m, _, val = item.partition(":")
        m = _number(int, m, text)
        if m in out:
            raise DomainError(f"domain error: mode {m} given twice in {text!r}")
        out[m] = _number(float, val, text)
    if not out:
        raise DomainError(f"domain error: empty coefficient list {text!r}")
    return out


def cmd_ground_state(args):
    kappa = args.kappa
    gs = build_ground_state(kappa, TorusGrid(args.n_points))
    report = energy_identities(gs)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tag = repr(float(kappa))
    serialize.write_json(out / f"ground_state_kappa_{tag}.json", serialize.ground_state_record(gs))
    kink = kink_profile(kappa, gs.quarter_x)
    serialize.write_csv(
        out / f"ground_state_profile_kappa_{tag}.csv",
        ("x", "u", "kink"),
        zip(gs.quarter_x, gs.quarter_u, kink),
    )
    print(f"kappa            = {serialize.fmt(kappa)}")
    print(f"peak value N     = {serialize.fmt(gs.peak.N)}")
    print(f"energy           = {serialize.fmt(gs.energy)}  (pi/2 = {serialize.fmt(math.pi / 2)})")
    print(f"pde residual     = {serialize.fmt(gs.residual)}")
    print(f"identity spread  = {serialize.fmt(report.max_discrepancy)}")
    return EXIT_OK


def cmd_energy_table(args):
    kappas = _parse_kappa_grid(args.kappa_grid)
    grid = TorusGrid(args.n_points)
    states = [build_ground_state(k, grid) for k in kappas]
    rows = [(gs.kappa, gs.peak.N, gs.energy, gs.energy / gs.kappa) for gs in states]
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "energy_table.csv"
    serialize.write_csv(path, ("kappa", "N", "energy", "energy_over_kappa"), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    print(f"energy/kappa at smallest kappa: {serialize.fmt(rows[0][3])} "
          f"(small-diffusion limit {serialize.fmt(ENERGY_RATIO_LIMIT)})")
    energies = [r[2] for r in rows]
    if any(b <= a for a, b in zip(energies, energies[1:])):
        print("FAIL: ground energies are not strictly increasing", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    print("ground energies strictly increasing across the grid")
    return EXIT_OK


def cmd_catalog(args):
    kappa = args.kappa
    cat = build_catalog(kappa, TorusGrid(args.n_points))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"catalog_kappa_{float(kappa)!r}.json"
    serialize.write_json(path, serialize.catalog_record(cat))
    print(f"kappa = {serialize.fmt(kappa)}: {cat.m} steady state(s)")
    print(f"{'j':>3} {'energy':>22} {'period':>22}")
    for r in cat.replicas:
        print(f"{r.j:>3} {serialize.fmt(r.energy):>22} {serialize.fmt(r.period):>22}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_classify(args):
    oc = classify_orbit(args.u0, args.v0, args.kappa)
    print(serialize.dumps(oc), end="")
    return EXIT_OK


def cmd_evolve(args):
    params = EvolveParams(
        kappa=args.kappa,
        dt=args.dt,
        t_end=args.t_end,
        n_points=args.n_points,
        filter=FILTER_NAMES[args.filter],
        record_every=args.record_every,
    )
    if args.compare_steady:
        if not params.kappa < 1.0:
            raise DomainError(f"domain error: --compare-steady needs kappa < 1, where u_kappa exists; "
                              f"got kappa={params.kappa!r}")
        gs = build_ground_state(params.kappa, TorusGrid(max(DEFAULT_N_POINTS, params.n_points)))
    if args.coeffs is not None:
        u0 = initial_spectrum(_parse_coeffs(args.coeffs), params.max_mode)
        label = "coeffs"
    else:
        label = args.preset or "sin_x"
        u0 = initial_spectrum(label, params.max_mode)
    traj = evolve(u0, params)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"trajectory_{label}_kappa_{float(params.kappa)!r}.csv"
    serialize.write_csv(csv_path, serialize.TRAJECTORY_HEADER, serialize.trajectory_rows(traj))
    summary = {
        "kappa": params.kappa,
        "dt": params.dt,
        "t_end": params.t_end,
        "n_points": params.n_points,
        "filter": params.filter,
        "preset": label,
        "terminal": traj.terminal,
        "t_last": float(traj.times[-1]),
        "final_mass": float(traj.diagnostics.mass[-1]),
        "final_energy": float(traj.diagnostics.energy[-1]),
    }
    if args.compare_steady:
        sign, err = terminal_comparison(traj, gs.field)
        summary["steady_match"] = f"{'+' if sign > 0 else '-'}u_kappa"
        summary["steady_max_error"] = err
        verdict = "converged" if traj.terminal == "steady_detected" else "closest to"
        print(f"{traj.terminal}, {verdict}: {summary['steady_match']} (max error {err:.3e})")
    if args.dump_snapshots:
        snap_path = out / f"snapshots_{label}_kappa_{float(params.kappa)!r}.json"
        serialize.write_json(
            snap_path,
            {
                "times": traj.times,
                "coeffs": traj.snapshots,
            },
        )
        print(f"wrote {snap_path}")
    json_path = out / f"diagnostics_{label}_kappa_{float(params.kappa)!r}.json"
    serialize.write_json(json_path, summary)
    print(f"terminal: {traj.terminal} at t = {serialize.fmt(traj.times[-1])}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_verify(args):
    suite = args.suite
    results = run_suite(suite, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"verify_{suite}.json"
    serialize.write_json(path, [serialize.check_record(r) for r in results])
    for r in results:
        for table, (header, rows) in r.tables.items():
            serialize.write_csv(args.out / f"verify_{r.name}_{table}.csv", header, rows)
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict}  {r.name:<{width}}  {r.seconds:7.3f} s  {r.observed}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; wrote {path}")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE


def build_parser():
    parser = _Parser(prog="aclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def out_dir(p):
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")

    p = command("ground-state", cmd_ground_state, help="construct one steady profile")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    out_dir(p)

    p = command("energy-table", cmd_energy_table, help="ground energies over a kappa grid")
    p.add_argument("--kappa-grid", type=str, default="0.05:0.95:0.05",
                   help="start:stop:step or comma-separated values")
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    out_dir(p)

    p = command("catalog", cmd_catalog, help="all steady states at one kappa")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)
    out_dir(p)

    p = command("classify", cmd_classify, help="classify a steady-ODE orbit by its invariant")
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)

    p = command("evolve", cmd_evolve, help="run the pseudo-spectral evolution")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--dt", type=float, default=EvolveParams.dt)
    p.add_argument("--t-end", type=float, default=EvolveParams.t_end)
    p.add_argument("--n-points", type=int, default=EvolveParams.n_points)
    p.add_argument("--filter", choices=sorted(FILTER_NAMES), default="none")
    initial = p.add_mutually_exclusive_group()
    initial.add_argument("--preset", choices=tuple(PRESETS), help="named initial data (default sin_x)")
    initial.add_argument("--coeffs", type=str, help='initial data as "m:c,m:c,..."')
    p.add_argument("--record-every", type=int, default=EvolveParams.record_every)
    p.add_argument("--compare-steady", action="store_true",
                   help="compare the terminal state against the steady profile")
    p.add_argument("--dump-snapshots", action="store_true",
                   help="also write the recorded spectra as JSON arrays")
    out_dir(p)

    p = command("verify", cmd_verify, help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks")
    out_dir(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, ResolutionError, SymmetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except AclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
