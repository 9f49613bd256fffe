"""Named verification checks grouped into the steady and dynamics suites.

Each check returns a :class:`CheckResult` with the observed quantity, the
expectation it was held against, and the tolerance actually applied, so the
suite output doubles as a quantitative report.  Each trajectory is cached
per run: it feeds its own check, and no_finite_time_extinction reads all four
again.  Each ground state is cached per run too, by (kappa, n_points): five
checks and the catalog read the same few profiles.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import KIND_HETEROCLINIC, KIND_PERIODIC, KIND_UNBOUNDED, KIND_ZERO
from .catalog import build_catalog, classify_orbit, linearization_blocks
from .diagnostics import (
    check_eta0_inequality,
    check_log_convexity,
    extract_profile,
    fit_rate,
    theta_ode_oracle,
)
from .errors import AclabError, DomainError
from .evolution import EvolveParams, evolve, initial_spectrum, terminal_comparison
from .ground_state import (
    DEFAULT_N_POINTS,
    G_AT_ZERO,
    band_edges,
    build_ground_state,
    energy_identities,
    eval_g,
    peak_bounds,
    solve_peak,
)
from .serialize import RATE_FIT_HEADER, TRAJECTORY_HEADER, rate_fit_rows, trajectory_rows
from .spectral import SineSpectrum, TorusGrid, sine_transform

ENERGY_RATIO_LIMIT = 4.0 * math.sqrt(2.0) / 3.0
DEFAULT_SEED = 20240817  # of the randomized checks


def _fold(reduce, acc, *values):
    # a running max or min that any non-finite value turns to NaN, which fails every comparison
    return reduce(acc, *values) if all(map(math.isfinite, values)) else math.nan


@dataclass
class CheckResult:
    passed: bool
    observed: str
    expected: str
    tolerance: str
    window: str | None = None
    detail: str = ""
    name: str = ""  # the check's key in the suite table, set by run_suite
    seconds: float | None = None  # wall time, set by run_suite; not serialized
    tables: dict = field(default_factory=dict)  # name -> (header, rows): CSV, not JSON


@dataclass
class _Context:
    seed: int
    trajectories: dict = field(default_factory=dict)
    ground_states: dict = field(default_factory=dict)

    def ground_state(self, kappa, grid=None):
        key = (kappa, DEFAULT_N_POINTS if grid is None else grid.n_points)
        if key not in self.ground_states:
            self.ground_states[key] = build_ground_state(kappa, grid)
        return self.ground_states[key]

    def trajectory(self, name):
        if name not in self.trajectories:
            params, preset = _RUNS[name]
            self.trajectories[name] = evolve(
                initial_spectrum(preset, params.max_mode), params
            )
        return self.trajectories[name]


_RUNS = {
    "kappa2_sinx": (
        EvolveParams(kappa=2.0, dt=0.01, t_end=3.0, record_every=1),
        "sin_x",
    ),
    "kappa1_sinx": (
        EvolveParams(kappa=1.0, dt=0.1, t_end=100.0, record_every=1),
        "sin_x",
    ),
    "kappa09_half": (
        EvolveParams(kappa=0.9, dt=0.05, t_end=120.0, record_every=1),
        "half_sin_x",
    ),
    "sharp_logconv": (
        EvolveParams(kappa=2.0 / math.sqrt(3.0) + 0.01, dt=0.05, t_end=5.0, record_every=1),
        "sin_x",
    ),
}

RESIDUAL_KAPPAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def check_g_zero(ctx):
    observed = eval_g(0.0)
    err = abs(observed - G_AT_ZERO)
    return CheckResult(
        passed=err <= 1e-12,
        observed=f"g(0) = {observed:.15f}",
        expected=f"pi/(2 sqrt 2) = {G_AT_ZERO:.15f}",
        tolerance="1e-12",
        detail=f"|error| = {err:.3e}",
    )


def check_peak_bounds(ctx):
    kappas = (0.1, 0.15, 0.2, 0.3)
    worst = math.inf
    lines = []
    ok = True
    for kap in kappas:
        pv = solve_peak(kap)
        bounds = peak_bounds(pv)
        if bounds is None:
            lines.append(f"kappa={kap}: N <= sqrt(2/3), bound not applicable")
            continue
        lo, hi = bounds
        holds = lo < pv.complement < hi
        ok = ok and holds
        worst = _fold(min, worst, pv.complement / lo, hi / pv.complement)
        lines.append(
            f"kappa={kap}: {lo:.3e} < 1-N = {pv.complement:.3e} < {hi:.3e} -> {holds}"
        )
    return CheckResult(
        passed=ok and not math.isnan(worst),
        observed=f"min margin factor {worst:.3g}",
        expected="lower < 1-N < upper wherever N > sqrt(2/3)",
        tolerance="strict inequalities",
        detail="; ".join(lines),
    )


def check_profile_residual_and_oracle(ctx):
    from .oracles import shoot_profile  # fractions loads with the oracles, not with verify
    worst_resid = 0.0
    worst_oracle = 0.0
    for kap in RESIDUAL_KAPPAS:
        gs = ctx.ground_state(kap)
        worst_resid = _fold(max, worst_resid, gs.residual)
        vals, _ = shoot_profile(kap, gs.quarter_x)
        worst_oracle = _fold(max, worst_oracle, float(np.max(np.abs(vals - gs.quarter_u))))
    return CheckResult(
        passed=worst_resid < 1e-8 and worst_oracle < 1e-7,
        observed=f"max residual {worst_resid:.3e}, max oracle gap {worst_oracle:.3e}",
        expected="residual < 1e-8 and oracle gap < 1e-7 over kappa in "
        f"{RESIDUAL_KAPPAS}",
        tolerance="1e-8 / 1e-7",
    )


def check_energy_identities(ctx):
    worst = 0.0
    for kap in RESIDUAL_KAPPAS:
        worst = _fold(max, worst, energy_identities(ctx.ground_state(kap)))
    return CheckResult(
        passed=worst <= 1e-8,
        observed=f"max pairwise discrepancy {worst:.3e}",
        expected="three energy forms agree",
        tolerance="1e-8",
    )


def check_energy_monotonicity(ctx):
    kappas = [k / 100 for k in range(5, 96, 5)]  # decimal values: 0.5 is RESIDUAL_KAPPAS' own profile
    energies = [ctx.ground_state(k).energy for k in kappas]
    diffs = np.diff(energies)
    increasing = bool(np.all(diffs > 0.0))
    below = bool(np.all(np.array(energies) < 0.5 * math.pi))
    return CheckResult(
        passed=increasing and below,
        observed=f"min gap {diffs.min():.3e}, max energy {max(energies):.6f}",
        expected=f"strictly increasing, all below pi/2 = {0.5 * math.pi:.6f}",
        tolerance="strict",
        window="kappa in 0.05..0.95 step 0.05",
    )


def check_small_kappa_energy_ratio(ctx):
    gs = ctx.ground_state(0.02, TorusGrid(8192))
    ratio = gs.energy / 0.02
    rel = abs(ratio / ENERGY_RATIO_LIMIT - 1.0)
    return CheckResult(
        passed=rel <= 0.01,
        observed=f"E/kappa = {ratio:.10f}",
        expected=f"4 sqrt(2)/3 = {ENERGY_RATIO_LIMIT:.10f}",
        tolerance="1% relative",
        detail=f"relative deviation {rel:.3e}",
    )


def check_catalog(ctx):
    kappa = 0.26
    grid = TorusGrid(DEFAULT_N_POINTS)
    cat = build_catalog(kappa, grid, ctx.ground_state)
    problems = []
    if cat.m != 3:
        problems.append(f"m = {cat.m} != 3")
    worst_ident = 0.0
    worst_energy = 0.0
    for r in cat.replicas:
        # u_j(x) = U_{j kappa}(jx): the profile's sine spectrum on the multiples of j
        gs_j = ctx.ground_state(r.j * kappa, grid)
        c = sine_transform(r.field).coeffs
        placed = np.zeros_like(c)
        placed[r.j - 1 :: r.j] = sine_transform(gs_j.field).coeffs[: c.size // r.j]
        worst_ident = _fold(max, worst_ident, float(np.max(np.abs(c - placed))))
        worst_energy = _fold(max, worst_energy, abs(r.energy - gs_j.energy))
    mono = all(a.energy < b.energy for a, b in zip(cat.replicas, cat.replicas[1:]))
    if not worst_ident <= 1e-10:
        problems.append(f"replica identity gap {worst_ident:.3e}")
    if not worst_energy <= 1e-8:
        problems.append(f"replica energy gap {worst_energy:.3e}")
    if not mono:
        problems.append("energies not increasing in j")
    return CheckResult(
        passed=not problems,
        observed=f"m={cat.m}, identity gap {worst_ident:.2e}, energy gap {worst_energy:.2e}",
        expected="m=3, replicas match compressed profiles and their energies, "
        "energies increasing in j",
        tolerance="1e-10 identity, 1e-8 energy",
        detail="; ".join(problems) if problems else "",
    )


def check_orbit_classification(ctx):
    from .oracles import first_return_period  # fractions loads with the oracles, not with verify
    rng = np.random.default_rng(ctx.seed)
    kinds = dict.fromkeys((KIND_UNBOUNDED, KIND_HETEROCLINIC, KIND_PERIODIC, KIND_ZERO), 0)
    worst_period = 0.0
    checked_periods = 0
    for _ in range(50):
        kappa = float(rng.uniform(0.25, 2.0))
        u0 = float(rng.uniform(-1.3, 1.3))
        v0 = float(rng.uniform(-1.2, 1.2))
        oc = classify_orbit(u0, v0, kappa)
        kinds[oc.kind] += 1
        if oc.kind == KIND_PERIODIC and not oc.near_boundary and oc.amplitude > 1e-3:
            oracle = first_return_period(u0, v0, kappa, t_max=3.0 * oc.period + 5.0)
            worst_period = _fold(max, worst_period, abs(oracle - oc.period))
            checked_periods += 1
    # deterministic boundary representatives
    zero = classify_orbit(0.0, 0.0, 0.5)
    u_het = math.tanh(1.0 / (math.sqrt(2.0) * 0.5))
    het = classify_orbit(u_het, (1.0 - u_het**2) / (math.sqrt(2.0) * 0.5), 0.5)
    kinds[zero.kind] += 1
    kinds[het.kind] += 1
    regimes_seen = kinds[KIND_UNBOUNDED] > 0 and kinds[KIND_PERIODIC] > 0 and kinds[KIND_ZERO] > 0
    ok = (
        regimes_seen
        and het.kind == KIND_HETEROCLINIC
        and zero.kind == KIND_ZERO
        and worst_period <= 1e-6
        and checked_periods >= 5
    )
    return CheckResult(
        passed=ok,
        observed=f"kinds {kinds}, {checked_periods} periods vs oracle, "
        f"worst gap {worst_period:.3e}",
        expected="all regimes reproduced; period formula matches first-return times",
        tolerance="1e-6 on periods",
    )


def check_spectral_gap(ctx):
    # by Cauchy interlacing a block minimum falls toward its edge as M grows,
    # so an M = 256 minimum at its edge leaves no room for drift at larger M
    worst_gap = math.inf
    worst_edge = 0.0
    for kap in (0.5, 0.7, 0.9):
        gs = ctx.ground_state(kap)
        blocks = linearization_blocks(gs.field, kap)  # odd-m, even-m
        edges = band_edges(gs.peak)[2:4] if len(blocks) == 2 else (math.nan,)
        worst_gap = _fold(min, worst_gap, *blocks)
        worst_edge = _fold(max, worst_edge, *(abs(b - e) for b, e in zip(blocks, edges)))
    return CheckResult(
        passed=worst_gap > 0.0 and worst_edge <= 1e-11,
        observed=f"min gap {worst_gap:.6f}, max block minimum off its Lame edge {worst_edge:.3e}",
        expected="positive gap; at M = 256 the odd-m block minimum at (3/2)(1 - q), "
        "the even-m one at (3/2)(1 + q)",
        tolerance="gap > 0, edges within 1e-11",
    )


def check_fast_decay(ctx):
    traj = ctx.trajectory("kappa2_sinx")
    d = traj.diagnostics
    rate_fit = fit_rate(d.times, np.sqrt(d.mass), "exponential", window=(1.0, 3.0))
    tail_fit = fit_rate(d.times, d.hi_mass, "exponential", window=(0.5, 2.0))
    bound = np.sqrt(math.pi) * np.exp(-3.0 * d.times) * (1.0 + 1e-9)
    bound_ok = bool(np.all(np.sqrt(d.mass) <= bound))
    rate_ok = abs(rate_fit.rate_or_exponent - 3.0) <= 0.06
    tail_ok = tail_fit.rate_or_exponent >= 8.8
    return CheckResult(
        passed=rate_ok and tail_ok and bound_ok,
        observed=f"L2 rate {rate_fit.rate_or_exponent:.5f}, tail rate "
        f"{tail_fit.rate_or_exponent:.4f}, bound holds {bound_ok}",
        expected="rate = 3 within 2%, tail rate >= 8.8, |u|_2 <= sqrt(pi) e^{-3t}",
        tolerance="2% / 8.8 / pointwise",
        window="rate on [1,3], tail on [0.5,2]",
        tables={"trajectory_kappa2_sinx": (TRAJECTORY_HEADER, trajectory_rows(traj)),
                "fit_l2": (RATE_FIT_HEADER, rate_fit_rows(rate_fit)),
                "fit_tail": (RATE_FIT_HEADER, rate_fit_rows(tail_fit))},
    )


def check_algebraic_decay(ctx):
    traj = ctx.trajectory("kappa1_sinx")
    d = traj.diagnostics
    bound = math.sqrt(math.pi) * math.sqrt(math.pi) / np.sqrt(d.times * math.pi + math.pi)
    bound_ok = bool(np.all(np.sqrt(d.mass) <= bound * (1.0 + 1e-9)))
    exp_fit = fit_rate(d.times, np.sqrt(d.mass), "algebraic", window=(10.0, 100.0))
    beta_sq = extract_profile(d, window=(10.0, 100.0)) ** 2
    exp_ok = abs(exp_fit.rate_or_exponent - 0.5) <= 0.05
    beta_ok = abs(beta_sq - 2.0 / 3.0) <= 0.05 * (2.0 / 3.0)
    return CheckResult(
        passed=bound_ok and exp_ok and beta_ok,
        observed=f"exponent {exp_fit.rate_or_exponent:.4f}, beta^2 {beta_sq:.6f}, "
        f"bound holds {bound_ok}",
        expected="exponent 0.5 +- 0.05, beta^2 = 2/3 within 5%, algebraic mass bound",
        tolerance="0.05 / 5% / pointwise",
        window="t in [10, 100]",
        tables={"trajectory_kappa1_sinx": (TRAJECTORY_HEADER, trajectory_rows(traj)),
                "fit_l2": (RATE_FIT_HEADER, rate_fit_rows(exp_fit))},
    )


def check_ground_state_convergence(ctx):
    traj = ctx.trajectory("kappa09_half")
    gs = ctx.ground_state(0.9)
    sign, err = terminal_comparison(traj, gs.field)
    cu = sine_transform(gs.field).coeffs[: traj.params.max_mode]
    dist = np.sqrt(np.pi * np.sum((traj.snapshots - cu) ** 2, axis=1))
    sel = (dist > 1e-5) & (dist < 1e-2)
    fit = fit_rate(
        traj.times[sel], dist[sel], "exponential",
        window=(float(traj.times[sel][0]), float(traj.times[sel][-1])),
    )
    ok = (
        traj.terminal == "steady_detected"
        and sign > 0
        and err < 1e-6
        and not fit.rejected
    )
    return CheckResult(
        passed=ok,
        observed=f"terminal {traj.terminal}, sign {sign:+.0f}, max error {err:.3e}, "
        f"exp fit residual {fit.residual:.3f} at rate {fit.rate_or_exponent:.4f}",
        expected="converges to +profile, max error < 1e-6, clean exponential decay",
        tolerance="1e-6 / fit residual < 0.1",
        window=f"distance in [1e-5, 1e-2] ({int(np.sum(sel))} points)",
        tables={"trajectory_kappa09_half": (TRAJECTORY_HEADER, trajectory_rows(traj)),
                "fit_distance": (RATE_FIT_HEADER, rate_fit_rows(fit))},
    )


def check_sharp_log_convexity(ctx):
    """Sharp interpolation test of the mass over every recorded t1 < t < t2."""
    traj = ctx.trajectory("sharp_logconv")
    rep = check_log_convexity(traj.diagnostics)
    return CheckResult(
        passed=rep.passed,
        observed=f"worst interpolation ratio {rep.worst_ratio:.15f} on t1,t2 = "
        f"{(rep.t1, rep.t2)}",
        expected="mass log-convex with factor 1 over every recorded triple",
        tolerance="ratio <= 1 + 1e-12",
        window="t in [0, 5]",
        tables={"trajectory_sharp_logconv": (TRAJECTORY_HEADER, trajectory_rows(traj))},
    )


def check_no_extinction(ctx):
    names = ("kappa2_sinx", "kappa1_sinx", "kappa09_half", "sharp_logconv")
    min_mass = _fold(min, math.inf, *(float(np.min(ctx.trajectory(n).diagnostics.mass)) for n in names))
    return CheckResult(
        passed=min_mass > 0.0,
        observed=f"min recorded mass {min_mass:.3e}",
        expected="mass strictly positive in every run",
        tolerance="> 0",
    )


def check_eta0_random(ctx):
    rng = np.random.default_rng(ctx.seed + 1)
    worst = math.inf
    for _ in range(100):
        coeffs = rng.normal(size=8)
        worst = _fold(min, worst, check_eta0_inequality(SineSpectrum(coeffs)))
    return CheckResult(
        passed=worst >= 0.75 * (1.0 - 1e-12),
        observed=f"min ratio lhs/|u|_4^4 = {worst:.6f}",
        expected="ratio >= 3/4 on 100 random odd 8-mode spectra",
        tolerance="3/4 with 1e-12 round-off slack",
    )


def check_theta_oracle(ctx):
    fit = theta_ode_oracle(1.0, 3.0, None, 3e4)
    err_star = abs(fit.theta_star - 2.0 / 3.0)
    forced = theta_ode_oracle(0.5, 3.0, lambda t: t**-3, 2e4)
    restart = theta_ode_oracle(forced.evaluate(6.0), 6.0, lambda t: t**-3, 2e4)
    consistency = abs(forced.theta_star - restart.theta_star)
    planted = theta_ode_oracle(1.0 / 9.0, 3.0, lambda t: -2.0 * t**-3 + 1.5 * t**-4, 3e3)
    ts = np.geomspace(3.0, 3e3, 120)
    sup_t2 = _fold(max, -math.inf, *(planted.evaluate(float(t)) * t * t for t in ts))
    ok = (
        err_star <= 1e-6
        and consistency <= 1e-5
        and abs(planted.theta_star) <= 1e-6
        and sup_t2 <= 2.0
    )
    return CheckResult(
        passed=ok,
        observed=f"theta* err {err_star:.2e}, restart gap {consistency:.2e}, "
        f"suppressed regime sup t^2 theta = {sup_t2:.4f}",
        expected="theta* = 2/3 to 1e-6; restart-consistent to 1e-5; "
        "suppressed regime stays O(1/t^2)",
        tolerance="1e-6 / 1e-5 / sup <= 2",
    )


STEADY_CHECKS = (
    ("g_zero", check_g_zero),
    ("peak_two_sided_bounds", check_peak_bounds),
    ("profile_residual_and_shooting_oracle", check_profile_residual_and_oracle),
    ("energy_identity_triple_agreement", check_energy_identities),
    ("ground_energy_monotonicity", check_energy_monotonicity),
    ("small_kappa_energy_ratio", check_small_kappa_energy_ratio),
    ("catalog_at_kappa_026", check_catalog),
    ("orbit_classification_and_periods", check_orbit_classification),
    ("linearization_spectral_gap", check_spectral_gap),
)

DYNAMICS_CHECKS = (
    ("fast_decay_kappa2", check_fast_decay),
    ("algebraic_decay_kappa1", check_algebraic_decay),
    ("convergence_to_ground_state", check_ground_state_convergence),
    ("sharp_log_convexity", check_sharp_log_convexity),
    ("no_finite_time_extinction", check_no_extinction),
    ("eta0_inequality_random", check_eta0_random),
    ("theta_ode_oracle", check_theta_oracle),
)

SUITES = {
    "steady": STEADY_CHECKS,
    "dynamics": DYNAMICS_CHECKS,
    "all": STEADY_CHECKS + DYNAMICS_CHECKS,
}

ALL_CHECK_NAMES = tuple(name for name, _ in SUITES["all"])


def run_suite(suite, seed=DEFAULT_SEED, progress=None):
    """Run a named suite, returning the list of CheckResults in order."""
    if suite not in SUITES:
        raise DomainError(f"domain error: unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"domain error: seed {seed!r} is not a non-negative integer")
    ctx = _Context(seed=seed)
    results = []
    for name, fn in SUITES[suite]:
        t0 = time.perf_counter()
        try:
            result = fn(ctx)
        except AclabError as exc:  # a check that cannot even run has failed
            result = CheckResult(
                passed=False,
                observed=f"error: {exc}",
                expected="check completes",
                tolerance="",
            )
        result.name = name
        result.passed = bool(result.passed)  # numpy comparisons may leak np.bool_
        result.seconds = time.perf_counter() - t0
        results.append(result)
        if progress is not None:
            progress(result)
    return results
