"""The three benchmark workloads: seeded inputs, one pass each, output checks.

Each pass calls aclab's public functions the way the ``aclab`` CLI, the
scripts under ``scripts/`` and ``aclab verify`` call them, and looks every
function up on its module at call time, so the tracer's wrappers see the
calls.  aclab receives only the inputs generated here from the seed.

An operation fails when it raises an :class:`aclab.AclabError` or when its
output check fails, and it counts as failed once however many of its checks
fail; the checks use the tolerances of the acceptance gate.
"""

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import aclab
from aclab import catalog, evolution, ground_state, serialize, spectral, verify
from aclab.errors import AclabError

# steady_survey: the work of scripts/steady_state_report.py and `aclab energy-table`
SURVEY_KAPPAS = tuple(0.05 + 0.05 * i for i in range(19))
SURVEY_N = 2048
SMALL_KAPPA, SMALL_KAPPA_N = 0.02, 8192
ENERGY_RATIO_LIMIT = 4.0 * math.sqrt(2.0) / 3.0
CATALOG_KAPPAS = {0.9: 1, 0.45: 2, 0.26: 3}  # kappa -> expected number of states
GAP_KAPPA_MIN, GAP_M = 0.3, 256
ORBIT_SAMPLES = 400
ORBIT_KINDS = ("unbounded", "heteroclinic_or_constant", "periodic", "zero")

# basin_map: many short runs that share dt and n_points
BASIN_KAPPA = 0.3
BASIN_RUNS = 16
BASIN_GRID_N = 2048  # grid of the initial data and of the reference profile, as in `aclab evolve`
BASIN_PARAMS = dict(kappa=BASIN_KAPPA, dt=0.01, t_end=60.0, n_points=256, record_every=20)
# |a_1| range of the dominant sin(x) mode; at kappa = 0.3 it splits the
# draws between both verdicts of basin_criterion (threshold E(u_0.6) = 1.123)
BASIN_A1 = (0.25, 1.25)
BASIN_HIGHER = ((2, 0.3), (3, 0.3), (4, 0.15))  # (mode, max |amplitude|)
# A run judged inside the basin must end steady at +-u_kappa.  The stepper's
# O(dt^2) fixed-point offset at dt = 0.01 is 2.0e-5 in max norm; 1e-4 still
# separates +-u_kappa from every other steady state (all O(1) away).
BASIN_TERMINAL_TOL = 1e-4


@dataclass
class PassResult:
    attempted: int = 0
    failed_ops: set = field(default_factory=set)  # labels of the failed operations
    failures: list = field(default_factory=list)  # one message per failed check
    terminal_err_max: float | None = None
    detail: dict = field(default_factory=dict)

    def fail(self, op, what):
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {what}")

    @property
    def failed(self):
        return len(self.failed_ops)


def _attempt(res, label, fn, *args, **kwargs):
    """Run one operation, counting it; an AclabError marks it failed."""
    res.attempted += 1
    try:
        return fn(*args, **kwargs)
    except AclabError as exc:
        res.fail(label, f"{type(exc).__name__}: {exc}")
        return None


# --- gate -----------------------------------------------------------------


@dataclass(frozen=True)
class GateInputs:
    seed: int
    out_dir: Path


def gate_inputs(seed, out_dir):
    return GateInputs(seed=seed, out_dir=out_dir)


def gate_pass(inp):
    """`aclab verify --suite all`: the 16 checks, then the JSON report."""
    res = PassResult()
    stamps = []
    t0 = time.perf_counter()
    results = verify.run_suite(
        "all", seed=inp.seed, progress=lambda r: stamps.append((r.name, time.perf_counter()))
    )
    serialize.write_json(
        inp.out_dir / "verify_all.json", [serialize.check_record(r) for r in results]
    )
    ran = {r.name: r for r in results}
    for name in verify.ALL_CHECK_NAMES:
        res.attempted += 1
        if name not in ran:
            res.fail(f"check {name}", "not run")
        elif not ran[name].passed:
            res.fail(f"check {name}", f"FAIL: {ran[name].observed}")
    for name in sorted(ran.keys() - set(verify.ALL_CHECK_NAMES)):
        res.attempted += 1
        res.fail(f"check {name}", "not a check of the suite")
    prev = t0
    check_s = {}
    for name, t in stamps:
        check_s[name] = t - prev
        prev = t
    res.detail["check_s"] = check_s
    return res


# --- steady_survey ---------------------------------------------------------


@dataclass(frozen=True)
class SurveyInputs:
    orbits: tuple  # (u0, v0, kappa) triples


def survey_inputs(seed):
    rng = np.random.default_rng(seed)
    # the ranges of the gate's orbit-classification check
    kappa = rng.uniform(0.25, 2.0, ORBIT_SAMPLES)
    u0 = rng.uniform(-1.3, 1.3, ORBIT_SAMPLES)
    v0 = rng.uniform(-1.2, 1.2, ORBIT_SAMPLES)
    return SurveyInputs(orbits=tuple(zip(u0.tolist(), v0.tolist(), kappa.tolist())))


def survey_pass(inp):
    """Energy table, small-kappa limit, catalogs, spectral gaps, orbit sample."""
    res = PassResult()
    grid = spectral.TorusGrid(SURVEY_N)
    states = []
    for k in SURVEY_KAPPAS:
        gs = _attempt(res, f"build kappa={k:.2f}", ground_state.build_ground_state, k, grid)
        if gs is not None:
            states.append(gs)
    # energies strictly increasing in kappa and below pi/2; a miss fails the build
    prev = None
    for gs in states:
        op = f"build kappa={gs.kappa:.2f}"
        if gs.energy >= 0.5 * math.pi:
            res.fail(op, f"energy {gs.energy!r} not below pi/2")
        elif prev is not None and not gs.energy > prev.energy:
            res.fail(op, f"energy {gs.energy!r} not above {prev.energy!r} at the previous kappa")
        prev = gs

    small_op = f"build kappa={SMALL_KAPPA}"
    small = _attempt(
        res,
        small_op,
        ground_state.build_ground_state,
        SMALL_KAPPA,
        spectral.TorusGrid(SMALL_KAPPA_N),
    )
    if small is not None:
        rel = abs(small.energy / SMALL_KAPPA / ENERGY_RATIO_LIMIT - 1.0)
        if rel > 0.01:
            res.fail(small_op, f"E/kappa off 4 sqrt(2)/3 by {rel:.3e} > 1%")

    for k, m_expected in CATALOG_KAPPAS.items():
        op = f"catalog kappa={k}"
        cat = _attempt(res, op, catalog.build_catalog, k, grid)
        if cat is not None and cat.m != m_expected:
            res.fail(op, f"m={cat.m}, expected {m_expected}")

    for gs in states:
        if gs.kappa >= GAP_KAPPA_MIN:
            op = f"gap kappa={gs.kappa:.2f}"
            gap = _attempt(res, op, catalog.spectral_gap, gs, M=GAP_M)
            if gap is not None and not gap > 0.0:
                res.fail(op, f"spectral gap {gap!r} not positive")

    kinds = dict.fromkeys(ORBIT_KINDS, 0)
    for u0, v0, k in inp.orbits:
        op = f"classify({u0!r}, {v0!r}, {k!r})"
        oc = _attempt(res, op, catalog.classify_orbit, u0, v0, k)
        if oc is None:
            continue
        if oc.kind not in kinds:
            res.fail(op, f"unknown kind {oc.kind!r}")
            continue
        kinds[oc.kind] += 1
        if oc.kind == "periodic" and not (math.isfinite(oc.period) and oc.period > 0.0):
            res.fail(op, f"period {oc.period!r}")
    res.detail["orbit_kinds"] = kinds
    return res


# --- basin_map -------------------------------------------------------------


@dataclass(frozen=True)
class BasinInputs:
    fields: tuple  # odd initial data on the BASIN_GRID_N grid


def basin_inputs(seed):
    rng = np.random.default_rng(seed)
    grid = spectral.TorusGrid(BASIN_GRID_N)
    x = grid.x
    fields = []
    for _ in range(BASIN_RUNS):
        a = {1: float(rng.choice((-1.0, 1.0)) * rng.uniform(*BASIN_A1))}
        for m, amp in BASIN_HIGHER:
            a[m] = float(rng.uniform(-amp, amp))
        values = sum(c * np.sin(m * x) for m, c in a.items())
        fields.append(spectral.TorusField(grid, values))
    return BasinInputs(fields=tuple(fields))


def basin_pass(inp):
    """basin_criterion, evolve and terminal_comparison for every initial datum."""
    res = PassResult()
    params = evolution.EvolveParams(**BASIN_PARAMS)
    ref = _attempt(
        res,
        f"build kappa={BASIN_KAPPA}",
        ground_state.build_ground_state,
        BASIN_KAPPA,
        spectral.TorusGrid(BASIN_GRID_N),
    )
    if ref is None:  # no reference to compare the runs against
        return res
    inside = 0
    inside_errors = []
    for i, u0 in enumerate(inp.fields):
        op = f"run {i}"
        res.attempted += 1
        try:
            verdict = catalog.basin_criterion(u0, BASIN_KAPPA)
            traj = evolution.evolve(u0, params)
            sign, err = evolution.terminal_comparison(traj, ref.field)
        except AclabError as exc:  # BlowUpError included
            res.fail(op, f"{type(exc).__name__}: {exc}")
            continue
        if verdict.within_basin:
            inside += 1
            inside_errors.append(err)
            if traj.terminal != "steady_detected" or not err <= BASIN_TERMINAL_TOL:
                res.fail(
                    op,
                    f"inside the basin, ended {traj.terminal} at "
                    f"{'+' if sign > 0 else '-'}u_kappa error {err:.3e}",
                )
    res.terminal_err_max = max(inside_errors) if inside_errors else None
    res.detail["inside"] = inside
    res.detail["outside"] = len(inp.fields) - inside
    return res


def make_inputs(workload, seed, out_dir):
    if workload == "gate":
        return gate_inputs(seed, out_dir)
    if workload == "steady_survey":
        return survey_inputs(seed)
    if workload == "basin_map":
        return basin_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


PASSES = {"gate": gate_pass, "steady_survey": survey_pass, "basin_map": basin_pass}


def versions():
    import mpmath
    import scipy

    return {
        "aclab": aclab.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
