"""End-to-end acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; the same checks back ``aclab verify --suite all``.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import aclab.oracles
from aclab import catalog, verify
from aclab.diagnostics import check_log_convexity, fit_rate
from aclab.errors import AclabError, DomainError
from aclab.verify import ALL_CHECK_NAMES, DEFAULT_SEED, run_suite

SEED = DEFAULT_SEED


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_suite("all", seed=SEED)}


@pytest.fixture(scope="module")
def suite_work():
    # one run_suite("all") with the profile builds and the eigensolves recorded
    builds, solves = Counter(), []
    build, solve = verify.build_ground_state, np.linalg.eigvalsh

    def counted_build(kappa, grid=None):
        builds[kappa, verify.DEFAULT_N_POINTS if grid is None else grid.n_points] += 1
        return build(kappa, grid)

    def sized_solve(A):
        solves.append(A.shape[0])
        return solve(A)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "build_ground_state", counted_build)
        mp.setattr(catalog, "build_ground_state", counted_build)
        mp.setattr(np.linalg, "eigvalsh", sized_solve)
        results = run_suite("all", seed=SEED)
    assert all(r.passed for r in results)
    return builds, solves


def test_suite_builds_each_ground_state_once(suite_work):
    # five checks and the catalog read 23 distinct (kappa, n_points) profiles, some several
    # times; the monotonicity grid's 0.5 is RESIDUAL_KAPPAS' own
    builds, _ = suite_work
    assert set(builds.values()) == {1}
    assert len(builds) == 23 and (0.5, 2048) in builds and (0.02, 8192) in builds and (0.78, 2048) in builds


def test_suite_solves_only_the_m256_parity_blocks(suite_work):
    # the gap check's two blocks of 128 modes at each of its three kappas, and
    # no M = 512 matrix: the Lame edges bound what the doubling measured
    _, solves = suite_work
    assert solves == [128] * 6


def test_all_criteria_present(results):
    assert tuple(results) == ALL_CHECK_NAMES  # table order
    assert len(ALL_CHECK_NAMES) == 16


@pytest.mark.parametrize("name", ALL_CHECK_NAMES)
def test_criterion(results, name):
    r = results[name]
    line = (
        f"{'PASS' if r.passed else 'FAIL'} {name}: {r.observed} "
        f"[expected {r.expected}; tol {r.tolerance}]"
    )
    print(line)
    assert r.passed, line + (f" :: {r.detail}" if r.detail else "")


def test_raising_check_fails_under_its_table_name(monkeypatch):
    def broken(ctx):
        raise AclabError("planted failure")

    monkeypatch.setitem(verify.SUITES, "steady", (("g_zero", broken),))
    seen = []
    (result,) = run_suite("steady", progress=seen.append)
    assert seen == [result]
    assert result.name == "g_zero" and result.passed is False
    assert result.observed.startswith("error:")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_period_fails_its_check(monkeypatch, bad):
    # max(0.0, nan) is 0.0: a nan oracle period once passed as "worst gap 0.000e+00"
    monkeypatch.setattr(aclab.oracles, "first_return_period", lambda *args, **kwargs: bad)
    result = verify.check_orbit_classification(verify._Context(seed=SEED))
    assert not result.passed and result.observed.endswith("worst gap nan")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_spectral_gap_fails_its_check(monkeypatch, bad):
    # min(inf, nan) is inf: a nan gap once passed as "min gap inf"; here the
    # odd-m block minimum is the non-finite one and the even-m one is finite
    monkeypatch.setattr(verify, "linearization_blocks", lambda field, kappa, M=256: (bad, 1.5))
    result = verify.check_spectral_gap(verify._Context(seed=SEED))
    assert not result.passed and result.observed.startswith("min gap nan")


def test_non_finite_interpolation_ratio_fails_its_check(monkeypatch):
    # a nan worst ratio, as no positive finite mass produces: the check fails and says nan
    def planted(series):
        return dataclasses.replace(check_log_convexity(series), worst_ratio=math.nan, passed=False)

    monkeypatch.setattr(verify, "check_log_convexity", planted)
    result = verify.check_sharp_log_convexity(verify._Context(seed=SEED))
    assert not result.passed and "ratio nan" in result.observed


def test_each_fit_table_is_read_off_its_fit(monkeypatch):
    # the four fit tables list the samples each fit used, and their largest
    # |relative residual| is the fit's own residual
    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit_rate(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(verify, "fit_rate", recorded)
    results = run_suite("dynamics", seed=SEED)
    tables = [rows for r in results for name, (_, rows) in r.tables.items()
              if name.startswith("fit_")]
    assert len(fits) == len(tables) == 4
    for fit, rows in zip(fits, tables):
        assert np.array_equal(rows[:, :3], np.column_stack((fit.t, fit.y, fit.y_fit)))
        assert np.max(np.abs(rows[:, 3])) == fit.residual


# per gate run, its check and each value the check compares: how to read the
# value off what the check's fits, profile, terminal comparison and
# log-convexity test returned (in call order), and its margin to the tolerance
_COMPARED = {
    "kappa2_sinx": (verify.check_fast_decay, {
        "L2 rate": (lambda out: out[0].rate_or_exponent, lambda r: 0.06 - abs(r - 3.0)),
        "tail rate": (lambda out: out[1].rate_or_exponent, lambda r: r - 8.8),
    }),
    "kappa1_sinx": (verify.check_algebraic_decay, {
        "exponent": (lambda out: out[0].rate_or_exponent, lambda e: 0.05 - abs(e - 0.5)),
        "beta^2": (lambda out: out[1] ** 2, lambda b: 0.05 * (2.0 / 3.0) - abs(b - 2.0 / 3.0)),
    }),
    "kappa09_half": (verify.check_ground_state_convergence, {
        "terminal error": (lambda out: out[0][1], lambda err: 1e-6 - err),
        "distance fit residual": (lambda out: out[1].residual, lambda res: 0.1 - res),
    }),
    "sharp_logconv": (verify.check_sharp_log_convexity, {
        "worst ratio": (lambda out: out[0].worst_ratio, lambda ratio: 1.0 + 1e-12 - ratio),
    }),
}


def _compared_values(monkeypatch, name, params):
    # {value: (observed, margin)} of the check of run ``name``, run at ``params``
    check, compared = _COMPARED[name]
    out = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            out.append(fn(*args, **kwargs))
            return out[-1]
        return wrapped

    for fn in ("fit_rate", "extract_profile", "terminal_comparison", "check_log_convexity"):
        monkeypatch.setattr(verify, fn, recording(getattr(verify, fn)))
    preset = verify._RUNS[name][1]
    traj = verify.evolve(verify.initial_spectrum(preset, params.max_mode), params)
    assert check(verify._Context(seed=SEED, trajectories={name: traj})).passed
    monkeypatch.undo()
    return {value: (read(out), margin(read(out))) for value, (read, margin) in compared.items()}


@pytest.mark.parametrize("name", list(verify._RUNS))
def test_step_doubling_moves_no_compared_value_by_1_percent_of_its_margin(monkeypatch, name):
    # each gate run again at dt/2, with the same record times: the step's
    # own error in every value its check compares, against that check's room
    params = verify._RUNS[name][0]
    half = dataclasses.replace(params, dt=params.dt / 2, record_every=2 * params.record_every)
    at_dt = _compared_values(monkeypatch, name, params)
    at_half = _compared_values(monkeypatch, name, half)
    for value, (observed, margin) in at_dt.items():
        assert abs(at_half[value][0] - observed) < 0.01 * margin, (value, observed, at_half[value], margin)


@pytest.mark.parametrize("name, record_time", [
    ("kappa2_sinx", 0.01), ("kappa1_sinx", 0.1), ("kappa09_half", 0.05), ("sharp_logconv", 0.05),
])
def test_gate_runs_keep_their_record_times(name, record_time):
    # a coarser or finer dt keeps the records the tables and fit windows read
    params = verify._RUNS[name][0]
    assert params.dt * params.record_every == pytest.approx(record_time, rel=1e-15)


def test_run_suite_refuses_an_unknown_suite():
    # a bare KeyError, which is no AclabError
    with pytest.raises(DomainError, match="unknown suite 'bogus'"):
        run_suite("bogus")


@pytest.mark.parametrize("seed", [True, False, -1, 1.0])
def test_run_suite_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # True once ran as seed 1
    with pytest.raises(DomainError, match="seed"):
        run_suite("all", seed=seed)


@pytest.mark.parametrize("values", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)])
@pytest.mark.parametrize("reduce", [max, min])
def test_fold_turns_any_non_finite_value_to_nan(reduce, values):
    assert math.isnan(verify._fold(reduce, 0.0, *values))
    assert math.isnan(verify._fold(reduce, verify._fold(reduce, 0.0, *values), 2.0))
    assert verify._fold(reduce, math.inf if reduce is min else -math.inf, 1.0, 2.0) == reduce(1.0, 2.0)
