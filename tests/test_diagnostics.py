import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from aclab import verify
from aclab.diagnostics import (
    DiagnosticSeries,
    check_eta0_inequality,
    check_log_convexity,
    extract_profile,
    fit_rate,
    spectra_series,
    theta_ode_oracle,
)
from aclab.errors import DomainError, SignError, WindowError
from aclab.evolution import EvolveParams, evolve, initial_spectrum
from aclab.spectral import SineSpectrum, sine_transform
from helpers import time_limit, window_ratios


@pytest.fixture(scope="module")
def kappa1_run():
    params = EvolveParams(kappa=1.0, dt=0.01, t_end=25.0, record_every=10)
    return evolve(initial_spectrum("sin_x", params.max_mode), params)


def _synthetic_series(times, mass):
    z = np.zeros_like(times)
    return DiagnosticSeries(
        times=times, mass=mass, energy=z, c1=np.sqrt(mass / math.pi), hi_mass=z, linf=z
    )


def _series_of(*spectra):
    # one record per row, as evolve() keeps them
    C = np.array(spectra, dtype=float)
    times = np.arange(C.shape[0], dtype=float)
    return DiagnosticSeries(times=times, **spectra_series(C, 1.0, 64))


class TestProjections:
    def test_mode1(self):
        d = _series_of([2.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 0.0])
        assert list(d.c1) == [2.0, 0.0]

    def test_high_mass(self):
        d = _series_of([1.0, 0.0], [0.0, 1.0])
        assert d.hi_mass[0] == 0.0
        assert d.hi_mass[1] == pytest.approx(math.sqrt(math.pi))

    @given(
        coeffs=arrays(float, st.integers(1, 12), elements=st.floats(-3.0, 3.0))
    )
    def test_decomposition_exact(self, coeffs):
        d = _series_of(coeffs)
        mass = math.pi * float(np.sum(coeffs**2))
        recomposed = math.pi * d.c1[0] ** 2 + d.hi_mass[0] ** 2
        assert d.mass[0] == mass
        assert abs(mass - recomposed) <= 1e-12 * max(1.0, mass)

    def test_energy_and_max_norm_of_single_mode(self):
        # A sin x: E = kappa^2 A^2 pi/2 + (2 pi - 2 pi A^2 + 3/4 pi A^4)/4, max |u| = A
        A, kappa = 0.5, 0.9
        C = np.zeros((1, 16))
        C[0, 0] = A
        d = DiagnosticSeries(times=np.zeros(1), **spectra_series(C, kappa, 64))
        closed = kappa**2 * A**2 * math.pi / 2.0 + 0.25 * (
            2.0 * math.pi - 2.0 * A**2 * math.pi + 0.75 * A**4 * math.pi
        )
        assert d.energy[0] == pytest.approx(closed, abs=1e-14)
        assert d.linf[0] == pytest.approx(A, abs=1e-15)


class TestFitRate:
    def test_planted_exponential(self):
        t = np.linspace(0.5, 4.0, 60)
        fit = fit_rate(t, np.exp(-3.0 * t), "exponential", window=(0.5, 4.0))
        assert fit.rate_or_exponent == pytest.approx(3.0, abs=1e-10)
        assert fit.residual < 1e-10
        assert not fit.rejected

    def test_planted_algebraic(self):
        t = np.linspace(1.0, 50.0, 200)
        fit = fit_rate(t, 2.0 * t**-0.5, "algebraic", window=(1.0, 50.0))
        assert fit.rate_or_exponent == pytest.approx(0.5, abs=1e-8)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-8)

    def test_rejection_flag(self):
        rng = np.random.default_rng(3)
        t = np.linspace(1.0, 3.0, 50)
        y = np.exp(-t) * np.exp(rng.normal(0.0, 0.5, t.size))
        fit = fit_rate(t, y, "exponential", window=(1.0, 3.0))
        assert fit.residual > 0.1
        assert fit.rejected

    def test_fit_far_from_t_zero_is_usable(self):
        # regressed on raw t, e^intercept overflowed here: the fit came back
        # with prefactor inf, a nan residual and the flag rejected
        t = np.linspace(400.0, 410.0, 40)
        fit = fit_rate(t, np.exp(-2.0 * (t - 400.0)), "exponential", window=(400.0, 410.0))
        assert fit.rate_or_exponent == pytest.approx(2.0, rel=1e-12)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-12)  # the curve at t = 400
        assert fit.residual < 1e-12 and not fit.rejected

    def test_fit_whose_curve_is_not_finite_is_rejected(self):
        # the line through ln y overshoots ln of the largest double at the
        # window's end, so the curve of the reported parameters is inf there
        t = np.linspace(400.0, 401.0, 40)
        y = np.exp(709.0 * np.minimum(1.0, 2.0 * (t - 400.0)))
        with np.errstate(over="ignore"):
            fit = fit_rate(t, y, "exponential", window=(400.0, 401.0))
        assert not np.all(np.isfinite(fit.y_fit)) and fit.residual == math.inf
        assert fit.rejected

    def test_window_too_thin(self):
        t = np.linspace(0.0, 10.0, 40)
        with pytest.raises(WindowError):
            fit_rate(t, np.exp(-t), "exponential", window=(9.0, 10.0))

    def test_nonpositive_rejected(self):
        t = np.linspace(1.0, 2.0, 30)
        y = np.linspace(-1.0, 1.0, 30)
        with pytest.raises(DomainError):
            fit_rate(t, y, "exponential", window=(1.0, 2.0))

    def test_round_off_floor(self):
        t = np.linspace(1.0, 30.0, 100)
        with pytest.raises(WindowError, match="floor"):
            fit_rate(t, np.exp(-3.0 * t), "exponential", window=(1.0, 30.0))

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            fit_rate([1, 2], [1, 2], "quadratic", window=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("model", ["exponential", "algebraic"])
    def test_non_finite_sample_refused(self, bad, model):
        # one such value gave rate nan, residual nan and rejected False
        t = np.linspace(1.0, 4.0, 60)
        y = np.exp(-3.0 * t)
        y[30] = bad
        with pytest.raises(DomainError, match="finite"):
            fit_rate(t, y, model, window=(1.0, 4.0))
        y[30], t[30] = 1.0, bad
        with pytest.raises(DomainError, match="finite"):
            fit_rate(t, y, model, window=(1.0, 4.0))


    @pytest.mark.parametrize("model", ["exponential", "algebraic"])
    def test_length_mismatch_refused(self, model):
        # one value short raised a bare IndexError from the window mask
        t = np.linspace(1.0, 3.0, 30)
        with pytest.raises(DomainError, match="length mismatch"):
            fit_rate(t, np.exp(-t[:-1]), model, window=(1.0, 3.0))


class TestExtractProfile:
    def test_synthetic_riccati_level(self):
        # c1 = beta sqrt((1 + a/t)/t) makes c1^2 t = beta^2 (1 + a/t) exactly
        # linear in 1/t, so every sub-window extrapolates to beta
        beta = math.sqrt(2.0 / 3.0)
        t = np.linspace(5.0, 25.0, 200)
        c1 = beta * np.sqrt((1.0 + 3.0 / t) / t)
        series = DiagnosticSeries(
            times=t, mass=math.pi * c1**2, energy=np.zeros_like(t),
            c1=c1, hi_mass=np.zeros_like(t), linf=np.abs(c1),
        )
        prof = extract_profile(series, window=(5.0, 25.0))
        assert not prof.zero_mode
        assert prof.value == pytest.approx(beta, rel=1e-12)
        assert prof.stability < 1e-12

    def test_zero_mode_flagged(self):
        t = np.linspace(1.0, 5.0, 100)
        z = np.zeros_like(t)
        series = DiagnosticSeries(times=t, mass=z, energy=z, c1=z, hi_mass=z, linf=z)
        prof = extract_profile(series, window=(1.0, 5.0))
        assert prof.zero_mode
        assert prof.value == 0.0

    def test_kappa_one_riccati_level(self, kappa1_run):
        prof = extract_profile(kappa1_run.diagnostics, window=(5.0, 25.0))
        assert prof.value**2 == pytest.approx(2.0 / 3.0, rel=0.05)


class TestLogConvexity:
    def test_equality_case_passes_sharp(self):
        t = np.linspace(0.0, 5.0, 60)
        series = _synthetic_series(t, np.exp(-6.0 * t))
        rep = check_log_convexity(series)
        assert rep.passed
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_nonconvex_detected(self):
        t = np.linspace(0.0, 2.0, 40)
        series = _synthetic_series(t, np.exp(-((t - 1.0) ** 2)) + 0.1)
        rep = check_log_convexity(series)
        assert not rep.passed
        assert rep.worst_ratio > 1.0
        assert rep.t1 < 1.0 < rep.t2  # ln m is concave near its peak at t = 1

    def test_refuses_fewer_than_three_records(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(WindowError, match="3 records"):
            check_log_convexity(_synthetic_series(t, np.exp(-t)))

    def test_domain(self):
        t = np.linspace(0.0, 1.0, 5)
        mass = np.exp(-t)
        mass[2] = 0.0
        with pytest.raises(DomainError, match="positive at every record"):
            check_log_convexity(_synthetic_series(t, mass))

    @given(
        steps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=59),
        data=st.data(),
    )
    def test_matches_the_per_window_formula(self, steps, data):
        # the one-pass ratios against the per-window ones they replace, bit for bit
        t = np.cumsum([0.0, *steps])
        mass = data.draw(arrays(float, t.size, elements=st.floats(1e-6, 1e6)))
        rep = check_log_convexity(_synthetic_series(t, mass))
        per_window = [float(window_ratios(t, mass, i, i + 2)[0]) for i in range(t.size - 2)]
        i = int(np.argmax(per_window))
        assert rep.worst_ratio == per_window[i]
        assert (rep.t1, rep.t2) == (float(t[i]), float(t[i + 2]))


def _worst_over_pairs(series):
    # the all-pairs scan over every window (t_i, t_k) that the consecutive triples replace
    t, m = series.times, series.mass
    worst, worst_pair = 0.0, (0.0, 0.0)
    for i in range(t.size):
        for k in range(i + 2, t.size):
            ratio = float(np.max(window_ratios(t, m, i, k)))
            if ratio > worst:
                worst, worst_pair = ratio, (float(t[i]), float(t[k]))
    return worst, worst_pair


def _sharp_check_on(series):
    traj = SimpleNamespace(diagnostics=series)
    return verify.check_sharp_log_convexity(
        verify._Context(seed=0, trajectories={"sharp_logconv": traj})
    )


class TestWorstLogConvexity:
    def test_matches_pairwise_loop_on_recorded_run(self):
        # the gate's run is log-convex, so its worst window is a consecutive
        # triple and the two scans agree on the ratio and the pair bit for bit
        params, preset = verify._RUNS["sharp_logconv"]
        d = evolve(initial_spectrum(preset, params.max_mode), params).diagnostics
        worst, pair = _worst_over_pairs(d)
        result = _sharp_check_on(d)
        assert result.passed and worst <= 1.0 + 1e-12
        assert result.observed == f"worst interpolation ratio {worst:.15f} on t1,t2 = {pair}"

    def test_matches_pairwise_loop_on_ties(self):
        # log-linear mass: every ratio is 1 up to round-off
        t = np.linspace(0.0, 2.0, 41)
        series = _synthetic_series(t, np.exp(-2.0 * t))
        worst, _ = _worst_over_pairs(series)
        assert worst <= 1.0 + 1e-12
        assert _sharp_check_on(series).passed

    @pytest.mark.parametrize("bump", [1e-3, 1e-6])
    def test_matches_pairwise_loop_on_planted_dent(self, bump):
        # a log-linear mass with one record raised: every window around it
        # sees the same ratio 1 + bump up to round-off, and the narrowest
        # one is the triple the check reports
        t = np.linspace(0.0, 2.0, 41)
        mass = np.exp(-2.0 * t)
        mass[17] *= 1.0 + bump
        series = _synthetic_series(t, mass)
        worst, _ = _worst_over_pairs(series)
        result = _sharp_check_on(series)
        assert worst > 1.0 + 1e-12
        assert not result.passed
        assert float(result.observed.split()[3]) == pytest.approx(worst, rel=1e-12)
        assert result.observed.endswith(f"on t1,t2 = {(float(t[16]), float(t[18]))}")


class TestEta0:
    def test_single_mode_closed_form(self):
        rep = check_eta0_inequality(SineSpectrum([1.0]))
        assert rep.lhs == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.75 * 3.0 * math.pi / 4.0, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ground_state(self, gs_cache):
        spec = sine_transform(gs_cache(0.5).field)
        rep = check_eta0_inequality(SineSpectrum(spec.coeffs[:64]))
        assert rep.lhs >= rep.rhs

    @given(coeffs=arrays(float, 8, elements=st.floats(-2.0, 2.0)))
    def test_random_spectra_hold_gamma_two(self, coeffs):
        if not np.any(coeffs):
            return
        rep = check_eta0_inequality(SineSpectrum(coeffs))
        assert rep.lhs >= rep.rhs * (1.0 - 1e-12) - 1e-15


class TestThetaOracle:
    def test_closed_form_riccati(self):
        fit = theta_ode_oracle(1.0, 3.0, None, 3e4)
        assert fit.theta_star == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert np.isfinite(fit.remainder_bound)

    def test_zero_initial_data(self):
        fit = theta_ode_oracle(0.0, 3.0, None, 1e3)
        assert fit.theta_star == pytest.approx(0.0, abs=1e-14)

    def test_restart_consistency(self):
        first = theta_ode_oracle(0.5, 3.0, lambda t: t**-3, 2e4)
        second = theta_ode_oracle(first.evaluate(6.0), 6.0, lambda t: t**-3, 2e4)
        assert abs(first.theta_star - second.theta_star) < 1e-5

    def test_suppressed_regime_quadratic_decay(self):
        # theta(t) = 1/t^2 solves the ODE with this forcing: theta* = 0 and
        # t^2 theta stays bounded, the suppressed branch of the asymptotics
        fit = theta_ode_oracle(1.0 / 9.0, 3.0, lambda t: -2.0 * t**-3 + 1.5 * t**-4, 3e3)
        assert abs(fit.theta_star) < 1e-6
        assert fit.theta_end * fit.t_end**2 == pytest.approx(1.0, rel=1e-6)

    def test_sign_error(self):
        with pytest.raises(SignError):
            theta_ode_oracle(0.0, 3.0, lambda t: -1.0, 100.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_ode_oracle(1.0, 2.0, None, 100.0)
        with pytest.raises(DomainError):
            theta_ode_oracle(-1.0, 3.0, None, 100.0)

    @pytest.mark.parametrize(
        "theta0, t0, t_end",
        [
            (math.nan, 3.0, 100.0),
            (math.inf, 3.0, 100.0),
            (1.0, math.nan, 100.0),
            (1.0, math.inf, 100.0),
            (1.0, 3.0, math.nan),
            (1.0, 3.0, math.inf),
            (100.0, 3.0, 100.0),  # t0 theta0 = 300: the fixed log-time step is stiff there
        ],
    )
    def test_refuses_bad_data(self, theta0, t0, t_end):
        with time_limit(5.0), pytest.raises(DomainError):
            theta_ode_oracle(theta0, t0, None, t_end)

    def test_refuses_a_forcing_that_drives_theta_out_of_range(self):
        with time_limit(5.0), pytest.raises(DomainError, match="stiff"):
            theta_ode_oracle(1.0, 3.0, lambda t: 1e3, 100.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
    def test_refuses_a_forcing_that_is_not_finite(self, value):
        # 1e308 is finite, but t^2 F(t) overflows at t >= 3
        with time_limit(5.0), pytest.raises(DomainError, match="forcing"):
            theta_ode_oracle(1.0, 3.0, lambda t: value, 100.0)

    def test_huge_finite_end_time(self):
        # the log-time march takes 400 steps per unit of ln t: 1e300 costs 0.3 s
        with time_limit(10.0):
            fit = theta_ode_oracle(1.0, 3.0, None, 1e300)
        assert fit.theta_star == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fit.theta_end * fit.t_end == pytest.approx(2.0 / 3.0, abs=1e-12)


def _theta_dop853(theta0, t0, forcing, t_end):
    # the oracle as it ran on scipy: DOP853 in t with dense output, fit in 1/t
    F = forcing if forcing is not None else (lambda t: 0.0)
    sol = solve_ivp(
        lambda t, y: [-1.5 * y[0] * y[0] + F(t)], (t0, t_end), [float(theta0)],
        method="DOP853", rtol=1e-12, atol=1e-16, dense_output=True,
    )
    ts = np.geomspace(t_end / 10.0, t_end, 200)
    slope, intercept = np.polyfit(1.0 / ts, ts * sol.sol(ts)[0], 1)
    return float(intercept), lambda t: float(sol.sol(t)[0])


def test_theta_oracle_matches_dop853_on_the_gate_runs():
    # the four calls of the gate's theta_ode_oracle check
    forced = theta_ode_oracle(0.5, 3.0, lambda t: t**-3, 2e4)
    runs = [
        (1.0, 3.0, None, 3e4),
        (0.5, 3.0, lambda t: t**-3, 2e4),
        (forced.evaluate(6.0), 6.0, lambda t: t**-3, 2e4),
        (1.0 / 9.0, 3.0, lambda t: -2.0 * t**-3 + 1.5 * t**-4, 3e3),
    ]
    ts = np.geomspace(3.0, 3e3, 400)
    for theta0, t0, forcing, t_end in runs:
        fit = theta_ode_oracle(theta0, t0, forcing, t_end)
        star, evaluate = _theta_dop853(theta0, t0, forcing, t_end)
        assert fit.theta_star == pytest.approx(star, abs=1e-9)
        gap = max(t * abs(fit.evaluate(t) - evaluate(t)) for t in ts if t >= t0)
        assert gap <= 1e-8


def test_theta_oracle_dense_output_against_closed_form():
    # unforced, theta = 1 / (1/theta0 + (3/2)(t - t0)); sampled densely near t0,
    # where phi = t theta moves fastest and the cubic Hermite interpolant is worst
    fit = theta_ode_oracle(1.0, 3.0, None, 3e4)
    ts = np.geomspace(3.0, 3e3, 5000)
    gap = max(t * abs(fit.evaluate(t) - 1.0 / (1.0 + 1.5 * (t - 3.0))) for t in ts)
    assert gap <= 1e-8


class TestSeriesValidation:
    def test_monotone_times_required(self):
        t = np.array([0.0, 1.0, 1.0])
        z = np.zeros(3)
        with pytest.raises(DomainError):
            DiagnosticSeries(times=t, mass=z, energy=z, c1=z, hi_mass=z, linf=z)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["times", "mass", "energy", "c1", "hi_mass", "linf"])
    def test_non_finite_sample_refused(self, name, bad):
        # a nan mass passed the mass >= 0 test, and so reached every consumer
        series = {key: np.linspace(1.0, 2.0, 5) for key in
                  ("times", "mass", "energy", "c1", "hi_mass", "linf")}
        series[name][-1] = bad
        with pytest.raises(DomainError, match=f"series {name} has non-finite samples"):
            DiagnosticSeries(**series)

    def test_series_are_read_only_copies(self):
        # every series, not only those handed in read-only; the caller's arrays stay theirs
        series = {key: np.linspace(1.0, 2.0, 5) for key in
                  ("times", "mass", "energy", "c1", "hi_mass", "linf")}
        frozen = DiagnosticSeries(**series)
        for name, arr in series.items():
            assert not getattr(frozen, name).flags.writeable
            assert arr.flags.writeable
            arr[0] = 9.0
            assert getattr(frozen, name)[0] == 1.0

    def test_length_mismatch(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(DomainError):
            DiagnosticSeries(
                times=t, mass=np.zeros(3), energy=np.zeros(2),
                c1=np.zeros(2), hi_mass=np.zeros(2), linf=np.zeros(2),
            )


@pytest.fixture(scope="module")
def kappa2_run():
    params = EvolveParams(kappa=2.0, dt=0.005, t_end=3.0, record_every=4)
    return evolve(initial_spectrum("sin_x", params.max_mode), params)


def test_tail_decays_faster_than_first_mode(kappa2_run):
    # the rate separation behind the late-time profile: the tail rate
    # exceeds the first-mode rate kappa^2 - 1
    d = kappa2_run.diagnostics
    c1_fit = fit_rate(d.times, np.abs(d.c1), "exponential", window=(1.0, 3.0))
    tail_fit = fit_rate(d.times, d.hi_mass, "exponential", window=(0.5, 2.0))
    assert tail_fit.rate_or_exponent > c1_fit.rate_or_exponent + 1.0


def test_sin_2x_run_has_vanishing_first_mode():
    params = EvolveParams(kappa=2.0, dt=0.01, t_end=3.0, record_every=5)
    traj = evolve(initial_spectrum("sin_2x", params.max_mode), params)
    assert float(np.max(np.abs(traj.diagnostics.c1))) == 0.0
    prof = extract_profile(traj.diagnostics, window=(1.0, 3.0))
    assert prof.zero_mode and prof.value == 0.0


def test_kappa1_remainder_surrogate(kappa1_run):
    # after removing the fitted t^{-1/2} sin x profile, the remainder decays
    # faster than t^{-0.9} on the run window (the logarithmic factors of the
    # full statement are not resolvable at this scale)
    d = kappa1_run.diagnostics
    prof = extract_profile(d, window=(5.0, 25.0))
    sel = d.times >= 5.0
    t = d.times[sel]
    r1 = np.sqrt(math.pi * (d.c1[sel] - prof.value / np.sqrt(t)) ** 2 + d.hi_mass[sel] ** 2)
    weighted = r1 * t**0.9
    assert weighted[-1] < 0.5 * weighted[0]
