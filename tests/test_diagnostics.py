import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aclab import verify
from aclab.diagnostics import (
    DiagnosticSeries,
    check_eta0_inequality,
    check_log_convexity,
    extract_profile,
    fit_rate,
    theta_ode_oracle,
)
from aclab.errors import DomainError, SignError, WindowError
from aclab.evolution import EvolveParams, evolve, initial_spectrum
from aclab.spectral import SineSpectrum, sine_transform


@pytest.fixture(scope="module")
def kappa1_run():
    params = EvolveParams(kappa=1.0, gamma=2.0, dt=0.01, t_end=25.0, record_every=10)
    return evolve(initial_spectrum("sin_x", params.max_mode), params)


def _synthetic_series(times, mass):
    z = np.zeros_like(times)
    return DiagnosticSeries(
        times=times, mass=mass, energy=z, c1=np.sqrt(mass / math.pi), hi_mass=z, linf=z
    )


def _series_of(*spectra):
    # one record per row, as evolve() keeps them
    C = np.array(spectra, dtype=float)
    return DiagnosticSeries.from_spectra(np.arange(C.shape[0], dtype=float), C, 1.0, 64)


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
        d = DiagnosticSeries.from_spectra(np.zeros(1), C, kappa, 64)
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
        fit = fit_rate(t, 2.0 * t**-0.5, "algebraic")
        assert fit.rate_or_exponent == pytest.approx(0.5, abs=1e-8)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-8)

    def test_rejection_flag(self):
        rng = np.random.default_rng(3)
        t = np.linspace(1.0, 3.0, 50)
        y = np.exp(-t) * np.exp(rng.normal(0.0, 0.5, t.size))
        fit = fit_rate(t, y, "exponential")
        assert fit.residual > 0.1
        assert fit.rejected

    def test_window_too_thin(self):
        t = np.linspace(0.0, 10.0, 40)
        with pytest.raises(WindowError):
            fit_rate(t, np.exp(-t), "exponential", window=(9.0, 10.0))

    def test_nonpositive_rejected(self):
        t = np.linspace(1.0, 2.0, 30)
        y = np.linspace(-1.0, 1.0, 30)
        with pytest.raises(DomainError):
            fit_rate(t, y, "exponential")

    def test_round_off_floor(self):
        t = np.linspace(1.0, 30.0, 100)
        with pytest.raises(WindowError, match="floor"):
            fit_rate(t, np.exp(-3.0 * t), "exponential", window=(1.0, 30.0))

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            fit_rate([1, 2], [1, 2], "quadratic")


class TestExtractProfile:
    def test_synthetic_exponential(self):
        t = np.linspace(1.0, 5.0, 100)
        c1 = 0.7 * np.exp(-3.0 * t)
        series = _synthetic_series(t, math.pi * c1**2)
        series = DiagnosticSeries(
            times=t, mass=math.pi * c1**2, energy=np.zeros_like(t),
            c1=c1, hi_mass=np.zeros_like(t), linf=np.abs(c1),
        )
        prof = extract_profile(series, 2.0, window=(1.0, 5.0))
        assert prof.value == pytest.approx(0.7, abs=1e-12)
        assert prof.stability < 1e-12

    def test_zero_mode_flagged(self):
        t = np.linspace(1.0, 5.0, 100)
        z = np.zeros_like(t)
        series = DiagnosticSeries(times=t, mass=z, energy=z, c1=z, hi_mass=z, linf=z)
        prof = extract_profile(series, 2.0, window=(1.0, 5.0))
        assert prof.zero_mode
        assert prof.value == 0.0

    def test_kappa_below_one_rejected(self, kappa1_run):
        with pytest.raises(DomainError):
            extract_profile(kappa1_run.diagnostics, 0.9)

    def test_kappa_one_riccati_level(self, kappa1_run):
        prof = extract_profile(kappa1_run.diagnostics, 1.0, window=(5.0, 25.0))
        assert prof.value**2 == pytest.approx(2.0 / 3.0, rel=0.05)


class TestLogConvexity:
    def test_equality_case_passes_sharp(self):
        t = np.linspace(0.0, 5.0, 60)
        series = _synthetic_series(t, np.exp(-6.0 * t))
        rep = check_log_convexity(series, 0.0, 5.0, factor=1.0)
        assert rep.passed
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_nonconvex_detected(self):
        t = np.linspace(0.0, 2.0, 40)
        series = _synthetic_series(t, np.exp(-((t - 1.0) ** 2)) + 0.1)
        rep = check_log_convexity(series, 0.0, 2.0, factor=1.0)
        assert not rep.passed
        assert rep.worst_ratio > 1.0

    def test_kappa_one_with_growing_factor(self, kappa1_run):
        # at kappa = 1 the sharp test may fail, but a factor that grows with
        # the window length covers it with some positive exponent
        d = kappa1_run.diagnostics
        sharp = check_log_convexity(d, 1.0, 5.0, factor=1.0)
        exponent = max(math.log(max(sharp.worst_ratio, 1.0)) / math.log(1.0 + 4.0), 0.0) + 0.01
        rep = check_log_convexity(d, 1.0, 5.0, factor=(1.0 + 4.0) ** exponent)
        assert rep.passed
        assert exponent > 0.0

    def test_domain(self, kappa1_run):
        with pytest.raises(DomainError):
            check_log_convexity(kappa1_run.diagnostics, 3.0, 1.0)


def _worst_over_pairs(series):
    # the all-pairs loop over check_log_convexity that the consecutive triples replace
    t = series.times
    worst, worst_pair = 0.0, (0.0, 0.0)
    for i in range(t.size):
        for k in range(i + 2, t.size):
            rep = check_log_convexity(series, float(t[i]), float(t[k]), factor=1.0)
            if rep.worst_ratio > worst:
                worst, worst_pair = rep.worst_ratio, (float(t[i]), float(t[k]))
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
        rep = check_eta0_inequality(SineSpectrum([1.0]), 2.0)
        assert rep.lhs == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.75 * 3.0 * math.pi / 4.0, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_ground_state(self, gs_cache):
        spec = sine_transform(gs_cache(0.5).field)
        rep = check_eta0_inequality(SineSpectrum(spec.coeffs[:64]), 2.0)
        assert rep.lhs >= rep.rhs

    def test_fractional_reports_ratio(self):
        rep = check_eta0_inequality(SineSpectrum([1.0, 0.3]), 1.0)
        assert rep.eta0 is None
        assert rep.rhs == rep.ratio
        assert rep.ratio > 0.0

    @given(coeffs=arrays(float, 8, elements=st.floats(-2.0, 2.0)))
    def test_random_spectra_hold_gamma_two(self, coeffs):
        if not np.any(coeffs):
            return
        rep = check_eta0_inequality(SineSpectrum(coeffs), 2.0)
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


class TestSeriesValidation:
    def test_monotone_times_required(self):
        t = np.array([0.0, 1.0, 1.0])
        z = np.zeros(3)
        with pytest.raises(DomainError):
            DiagnosticSeries(times=t, mass=z, energy=z, c1=z, hi_mass=z, linf=z)

    def test_length_mismatch(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(DomainError):
            DiagnosticSeries(
                times=t, mass=np.zeros(3), energy=np.zeros(2),
                c1=np.zeros(2), hi_mass=np.zeros(2), linf=np.zeros(2),
            )


@pytest.fixture(scope="module")
def kappa2_run():
    params = EvolveParams(kappa=2.0, gamma=2.0, dt=0.005, t_end=3.0, record_every=4)
    return evolve(initial_spectrum("sin_x", params.max_mode), params)


def test_tail_decays_faster_than_first_mode(kappa2_run):
    # the rate separation behind the late-time profile: the tail rate
    # exceeds the first-mode rate kappa^2 - 1
    d = kappa2_run.diagnostics
    c1_fit = fit_rate(d.times, np.abs(d.c1), "exponential", window=(1.0, 3.0))
    tail_fit = fit_rate(d.times, d.hi_mass, "exponential", window=(0.5, 2.0))
    assert tail_fit.rate_or_exponent > c1_fit.rate_or_exponent + 1.0


def test_sin_2x_run_has_vanishing_first_mode():
    params = EvolveParams(kappa=2.0, gamma=2.0, dt=0.01, t_end=3.0, record_every=5)
    traj = evolve(initial_spectrum("sin_2x", params.max_mode), params)
    assert float(np.max(np.abs(traj.diagnostics.c1))) == 0.0
    prof = extract_profile(traj.diagnostics, 2.0, window=(1.0, 3.0))
    assert prof.zero_mode and prof.value == 0.0


def test_kappa1_remainder_surrogate(kappa1_run):
    # after removing the fitted t^{-1/2} sin x profile, the remainder decays
    # faster than t^{-0.9} on the run window (the logarithmic factors of the
    # full statement are not resolvable at this scale)
    d = kappa1_run.diagnostics
    prof = extract_profile(d, 1.0, window=(5.0, 25.0))
    sel = d.times >= 5.0
    t = d.times[sel]
    r1 = np.sqrt(math.pi * (d.c1[sel] - prof.value / np.sqrt(t)) ** 2 + d.hi_mass[sel] ** 2)
    weighted = r1 * t**0.9
    assert weighted[-1] < 0.5 * weighted[0]
