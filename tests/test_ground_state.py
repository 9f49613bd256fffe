import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aclab.catalog import orbit_invariant
from aclab.errors import DomainError, ResolutionError, SymmetryError
from aclab.ground_state import (
    G_AT_ZERO,
    _g_from_complement,
    _scaled_position,
    build_ground_state,
    energy,
    energy_identities,
    eval_g,
    kink_comparison,
    kink_profile,
    peak_bounds,
    solve_peak,
)
from aclab.oracles import peak_complement_mp
from aclab.quadrature import integrate
from aclab.spectral import TorusField, TorusGrid, sine_transform, spectral_derivative
from helpers import composite_simpson

SQRT2 = math.sqrt(2.0)
# a few ulps: the closed form and the reference quadrature round differently
CLOSED_FORM_RTOL = 8.0 * np.finfo(float).eps
QUAD_TOL = 1e-15


def _peak_integrand(q):
    def f(psi):
        return 1.0 / np.sqrt(np.sin(psi) ** 2 + q * (1.0 + np.cos(psi) ** 2))

    return f


def _quad_reference(f, a, b):
    """integrate() with the absolute error it guarantees, tol * max(1, |Q|)."""
    value = integrate(f, a, b, tol=QUAD_TOL)
    return pytest.approx(value, rel=CLOSED_FORM_RTOL, abs=QUAD_TOL * max(1.0, abs(value)))


class TestClosedForm:
    """The Carlson closed forms against adaptive quadrature of their integrand."""

    @given(
        log10_w=st.floats(-48.0, 0.0),
        psi=st.floats(0.0, 0.5 * math.pi),
    )
    def test_against_quadrature(self, log10_w, psi):
        w = 10.0**log10_w
        q = w * (2.0 - w)
        f = _peak_integrand(q)
        assert _g_from_complement(w) == _quad_reference(f, 0.0, 0.5 * math.pi)
        assert _scaled_position(psi, q) == _quad_reference(f, psi, 0.5 * math.pi)

    @given(N=st.floats(0.0, 1.0 - 1e-9))
    def test_eval_g_against_quadrature(self, N):
        q = (1.0 - N) * (1.0 + N)
        assert eval_g(N) == _quad_reference(_peak_integrand(q), 0.0, 0.5 * math.pi)


class TestEvalG:
    def test_at_zero(self):
        assert abs(eval_g(0.0) - G_AT_ZERO) < 1e-13

    def test_divergence_near_one(self):
        assert eval_g(0.999999) > 4.0

    def test_against_simpson(self):
        N = 0.9

        def f(theta):
            return 1.0 / np.sqrt(2.0 - N * N * (1.0 + np.sin(theta) ** 2))

        oracle = composite_simpson(f, 0.0, 0.5 * math.pi)
        assert eval_g(N) == pytest.approx(oracle, abs=1e-10)

    def test_strictly_increasing(self):
        ns = np.linspace(0.0, 1.0 - 1e-6, 40)
        vals = [eval_g(float(n)) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_g(1.0)
        with pytest.raises(DomainError):
            eval_g(-0.1)


class TestSolvePeak:
    def test_weak_diffusion_limit(self):
        pv = solve_peak(1.0 - 1e-9)
        assert pv.N < 1e-3

    def test_two_sided_bound_applies(self):
        pv = solve_peak(0.2)
        lo, hi = peak_bounds(pv)
        assert lo < pv.complement < hi

    def test_period_identity(self):
        pv = solve_peak(0.5)
        period = 4.0 * SQRT2 * 0.5 * eval_g(pv.N)
        assert period == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_residual_certified(self):
        assert solve_peak(0.35).residual <= 1e-12

    def test_peak_decreases_with_kappa(self):
        kappas = [0.1, 0.3, 0.5, 0.7, 0.9]
        peaks = [solve_peak(k).N for k in kappas]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.4):
            with pytest.raises(DomainError):
                solve_peak(bad)
        with pytest.raises(DomainError, match="floor"):
            solve_peak(0.01)


class TestProfile:
    def test_endpoints(self, gs_cache):
        gs = gs_cache(0.5)
        assert gs.quarter_u[0] == 0.0
        assert gs.quarter_u[-1] == pytest.approx(gs.peak.N, abs=1e-10)

    def test_monotone_and_bounded(self, gs_cache):
        gs = gs_cache(0.5)
        assert np.all(np.diff(gs.quarter_u) > 0.0)
        assert np.max(np.abs(gs.field.values)) < 1.0

    def test_reflection_symmetries(self, gs_cache):
        v = gs_cache(0.7).field.values
        n = v.size
        # odd about 0 and even about pi/2, exactly by assembly
        assert v[0] == 0.0 and v[n // 2] == 0.0
        assert np.array_equal(v[1 : n // 2], -v[: n // 2 : -1])
        quarter = v[n // 2 : n // 2 + n // 4 + 1]
        mirrored = v[n // 2 + n // 4 : n][::-1]
        assert np.array_equal(quarter[1:], mirrored)

    def test_residual_claim_of_readme(self, gs_cache):
        # the README promises a residual below 1e-9 for kappa in [0.03, 0.95]
        # at n_points = 2048, and kappa = 0.02 needs n_points = 8192
        cases = [(float(k), 2048) for k in np.linspace(0.05, 0.95, 19)] + [(0.02, 8192)]
        worst = max((gs_cache(k, n).residual, k, n) for k, n in cases)
        assert worst[0] < 1e-9, worst

    @pytest.mark.parametrize("kappa", [0.3, 0.8])
    def test_quarter_profile_against_mpmath_inversion(self, kappa):
        # peak solve and profile inversion together, against both redone in
        # 30 digits; at the exact peak G(pi/2) = pi/(2 sqrt 2 kappa)
        gs = build_ground_state(kappa)
        nodes = np.linspace(1, gs.quarter_x.size - 1, 8).astype(int)
        with mp.workdps(30):
            w = peak_complement_mp(kappa, dps=30)
            N = 1 - w
            q = w * (2 - w)
            scale = mp.sqrt(2) * mp.mpf(kappa)

            def G(psi):
                return mp.quad(
                    lambda p: 1 / mp.sqrt(mp.sin(p) ** 2 + q * (1 + mp.cos(p) ** 2)),
                    [0, psi],
                )

            for i in nodes:
                target = (mp.pi / 2 - mp.mpf(gs.quarter_x[i])) / scale
                start = mp.acos(min(mp.mpf(gs.quarter_u[i]) / N, 1))
                psi = mp.findroot(lambda p: G(p) - target, start)
                assert abs(float(N * mp.cos(psi)) - gs.quarter_u[i]) <= 1e-14, i

    def test_pde_residual_including_seams(self, gs_cache):
        # the max-norm residual covers every grid node, in particular the
        # reflection seams at 0 and pi/2
        for kappa in (0.3, 0.9):
            assert gs_cache(kappa).residual < 1e-8

    def test_kink_comparison_small_kappa(self, gs_cache):
        sup, dominates = kink_comparison(gs_cache(0.1))
        assert sup < 1e-3
        assert dominates

    def test_kink_dominates_everywhere(self, gs_cache):
        for kappa in (0.3, 0.5, 0.9):
            _, dominates = kink_comparison(gs_cache(kappa))
            assert dominates

    def test_pointwise_ordering_in_kappa(self, gs_cache):
        u_small = gs_cache(0.3).quarter_u
        u_large = gs_cache(0.6).quarter_u
        assert np.all(u_small[1:] > u_large[1:])

    def test_orbit_invariant_constant_along_profile(self, gs_cache):
        gs = gs_cache(0.5)
        u = gs.field.values
        v = spectral_derivative(sine_transform(gs.field), 1, gs.field.grid).values
        C = orbit_invariant(u, v, gs.kappa)
        expected = 0.5 * (1.0 - gs.peak.q**2)
        assert np.max(np.abs(C - expected)) < 1e-9

    def test_resolution_gate(self):
        with pytest.raises(ResolutionError, match="n_points"):
            build_ground_state(0.02, TorusGrid(2048))

    def test_rounding_floor_is_a_resolution_error(self):
        # at n = 16384 the rounding floor kappa^2 (n/2)^2 eps of the spectral
        # u'' reaches RESIDUAL_TOL near kappa = 0.8, so exact profiles may
        # fail the residual check there: the grid is refused, never the profile
        grid = TorusGrid(16384)
        refused = {}
        for kappa in (0.3, 0.5, 0.7, 0.822, 0.8711, 0.9, 0.95):
            try:
                assert build_ground_state(kappa, grid).residual < 1e-8
            except ResolutionError as exc:
                refused[kappa] = str(exc)
        assert {0.822, 0.8711} <= set(refused) and 0.3 not in refused
        assert "rounding floor of u'' is 1.007e-08" in refused[0.822]

    def test_small_kappa_energy_ratio_trend(self, gs_cache):
        limit = 4.0 * SQRT2 / 3.0
        r1 = gs_cache(0.1).energy / 0.1
        r2 = gs_cache(0.05).energy / 0.05
        assert abs(r2 - limit) < abs(r1 - limit) + 1e-12
        assert abs(r2 / limit - 1.0) < 1e-6


class TestEnergy:
    def test_zero_field(self, grid2048):
        field = TorusField(grid2048, np.zeros(2048))
        assert energy(field, 0.5) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_uniform_one(self, grid2048):
        # an even field has no sine spectrum: refused, not differentiated otherwise
        field = TorusField(grid2048, np.ones(2048))
        with pytest.raises(SymmetryError, match="symmetry violation"):
            energy(field, 0.7)

    def test_single_mode_closed_form(self, grid2048):
        A, kappa = 0.5, 0.9
        field = TorusField(grid2048, A * np.sin(grid2048.x))
        closed = kappa**2 * A**2 * math.pi / 2.0 + 0.25 * (
            2.0 * math.pi - 2.0 * A**2 * math.pi + 0.75 * A**4 * math.pi
        )
        assert closed == pytest.approx(0.48797 * math.pi, abs=1e-4 * math.pi)
        assert energy(field, kappa) == pytest.approx(closed, abs=1e-12)

    def test_domain(self, grid2048):
        with pytest.raises(DomainError):
            energy(TorusField(grid2048, np.zeros(2048)), 0.0)


class TestEnergyIdentities:
    @pytest.mark.parametrize("kappa", [0.5, 0.9])
    def test_triple_agreement(self, gs_cache, kappa):
        rep = energy_identities(gs_cache(kappa))
        assert rep.max_discrepancy <= 1e-8

    def test_zero_field_quarter_form(self, grid2048):
        # the quartic form of the zero field integrates 1 over a quarter period
        v = np.zeros(2048)
        quarter = 0.25 * grid2048.dx * float(np.sum(1.0 - v**4))
        assert quarter == pytest.approx(0.5 * math.pi, abs=1e-12)
        assert quarter == pytest.approx(energy(TorusField(grid2048, v), 1.0), abs=1e-12)


def test_kink_profile_values():
    x = np.array([0.0, 1.0])
    k = kink_profile(0.5, x)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(math.tanh(1.0 / (SQRT2 * 0.5)))


def test_gs_cache_keys_on_exact_kappa(gs_cache):
    near = float(np.linspace(0.05, 0.95, 19)[15])  # 0.7999999999999999
    assert gs_cache(near).kappa == near
    assert gs_cache(0.8).kappa == 0.8
