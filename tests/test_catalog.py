import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh

from aclab.catalog import (
    basin_criterion,
    build_catalog,
    classify_orbit,
    count_states,
    linearization_gap,
    minimal_period,
    orbit_invariant,
    spectral_gap,
)
from aclab.errors import DomainError, SymmetryError
from aclab.ground_state import build_ground_state, energy, eval_g
from aclab.oracles import first_return_period
from aclab.spectral import TorusField, TorusGrid, sine_transform, spectral_derivative

SQRT2 = math.sqrt(2.0)


class TestCountStates:
    def test_examples(self):
        assert count_states(0.5) == 1
        assert count_states(0.26) == 3
        assert count_states(1.7) == 0
        assert count_states(1.0) == 0

    def test_boundary_values(self):
        assert count_states(0.25) == 3  # 1/(m+1) <= kappa holds with equality
        assert count_states(0.2) == 4

    def test_domain(self):
        with pytest.raises(DomainError):
            count_states(0.0)


class TestCatalog:
    def test_single_replica_is_ground_state(self, gs_cache, grid2048):
        cat = build_catalog(0.9, grid2048)
        assert cat.m == 1
        gs = gs_cache(0.9)
        assert np.array_equal(cat.replicas[0].field.values, gs.field.values)

    def test_replica_identity_and_energy(self, gs_cache, grid2048):
        cat = build_catalog(0.26, grid2048)
        assert cat.m == 3
        n = grid2048.n_points
        r2 = cat.replicas[1]
        gs2 = gs_cache(0.52)
        idx = (2 * np.arange(n) - n // 2) % n
        assert np.max(np.abs(r2.field.values - gs2.field.values[idx])) < 1e-10
        assert abs(r2.energy - gs2.energy) < 1e-8
        assert r2.period == pytest.approx(math.pi)

    def test_energies_increase_with_j(self, grid2048):
        cat = build_catalog(0.26, grid2048)
        energies = [r.energy for r in cat.replicas]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_replicas_solve_the_steady_equation(self, grid2048):
        from aclab.spectral import sine_transform, spectral_derivative

        cat = build_catalog(0.26, grid2048)
        for r in cat.replicas:
            u = r.field.values
            u_xx = spectral_derivative(sine_transform(r.field), 2, grid2048).values
            residual = cat.kappa**2 * u_xx + u - u**3
            assert np.max(np.abs(residual)) < 1e-8


class TestClassifyOrbit:
    def test_origin_is_zero(self):
        oc = classify_orbit(0.0, 0.0, 0.5)
        assert oc.kind == "zero" and oc.C == 0.0

    def test_kink_point_is_heteroclinic(self):
        kappa = 0.5
        u0 = math.tanh(1.0 / (SQRT2 * kappa))
        v0 = (1.0 - u0**2) / (SQRT2 * kappa)
        oc = classify_orbit(u0, v0, kappa)
        assert oc.kind == "heteroclinic_or_constant"
        assert oc.C == pytest.approx(0.5, abs=1e-12)

    def test_periodic_orbit_with_time_of_flight(self):
        oc = classify_orbit(0.3, 0.0, 0.5)
        assert oc.kind == "periodic"
        assert oc.C == pytest.approx(0.08595, abs=1e-15)
        oracle = first_return_period(0.3, 0.0, 0.5, t_max=3.0 * oc.period)
        assert oc.period == pytest.approx(oracle, abs=1e-6)

    def test_large_invariant_unbounded(self):
        assert classify_orbit(0.0, 2.0, 1.0).kind == "unbounded"

    def test_outer_branch_unbounded(self):
        # C in (0, 1/2) but the point lies outside the bounded component
        oc = classify_orbit(1.3, 0.0, 0.5)
        assert 0.0 < oc.C < 0.5
        assert oc.kind == "unbounded"

    def test_near_boundary_flag(self):
        oc = classify_orbit(math.sqrt(2.0e-10), 0.0, 0.5)
        assert oc.near_boundary
        assert oc.kind == "periodic"

    def test_invariant_conserved_along_profile(self, gs_cache):
        gs = gs_cache(0.5)
        du = spectral_derivative(sine_transform(gs.field), 1, gs.field.grid).values
        idx = [10, 200, 700, 1500]
        cs = [classify_orbit(gs.field.values[i], du[i], 0.5).C for i in idx]
        assert max(cs) - min(cs) < 1e-9
        for i in idx:
            oc = classify_orbit(gs.field.values[i], du[i], 0.5)
            assert oc.kind == "periodic"
            assert oc.period == pytest.approx(2.0 * math.pi, abs=1e-9)

    @given(
        u0=st.floats(-1.5, 1.5),
        v0=st.floats(-1.5, 1.5),
        kappa=st.floats(0.2, 2.0),
    )
    def test_classification_consistency(self, u0, v0, kappa):
        oc = classify_orbit(u0, v0, kappa)
        assert oc.C == pytest.approx(orbit_invariant(u0, v0, kappa), abs=1e-15)
        if oc.kind == "periodic":
            assert 0.0 < oc.C < 0.5
            assert 0.0 < oc.amplitude < 1.0
            assert oc.period > 0.0
        if oc.kind == "zero":
            assert abs(oc.C) <= 1e-12


class TestMinimalPeriod:
    def test_harmonic_limit(self):
        # as C -> 0 the orbit shrinks onto the linearization, period 2 pi kappa
        assert minimal_period(1e-12, 0.5) == pytest.approx(math.pi, rel=1e-9)

    def test_ground_state_period(self, gs_cache):
        pv = gs_cache(0.5).peak
        C = pv.N**2 - 0.5 * pv.N**4
        assert minimal_period(C, 0.5) == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_against_time_of_flight(self):
        period = minimal_period(0.08595, 0.5)
        oracle = first_return_period(0.3, 0.0, 0.5, t_max=3.0 * period)
        assert period == pytest.approx(oracle, abs=1e-6)

    def test_domain(self):
        for bad_c in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                minimal_period(bad_c, 0.5)


def _dense_linearization_gap(field, kappa, M):
    n = field.grid.n_points
    m = np.arange(1, M + 1)
    S = np.sin(np.outer(field.grid.x, m))
    weight = 3.0 * field.values**2 - 1.0
    A = (2.0 * np.pi / n) * (S.T @ (weight[:, None] * S))
    A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
    A = 0.5 * (A + A.T)
    return float(eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0] / np.pi)


class TestSpectralGap:
    def test_diagonal_limit_zero_field(self, grid2048):
        zero = TorusField(grid2048, np.zeros(2048))
        # the form diagonalizes to kappa^2 m^2 - 1; minimum at m = 1
        assert linearization_gap(zero, 1.0, M=128) == pytest.approx(0.0, abs=1e-9)
        assert linearization_gap(zero, 1.2, M=128) == pytest.approx(0.44, abs=1e-9)

    def test_positive_gap_with_refinement(self, gs_cache):
        gs = gs_cache(0.9)
        g1 = spectral_gap(gs, M=256)
        g2 = spectral_gap(gs, M=512)
        assert g1 > 0.0
        assert abs(g2 - g1) < 1e-6

    def test_mode_cutoff_gate(self, gs_cache):
        with pytest.raises(DomainError):
            spectral_gap(gs_cache(0.9), M=32)
        with pytest.raises(DomainError):
            spectral_gap(gs_cache(0.9), M=1024)  # above n/2 - 1 = 1023
        assert spectral_gap(gs_cache(0.9), M=1023) > 0.0

    @pytest.mark.parametrize(
        "kappa, n", [(0.05, 2048), (0.2, 1024), (0.4, 1024), (0.6, 1024), (0.8, 1024), (0.99, 1024)]
    )
    def test_against_dense_assembly(self, kappa, n):
        # the FFT assembly against the n x M sine-matrix quadrature it replaced
        field = build_ground_state(kappa, TorusGrid(n)).field
        for M in (64, 256, n // 4, n // 2 - 1):
            fast = linearization_gap(field, kappa, M=M)
            assert fast == pytest.approx(_dense_linearization_gap(field, kappa, M), abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rough_field_against_dense_assembly(self, seed):
        # odd white noise: the weight's coefficients near Nyquist are O(1), so the
        # folded indices m + k > n/2 carry weight (smooth profiles leave them ~1e-16)
        grid = TorusGrid(256)
        v = np.random.default_rng(seed).normal(size=256)
        v[1:] -= v[:0:-1]
        v[0] = v[128] = 0.0
        field = TorusField(grid, 0.5 * v)
        for M in (64, 127):
            fast = linearization_gap(field, 0.3, M=M)
            assert fast == pytest.approx(_dense_linearization_gap(field, 0.3, M), abs=1e-10)

    @pytest.mark.parametrize("kappa", [0.15, 0.26, 0.3])
    def test_replicas_against_dense_assembly(self, kappa):
        # replicas j >= 2 are saddles: negative eigenvalues agree as well
        lowest = []
        for r in build_catalog(kappa, TorusGrid(1024)):
            fast = linearization_gap(r.field, kappa, M=256)
            assert fast == pytest.approx(_dense_linearization_gap(r.field, kappa, 256), abs=1e-10)
            lowest.append(fast)
        assert lowest[0] > 0.0 and all(g < 0.0 for g in lowest[1:])


class TestBasinCriterion:
    def test_reports_both_energies(self, grid2048):
        u0 = TorusField(grid2048, 0.5 * np.sin(grid2048.x))
        verdict = basin_criterion(u0, 0.3)
        assert verdict.applicable
        assert verdict.energy_u0 == pytest.approx(energy(u0, 0.3), abs=1e-14)
        assert verdict.energy_threshold is not None
        assert verdict.within_basin == (verdict.energy_u0 < verdict.energy_threshold)

    def test_zero_field(self, grid2048):
        verdict = basin_criterion(TorusField(grid2048, np.zeros(2048)), 0.3)
        assert verdict.energy_u0 == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_not_applicable_above_half(self, grid2048):
        verdict = basin_criterion(TorusField(grid2048, 0.5 * np.sin(grid2048.x)), 0.9)
        assert not verdict.applicable
        assert "not applicable" in verdict.message

    def test_rejects_asymmetric_input(self, grid2048):
        with pytest.raises(SymmetryError):
            basin_criterion(TorusField(grid2048, np.cos(grid2048.x)), 0.3)


def test_h1_distance_controlled_by_energy_gap(gs_cache, grid2048):
    # near the ground profile, the H1 distance to the closer of +-U is
    # bounded by a fixed multiple of sqrt(E(u) - E(U)); the constant is not
    # pinned, so only boundedness across shrinking perturbations is checked
    gs = gs_cache(0.9)
    base = gs.field.values
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        for mode in (1, 3):
            u = base + eps * np.sin(mode * grid2048.x)
            field = TorusField(grid2048, u)
            gap = energy(field, 0.9) - gs.energy
            assert gap > 0.0
            diff = sine_transform(field).coeffs - sine_transform(gs.field).coeffs
            m = np.arange(1, diff.size + 1)
            h1 = math.sqrt(math.pi * float(np.sum((1.0 + m**2) * diff**2)))
            ratios.append(h1 / math.sqrt(gap))
    assert max(ratios) < 50.0
