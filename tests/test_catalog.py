import math
import re

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
    linearization_blocks,
    linearization_gap,
    minimal_period,
    orbit_invariant,
    spectral_gap,
)
from aclab.errors import DomainError, SymmetryError
from aclab.ground_state import band_edges, build_ground_state, energy, eval_g
from aclab.oracles import first_return_period
from aclab.spectral import TorusField, TorusGrid, sine_coeffs, sine_transform, sine_values
from helpers import fft_derivative

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

    def test_counts_the_products_build_catalog_forms(self):
        # 1/kappa rounded to 5.0 one double below 0.2, where 5 kappa < 1
        for m in range(2, 61):
            for kappa in (1.0 / m, math.nextafter(1.0 / m, 0.0), math.nextafter(1.0 / m, 1.0),
                          1.0 / (m + 0.5)):
                assert count_states(kappa) == sum(j * kappa < 1.0 for j in range(1, m + 2)), kappa

    def test_catalog_just_below_one_fifth_holds_u5(self):
        assert build_catalog(np.nextafter(0.2, 0), TorusGrid(2048)).m == 5

    def test_domain(self):
        with pytest.raises(DomainError):
            count_states(0.0)

    @pytest.mark.parametrize("kappa", [5e-324, 1e-320])
    def test_kappa_without_a_finite_reciprocal_refused(self, kappa):
        # 1/kappa is inf: math.ceil raised OverflowError
        with pytest.raises(DomainError, match="finite reciprocal"):
            count_states(kappa)


@pytest.mark.parametrize(
    "call",
    [
        lambda field: count_states(math.nan),
        lambda field: minimal_period(0.1, math.nan),
        lambda field: classify_orbit(0.3, 0.0, math.nan),
        lambda field: energy(field, math.nan),
        lambda field: basin_criterion(field, math.nan),
    ],
    ids=["count_states", "minimal_period", "classify_orbit", "energy", "basin_criterion"],
)
def test_nan_kappa_refused(call):
    grid = TorusGrid(64)
    field = TorusField(grid, 0.5 * np.sin(grid.x))
    with pytest.raises(DomainError):
        call(field)


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
        cat = build_catalog(0.26, grid2048)
        for r in cat.replicas:
            u = r.field.values
            c = sine_transform(r.field).coeffs
            m = np.arange(1.0, c.size + 1)
            u_xx = sine_values(-(m * m) * c, grid2048.n_points)
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

    @pytest.mark.parametrize("kappa, v0", [(math.inf, 0.0), (1e200, 0.0), (1e200, 0.5)])
    def test_kappa_with_overflowing_square_is_named(self, kappa, v0):
        # the message names the input at fault, not the invariant C = nan or inf it gives
        with pytest.raises(DomainError, match=re.escape(f"kappa={kappa!r}")):
            classify_orbit(0.3, v0, kappa)

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

    @pytest.mark.parametrize("u0, v0", [(math.nan, 0.0), (0.3, math.inf), (math.inf, 0.0)])
    def test_non_finite_invariant_refused(self, u0, v0):
        with pytest.raises(DomainError, match="not finite"):
            classify_orbit(u0, v0, 0.5)

    @pytest.mark.parametrize("u0, v0", [(1e100, 0.0), (0.0, 1e200)])
    def test_overflowing_invariant_refused(self, u0, v0):
        # squares and fourth powers overflow to inf rather than raising OverflowError
        with pytest.raises(DomainError, match="not finite"):
            classify_orbit(u0, v0, 0.5)

    def test_near_boundary_flag(self):
        oc = classify_orbit(math.sqrt(2.0e-10), 0.0, 0.5)
        assert oc.near_boundary
        assert oc.kind == "periodic"

    def test_invariant_conserved_along_profile(self, gs_cache):
        gs = gs_cache(0.5)
        du = fft_derivative(gs.field.values)
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
        for bad_kappa in (0.0, -1.0, math.inf, math.nan):  # inf gave an infinite period
            with pytest.raises(DomainError, match="positive and finite"):
                minimal_period(0.25, bad_kappa)

    def test_overflowing_period_refused(self):
        # a finite kappa whose period overflows returned inf
        with pytest.raises(DomainError, match="overflows"):
            minimal_period(0.25, 1e308)
        assert math.isfinite(minimal_period(0.25, 1e300))


def _dense_linearization_gap(field, kappa, M):
    n = field.grid.n_points
    m = np.arange(1, M + 1)
    S = np.sin(np.outer(field.grid.x, m))
    weight = 3.0 * field.values**2 - 1.0
    A = (2.0 * np.pi / n) * (S.T @ (weight[:, None] * S))
    A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
    A = 0.5 * (A + A.T)
    return float(eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0] / np.pi)


def _fft_assembly(field, kappa, M):
    # linearization_gap's matrix before the parity split: all M modes in one block
    n = field.grid.n_points
    a = sine_coeffs(3.0 * field.values**2 - 1.0, n // 2, cosine=True)
    a = np.concatenate((a, a[-2:0:-1]))
    m = np.arange(1, M + 1)
    A = 0.5 * np.pi * (a[np.abs(m[:, None] - m)] - a[m[:, None] + m])
    A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
    return A


def _subset_eigh_gap(field, kappa, M):
    # linearization_gap as it ran on scipy: the same FFT assembly, the lowest
    # eigenvalue alone from the subset solver
    A = _fft_assembly(field, kappa, M)
    return float(eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0] / np.pi)


def _solved_block_sizes(monkeypatch):
    # the order of every matrix linearization_gap hands to numpy's eigvalsh
    sizes = []
    solve = np.linalg.eigvalsh

    def spy(A):
        sizes.append(A.shape[0])
        return solve(A)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


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
        with pytest.raises(DomainError, match="cannot hold 1024 sine modes"):
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

    @pytest.mark.parametrize("M", [256, 512])
    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.7, 0.9])
    def test_full_eigvalsh_against_subset_eigh(self, gs_cache, kappa, M):
        # numpy's full symmetric solve against scipy's subset solve it replaced, and
        # both against the Lame value (3/2) N^2: numpy lands within 1e-15 of it,
        # the subset solve within 2e-11
        gs = gs_cache(kappa)
        gap = spectral_gap(gs, M=M)
        assert gap == pytest.approx(_subset_eigh_gap(gs.field, kappa, M), abs=1e-10)
        assert gap == pytest.approx(1.5 * gs.peak.N**2, abs=1e-13)

    @pytest.mark.parametrize("kappa", [round(0.05 * i, 2) for i in range(1, 20)] + [0.99])
    def test_ground_state_gap_is_the_lame_value(self, gs_cache, kappa):
        # Lame's j = 1 band edge: the gap about u_kappa is (3/2) N^2, so the N
        # column of the default energy table (0.05:0.95:0.05) carries every gap
        gs = gs_cache(kappa)
        assert spectral_gap(gs, M=256) == pytest.approx(1.5 * gs.peak.N**2, abs=1e-12)

    @pytest.mark.parametrize("kappa", [round(0.1 + 0.05 * i, 2) for i in range(18)])
    def test_sine_block_minima_are_the_odd_lame_edges(self, gs_cache, kappa):
        # sn dn spans the odd-m block's ground and sn cn the even-m one's; by
        # Cauchy interlacing the M = 512 minimum lies between the edge and the
        # M = 256 one, which the gate's gap check relies on
        gs = gs_cache(kappa)
        odd, even = linearization_blocks(gs.field, kappa)
        edges = band_edges(gs.peak)
        assert odd == pytest.approx(edges[2], abs=1e-11)
        assert even == pytest.approx(edges[3], abs=1e-11)
        assert min(linearization_blocks(gs.field, kappa, M=512)) == pytest.approx(odd, abs=1e-11)

    @pytest.mark.parametrize("kappa", [round(0.1 + 0.05 * i, 2) for i in range(18)])
    def test_cosine_blocks_hold_the_even_lame_edges_and_morse_index_one(self, gs_cache, kappa):
        # the even functions, cos(mx) for m = 0..256 scaled by the Gram
        # diagonal (2 pi at m = 0, pi above), in parity blocks as for the sines
        # (one block of all 257 modes puts the zero mode 1.4e-11 off): the
        # even-m block's lowest two eigenvalues are 1 - sqrt(1 + 3q^2) < 0 and
        # 1 + sqrt(1 + 3q^2), the odd-m block's lowest is 0 (the translation
        # mode U'); with the sine blocks positive, the ground state has Morse
        # index 1 on all 2 pi-periodic functions
        gs = gs_cache(kappa)
        n, M = gs.field.grid.n_points, 256
        a = sine_coeffs(3.0 * gs.field.values**2 - 1.0, n // 2, cosine=True)
        low = []
        for first in (0, 1):
            m = np.arange(first, M + 1, 2)
            A = 0.5 * np.pi * (a[np.abs(m[:, None] - m)] + a[m[:, None] + m])
            A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
            d = 1.0 / np.sqrt(np.where(m == 0, 2.0 * np.pi, np.pi))
            low.append(np.linalg.eigvalsh(d[:, None] * A * d)[:2])
        (lam0, top), (zero, _) = low
        edges = band_edges(gs.peak)
        assert [lam0, zero, top] == pytest.approx([edges[0], edges[1], edges[4]], abs=1e-11)
        assert edges[0] < 0.0
        if edges[0] < -1e-9:  # where the computed lam0 is resolved, it is the one negative eigenvalue
            assert lam0 < 0.0 < min(linearization_blocks(gs.field, kappa))

    @pytest.mark.parametrize(
        "kappa, M",
        [(math.nan, 256), (math.inf, 256), (1e200, 256), (-0.5, 256), (0.0, 256),
         (0.5, 100.5), (0.5, 256.0)],
    )
    def test_bad_input_refused(self, gs_cache, kappa, M):
        with pytest.raises(DomainError):
            linearization_gap(gs_cache(0.5).field, kappa, M=M)

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
            assert fast == pytest.approx(_subset_eigh_gap(field, 0.3, M), abs=1e-10)

    @pytest.mark.parametrize("M", [256, 512])
    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.9])
    def test_parity_blocks_against_the_full_matrix(self, gs_cache, monkeypatch, kappa, M):
        # 3u^2 - 1 has period pi about a ground state: two blocks of M/2 modes,
        # whose lower minimum is the full matrix's lowest eigenvalue
        field = gs_cache(kappa).field
        full = float(np.linalg.eigvalsh(_fft_assembly(field, kappa, M))[0] / np.pi)
        sizes = _solved_block_sizes(monkeypatch)
        assert linearization_gap(field, kappa, M=M) == pytest.approx(full, abs=1e-14)
        assert sizes == [M // 2, M // 2]

    def test_odd_cosine_content_takes_one_block(self, gs_cache, monkeypatch):
        # + 1e-6 sin 2x gives 3u^2 - 1 cosine modes at odd l near 1e-6: tiny, not
        # zero, so the parity split would drop couplings; one block of all M modes
        gs = gs_cache(0.5)
        field = TorusField(gs.field.grid, gs.field.values + 1e-6 * np.sin(2.0 * gs.field.grid.x))
        sizes = _solved_block_sizes(monkeypatch)
        gap = linearization_gap(field, 0.5, M=256)
        assert sizes == [256]
        assert gap == pytest.approx(_dense_linearization_gap(field, 0.5, 256), abs=1e-10)

    @pytest.mark.parametrize("kappa", [0.15, 0.26, 0.3])
    def test_replicas_against_dense_assembly(self, kappa):
        # replicas j >= 2 are saddles: negative eigenvalues agree as well
        lowest = []
        for r in build_catalog(kappa, TorusGrid(1024)).replicas:
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

    @pytest.mark.parametrize("kappa", [math.inf, 1e200])
    def test_kappa_without_a_finite_square_refused(self, grid2048, kappa):
        with pytest.raises(DomainError, match="finite square"):
            basin_criterion(TorusField(grid2048, 0.5 * np.sin(grid2048.x)), kappa)


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
