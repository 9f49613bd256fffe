import math

import mpmath as mp
import numpy as np
import pytest

from aclab.errors import BlowUpError, DomainError, SymmetryError
from aclab.evolution import (
    EvolveParams,
    _phi_functions,
    evolve,
    fractional_multiplier,
    initial_spectrum,
    step,
    terminal_comparison,
)
from aclab.spectral import SineSpectrum, TorusField, TorusGrid


class TestFractionalMultiplier:
    def test_values(self):
        assert fractional_multiplier(1, 1.0, 2.0) == 1.0
        assert fractional_multiplier(3, 1.0, 1.0) == pytest.approx(3.0)

    def test_tail_rate_ingredient(self):
        # linear decay of mode 2 at kappa=2, gamma=2 is 16 - 1 = 15
        assert fractional_multiplier(2, 2.0, 2.0) == 16.0
        assert fractional_multiplier(2, 2.0, 2.0) - 1.0 == 15.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fractional_multiplier(0, 1.0, 2.0)


@pytest.mark.parametrize(
    "z",
    [0.0, 1e-12, 1e-8, -1e-8, 0.0999, -0.0999, 0.1001, -0.1001, 1.0, -5.0, -100.0, -1e4],
)
def test_phi_functions_against_mpmath(z):
    with mp.workdps(40):
        zm = mp.mpf(z)
        if z == 0.0:
            want1, want2 = mp.mpf(1), mp.mpf(1) / 2
        else:
            want1 = mp.expm1(zm) / zm
            want2 = (mp.expm1(zm) - zm) / zm**2
        phi1, phi2 = _phi_functions(np.array([z]))
        assert abs((phi1[0] - want1) / want1) <= 1e-14
        assert abs((phi2[0] - want2) / want2) <= 1e-14


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            EvolveParams(kappa=1.0, dt=0.2)
        with pytest.raises(DomainError):
            EvolveParams(kappa=1.0, gamma=2.5)
        with pytest.raises(DomainError):
            EvolveParams(kappa=1.0, filter="bogus")
        with pytest.raises(DomainError):
            EvolveParams(kappa=-1.0)
        with pytest.raises(DomainError):
            EvolveParams(kappa=1.0, n_points=100)

    def test_t_end_must_be_whole_number_of_steps(self):
        with pytest.raises(DomainError, match="not a multiple of dt"):
            EvolveParams(kappa=0.9, dt=0.01, t_end=0.015)
        EvolveParams(kappa=0.9, dt=0.01, t_end=0.1)  # 0.1/0.01 rounds to 10.000000000000002

    def test_steady_detection_auto(self):
        assert EvolveParams(kappa=0.9).steady_detection_enabled
        assert not EvolveParams(kappa=1.0).steady_detection_enabled
        assert EvolveParams(kappa=1.0, detect_steady=True).steady_detection_enabled


class TestStep:
    def test_zero_fixed_point(self):
        params = EvolveParams(kappa=0.9)
        out = step(SineSpectrum(np.zeros(params.max_mode)), params)
        assert np.all(out.coeffs == 0.0)

    def test_exact_linear_propagator(self):
        params = EvolveParams(kappa=2.0, dt=0.01, cubic=False)
        state = initial_spectrum("sin_x", params.max_mode)
        expected = 1.0
        for _ in range(5):
            state = step(state, params)
            expected *= math.exp(-(4.0 - 1.0) * params.dt)
            assert state.coeffs[0] == pytest.approx(expected, rel=1e-15)
            assert np.max(np.abs(state.coeffs[1:])) == 0.0

    def test_algebraic_mass_bound(self):
        # |u(t)|_2 <= sqrt(pi) |u0|_2 / sqrt(t |u0|_2^2 + pi) for kappa=1
        params = EvolveParams(kappa=1.0, gamma=2.0, dt=0.01, t_end=5.0, record_every=5)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        d = traj.diagnostics
        m0 = math.sqrt(math.pi)
        bound = math.sqrt(math.pi) * m0 / np.sqrt(d.times * m0**2 + math.pi)
        assert np.all(np.sqrt(d.mass) <= bound * (1.0 + 1e-12))


class TestFilter:
    def test_band_gap_zeroes_even_modes(self):
        params = EvolveParams(kappa=2.0, filter="odd_band_gap")
        out = step(SineSpectrum([1.0, 0.1, 0.0, 0.05]), params)
        assert np.all(out.coeffs[1::2] == 0.0)
        assert out.coeffs[0] != 0.0

    def test_odd_modes_preserved(self):
        spec = SineSpectrum([0.5, 0.1, 0.3, 0.05])
        filtered = step(spec, EvolveParams(kappa=0.9, filter="odd_band_gap"))
        plain = step(spec, EvolveParams(kappa=0.9))
        assert np.array_equal(filtered.coeffs[0::2], plain.coeffs[0::2])

    def test_unknown_kind(self):
        for kind in ("odd_projection", "other"):
            with pytest.raises(DomainError):
                EvolveParams(kappa=0.9, filter=kind)

    def test_band_gap_exact_along_evolution(self):
        params = EvolveParams(
            kappa=0.9, dt=0.01, t_end=2.0, record_every=5, filter="odd_band_gap"
        )
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        for snap in traj.snapshots:
            assert np.all(snap.coeffs[1::2] == 0.0)

    def test_even_modes_stay_zero_without_filter(self):
        # products of three odd modes are odd: the gap persists unfiltered
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=5)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        worst = max(float(np.max(np.abs(s.coeffs[1::2]))) for s in traj.snapshots)
        assert worst < 1e-15


class TestEvolve:
    def test_rejects_asymmetric_field(self):
        grid = TorusGrid(256)
        params = EvolveParams(kappa=0.9, t_end=0.1)
        with pytest.raises(SymmetryError):
            evolve(TorusField(grid, np.cos(grid.x)), params)

    def test_accepts_field_input(self):
        grid = TorusGrid(256)
        params = EvolveParams(kappa=0.9, t_end=0.1)
        traj = evolve(TorusField(grid, 0.5 * np.sin(grid.x)), params)
        assert traj.diagnostics.c1[0] == pytest.approx(0.5, abs=1e-12)

    def test_blow_up_detected(self):
        params = EvolveParams(kappa=0.5, dt=0.1, t_end=10.0)
        huge = initial_spectrum({1: 100.0}, params.max_mode)
        with pytest.raises(BlowUpError):
            evolve(huge, params)

    def test_energy_dissipation(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=5.0, record_every=5)
        traj = evolve(initial_spectrum("half_sin_x", params.max_mode), params)
        assert np.all(np.diff(traj.diagnostics.energy) <= 1e-10)

    def test_max_norm_bounded(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=5.0, record_every=5)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        assert np.max(traj.diagnostics.linf) <= max(1.0, traj.diagnostics.linf[0]) + 0.01

    def test_mass_positive(self):
        params = EvolveParams(kappa=2.0, dt=0.01, t_end=3.0, record_every=5)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        assert np.all(traj.diagnostics.mass > 0.0)

    def test_snapshot_times_increasing(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=7)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_second_order_in_dt(self, gs_cache):
        terminals = []
        for dt in (0.02, 0.01, 0.005):
            params = EvolveParams(kappa=0.9, dt=dt, t_end=1.0, record_every=int(0.1 / dt))
            traj = evolve(initial_spectrum("half_sin_x", params.max_mode), params)
            terminals.append(traj.snapshots[-1].coeffs)
        d1 = np.max(np.abs(terminals[0] - terminals[1]))
        d2 = np.max(np.abs(terminals[1] - terminals[2]))
        assert d1 / d2 == pytest.approx(4.0, abs=0.8)

    @pytest.mark.parametrize("dt", [0.1, 0.05, 0.01])
    def test_steady_state_is_fixed_point_at_any_dt(self, dt, gs_cache):
        # u_kappa is an exact fixed point of the step, so the end state cannot depend on dt
        params = EvolveParams(
            kappa=0.9, dt=dt, t_end=120.0, record_every=max(1, round(0.1 / dt))
        )
        traj = evolve(initial_spectrum("half_sin_x", params.max_mode), params)
        assert traj.terminal == "steady_detected"
        sign, err = terminal_comparison(traj, gs_cache(0.9).field)
        assert sign == 1.0
        assert err <= 1e-9

    def test_deterministic(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=10)
        t1 = evolve(initial_spectrum("mixed", params.max_mode), params)
        t2 = evolve(initial_spectrum("mixed", params.max_mode), params)
        assert np.array_equal(t1.snapshots[-1].coeffs, t2.snapshots[-1].coeffs)

    def test_terminal_sign_follows_initial_sign(self, gs_cache):
        params = EvolveParams(kappa=0.9, dt=0.005, t_end=30.0, record_every=20)
        traj = evolve(initial_spectrum({1: -0.5}, params.max_mode), params)
        sign, err = terminal_comparison(traj, gs_cache(0.9).field)
        assert sign == -1.0
        assert err < 1e-3


class TestInitialSpectrum:
    def test_presets(self):
        assert initial_spectrum("sin_x", 8).coeffs[0] == 1.0
        assert initial_spectrum("half_sin_x", 8).coeffs[0] == 0.5
        assert initial_spectrum("sin_2x", 8).coeffs[1] == 1.0
        mixed = initial_spectrum("mixed", 8)
        assert mixed.coeffs[0] != 0.0 and mixed.coeffs[1] != 0.0

    def test_coefficient_dict(self):
        spec = initial_spectrum({3: 2.5}, 8)
        assert spec.coeffs[2] == 2.5

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            initial_spectrum("unknown", 8)
        with pytest.raises(DomainError):
            initial_spectrum({99: 1.0}, 8)
