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
from aclab.spectral import SineSpectrum, TorusField, TorusGrid, sine_values


def _record_by_loop(c, kappa, n_pad):
    # one record's diagnostics, one spectrum at a time
    m = np.arange(1, c.size + 1, dtype=float)
    grad = 0.5 * kappa**2 * np.pi * float(np.sum((m * c) ** 2))
    u = sine_values(c, n_pad)
    sum_sq = float(np.sum(c * c))
    u2 = u * u
    int_u4 = (2.0 * np.pi / n_pad) * float(np.sum(u2 * u2))
    return {
        "mass": np.pi * sum_sq,
        "energy": grad + 0.25 * (2.0 * np.pi - 2.0 * np.pi * sum_sq + int_u4),
        "c1": float(c[0]),
        "hi_mass": float(np.sqrt(np.pi * np.sum(c[1:] ** 2))),
        "linf": float(np.max(np.abs(u))),
    }


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
        assert np.all(traj.snapshots[:, 1::2] == 0.0)

    @pytest.mark.parametrize("preset", ["sin_2x", "mixed"])
    def test_band_gap_refuses_even_initial_modes(self, preset):
        # filtering would zero them at step 1: sin 2x would relax to u = 0
        params = EvolveParams(kappa=0.3, dt=0.05, t_end=1.0, filter="odd_band_gap")
        with pytest.raises(DomainError, match="even modes"):
            evolve(initial_spectrum(preset, params.max_mode), params)

    @pytest.mark.parametrize(
        "preset, zero_modes",
        [
            ("sin_x", slice(1, None, 2)),
            ({1: 0.5, 3: 0.3, 5: 0.1}, slice(1, None, 2)),
            ("sin_2x", slice(0, None, 2)),
            ({3: 1.0}, None),
        ],
        ids=["sin_x", "odd_modes", "sin_2x", "sin_3x"],
    )
    def test_even_modes_stay_zero_without_filter(self, preset, zero_modes, gs_cache):
        # the FFT on 2^k points maps x_j to x_j + pi exactly, so u(x + pi) = -u(x)
        # (odd modes only) and u(x + pi) = u(x) (even modes only) survive round-off
        params = EvolveParams(
            kappa=0.3, dt=0.05, t_end=200.0, n_points=256, detect_steady=False
        )
        traj = evolve(initial_spectrum(preset, params.max_mode), params)
        if zero_modes is not None:
            assert np.all(traj.snapshots[:, zero_modes] == 0.0)
        else:
            # x + 2 pi/3 is not a grid map: round-off seeds sin x, and the run
            # leaves the unstable three-fold state for the ground state
            sign, err = terminal_comparison(traj, gs_cache(0.3).field)
            assert err < 1e-10


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
            terminals.append(traj.snapshots[-1])
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

    def test_snapshots_are_one_read_only_array(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=7)
        traj = evolve(initial_spectrum("mixed", params.max_mode), params)
        assert traj.snapshots.shape == (traj.times.size, params.max_mode)
        assert not traj.snapshots.flags.writeable
        # the batched series equals the per-record loop it replaced, bit for bit
        for i, c in enumerate(traj.snapshots):
            for name, value in _record_by_loop(c, 0.9, 2 * params.n_points).items():
                assert getattr(traj.diagnostics, name)[i] == value

    def test_deterministic(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=10)
        t1 = evolve(initial_spectrum("mixed", params.max_mode), params)
        t2 = evolve(initial_spectrum("mixed", params.max_mode), params)
        assert np.array_equal(t1.snapshots[-1], t2.snapshots[-1])

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
