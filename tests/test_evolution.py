import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aclab import verify

from aclab.catalog import build_catalog
from aclab.diagnostics import DiagnosticSeries, spectra_series
from aclab.errors import BlowUpError, DomainError, SymmetryError
from aclab.evolution import (
    MAX_STEPS,
    PRESETS,
    STEADY_CHECKS_REQUIRED,
    STEADY_TOL,
    EvolveParams,
    _first_non_finite_step,
    _phi_functions,
    _Stepper,
    evolve,
    initial_spectrum,
    terminal_comparison,
)
from aclab.spectral import (
    SineSpectrum,
    SineWorkspace,
    TorusField,
    TorusGrid,
    sine_coeffs,
    sine_transform,
    sine_values,
)

SERIES = ("times", "mass", "energy", "c1", "hi_mass", "linf")


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


def _reference_cubic(c, n_pad):
    # -sine_coeffs(u^3) with sine_values and sine_coeffs as first written:
    # a fresh array for every intermediate
    M = c.size
    sign = np.where(np.arange(M + 1) % 2 == 0, 1.0, -1.0)
    R = np.zeros(n_pad // 2 + 1, dtype=complex)
    R[1 : M + 1] = ((-0.5j * n_pad) * sign)[1:] * c
    u = np.fft.irfft(R, n_pad)
    spectrum = np.fft.rfft(u * u * u)
    return -(((-2.0 / n_pad) * sign)[1:] * spectrum[1 : M + 1].imag)


def _alias_free_cubic(c):
    # the Galerkin term on 8M points, where no frequency of u^3 folds onto a
    # kept mode: the path the stepper's 4M-point grid replaced
    return _reference_cubic(c, 8 * c.size)


def _folded_cubic(c):
    # the stepper's path: on 4M points sin(3M x_j) = -sin(M x_j), so the grid
    # term of mode M carries -c_M^3/4 from sin^3(Mx); it is added back
    out = _reference_cubic(c, 4 * c.size)
    out[-1] += c[-1] * c[-1] * c[-1] / 4
    return out


def _reference_step_etdrk2(stepper, c):
    # the two-stage ETDRK2 step (Cox & Matthews 2002) from fresh arrays, the
    # path ETD2 replaced and is held to: it evaluates the cubic twice per step
    with np.errstate(over="ignore", invalid="ignore"):
        n0 = _alias_free_cubic(c)
        a = stepper.e_full * c + stepper.dt_phi1 * n0
        return a + stepper.dt_phi2 * (_alias_free_cubic(a) - n0)


def _reference_step(stepper, c, n_before, params, cubic=_folded_cubic):
    # one ETD2 step from fresh arrays, with the band-gap filter applied after
    # every step (evolve applies it once, at admission): (state, N(c)).  With
    # no n_before, N(c) is its own history and the step is exponential Euler
    with np.errstate(over="ignore", invalid="ignore"):
        n = cubic(c)
        if n_before is None:
            n_before = n
        out = stepper.e_full * c + stepper.dt_phi1 * n + stepper.dt_phi2 * (n - n_before)
    if params.filter == "odd_band_gap":
        out[1::2] = 0.0
    return out, n


def _reference_evolve(c, params, cubic=_folded_cubic):
    # evolve before its buffers: (times, spectra, terminal, diagnostics); the
    # first record whose diagnostics overflow ends the run as a blow-up there
    stepper = _Stepper(params)
    n_steps = round(params.t_end / params.dt)
    times, spectra, consecutive, terminal = [0.0], [c], 0, "reached_t_end"
    steps, n = [0], None
    for kstep in range(1, n_steps + 1):
        c, n = _reference_step(stepper, c, n, params, cubic)
        if not np.all(np.isfinite(c)):
            raise BlowUpError(f"blow-up detected at step {kstep}", step_index=kstep)
        if kstep % params.record_every == 0 or kstep == n_steps:
            t = kstep * params.dt
            if params.steady_detection_enabled:
                diff = c - spectra[-1]
                with np.errstate(over="ignore"):
                    rate = math.sqrt(math.pi * float(np.dot(diff, diff))) / (t - times[-1])
                consecutive = consecutive + 1 if rate < STEADY_TOL else 0
            times.append(t)
            spectra.append(c)
            steps.append(kstep)
            if consecutive >= STEADY_CHECKS_REQUIRED:
                terminal = "steady_detected"
                break
    times, spectra = np.array(times), np.array(spectra)
    series = spectra_series(spectra, params.kappa, stepper.n_pad)
    for i, kstep in enumerate(steps):
        if not all(np.isfinite(s[i]) for s in series.values()):
            raise BlowUpError(f"blow-up detected at step {kstep}", step_index=kstep)
    return times, spectra, terminal, DiagnosticSeries(times=times, **series)


def _outcome(run):
    # the run's result, or the blow-up or domain error it ends in as
    # (type, message, step_index); a warning would escape as an error
    try:
        return run()
    except (BlowUpError, DomainError) as err:
        return type(err), str(err), getattr(err, "step_index", None)


def test_stepper_integrates_the_laplacian_symbol_exactly():
    # e^z with z = dt (1 - kappa^2 m^2), to the bit: kappa^2 u_xx on sin(mx)
    for kappa in (0.3, 1.0, 2.0):
        params = EvolveParams(kappa=kappa, dt=0.01, n_points=64)
        m = np.arange(1.0, params.max_mode + 1)
        e_full = _Stepper(params).e_full
        assert e_full.tobytes() == np.exp(params.dt * (1.0 - (kappa * kappa) * (m * m))).tobytes()
    assert e_full[1] == np.exp(-15.0 * params.dt)  # at kappa = 2, mode 2 decays at 4 * 4 - 1 = 15


@pytest.mark.parametrize("n_points", [16, 256, 4096])
def test_stepper_cubes_on_the_n_point_grid(n_points):
    # the cubic of max_mode = n/4 modes needs 4 max_mode points and the one
    # fold added back; the diagnostics keep twice as many, for int u^4
    stepper = _Stepper(EvolveParams(kappa=0.9, n_points=n_points))
    assert stepper.sine.n_points == n_points
    assert stepper.sine._grid.size == n_points
    assert stepper.n_pad == 2 * n_points


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
            EvolveParams(kappa=1.0, filter="bogus")
        with pytest.raises(DomainError):
            EvolveParams(kappa=-1.0)
        with pytest.raises(DomainError):
            EvolveParams(kappa=1.0, n_points=100)

    @pytest.mark.parametrize("field", ["kappa", "t_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(DomainError, match="must be positive and finite"):
            EvolveParams(**{"kappa": 0.9, field: value})

    @pytest.mark.parametrize("kappa", [1e200, -1e200, 1.5e154])
    def test_kappa_with_overflowing_square_refused(self, kappa):
        # the symbol kappa^2 m^2 would overflow: refused by name, not by OverflowError
        with pytest.raises(DomainError, match=r"kappa=.*as must kappa\^2"):
            EvolveParams(kappa=kappa)

    @pytest.mark.parametrize("dt, t_end", [(1e-320, 0.1), (0.1, 1e308)])
    def test_overflowing_step_count_refused(self, dt, t_end):
        # t_end / dt is inf: round(inf) raised an untyped OverflowError
        with pytest.raises(DomainError, match=r"t_end/dt=inf must be positive and finite"):
            EvolveParams(kappa=0.5, dt=dt, t_end=t_end)

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_step_count_above_the_ceiling_refused(self, kappa):
        # dt = 1e-300 froze sin x into a "steady" state at kappa = 0.5 and
        # asked for 1e301 steps at kappa = 1, where detection is off
        with pytest.raises(DomainError, match=r"t_end/dt=.* exceeds the 1e\+08 steps"):
            EvolveParams(kappa=kappa, dt=1e-300)
        with pytest.raises(DomainError, match=r"t_end/dt=.* exceeds the 1e\+08 steps"):
            EvolveParams(kappa=kappa, dt=0.1, t_end=1e307)
        with pytest.raises(DomainError, match=r"exceeds the 1e\+08 steps"):
            EvolveParams(kappa=kappa, dt=0.1, t_end=0.1 * (MAX_STEPS + 1))
        assert MAX_STEPS == 10**8
        EvolveParams(kappa=kappa, dt=0.1, t_end=0.1 * MAX_STEPS)  # refused only above

    def test_dt_lost_against_one_refused(self):
        # ten steps of 1e-17 round sin x back to itself, step after step
        assert 1.0 + 1e-17 == 1.0
        with pytest.raises(DomainError, match=r"dt=1e-17 is lost against 1.0"):
            EvolveParams(kappa=0.5, dt=1e-17, t_end=1e-16)
        EvolveParams(kappa=0.5, dt=2.3e-16, t_end=2.3e-15)  # 1 + dt is the next double

    def test_t_end_must_be_whole_number_of_steps(self):
        with pytest.raises(DomainError, match="not a multiple of dt"):
            EvolveParams(kappa=0.9, dt=0.01, t_end=0.015)
        EvolveParams(kappa=0.9, dt=0.01, t_end=0.1)  # 0.1/0.01 rounds to 10.000000000000002

    @pytest.mark.parametrize("every", [1.5, 2.0, True, "2"])
    def test_record_every_must_be_an_integer(self, every):
        # 1.5 recorded every third step at dt = 0.1 and True counted as 1
        with pytest.raises(DomainError, match="record_every=.* must be an integer"):
            EvolveParams(kappa=0.9, dt=0.1, t_end=1.0, record_every=every)
        assert EvolveParams(kappa=0.9, record_every=np.int64(3)).record_every == 3

    def test_steady_detection_auto(self):
        assert EvolveParams(kappa=0.9).steady_detection_enabled
        assert not EvolveParams(kappa=1.0).steady_detection_enabled
        assert EvolveParams(kappa=1.0, detect_steady=True).steady_detection_enabled


def _one_step(params, c):
    # the coefficients one stepper step takes ``c`` to
    stepper = _Stepper(params)
    stepper.sine.load(c)
    stepper.step()
    return stepper.sine.coeffs()


class TestStep:
    def test_zero_fixed_point(self):
        params = EvolveParams(kappa=0.9)
        out = _one_step(params, np.zeros(params.max_mode))
        assert np.all(out == 0.0)

    def test_exact_linear_propagator(self, monkeypatch):
        # without the cubic the phi terms vanish and the step is e^z exactly
        cube = SineWorkspace.cube

        def no_cubic(self):
            term, before = cube(self)
            term.fill(0.0)
            return term, before

        monkeypatch.setattr(SineWorkspace, "cube", no_cubic)
        params = EvolveParams(kappa=2.0, dt=0.01)
        stepper = _Stepper(params)
        stepper.sine.load(initial_spectrum("sin_x", params.max_mode).coeffs)
        expected = 1.0
        for _ in range(5):
            stepper.step()
            c = stepper.sine.coeffs()
            expected *= math.exp(-(4.0 - 1.0) * params.dt)
            assert c[0] == pytest.approx(expected, rel=1e-15)
            assert np.max(np.abs(c[1:])) == 0.0

    def test_step_allocates_nothing(self):
        # the cube's grid alone is 32 KB at n_points = 4096; a step that built
        # its spectra, cube and predictor afresh peaked at about 231 KB.  The
        # replay that finds a blow-up's step steps in the same buffers
        params = EvolveParams(kappa=0.9, dt=0.01, n_points=4096)
        stepper = _Stepper(params)
        c = initial_spectrum("mixed", params.max_mode).coeffs
        stepper.sine.load(c)
        stepper.step()
        history = stepper.sine.history()
        tracemalloc.start()
        try:
            for _ in range(50):
                stepper.step()
            # a finite replay runs out, from a record with its history and from the first
            assert _first_non_finite_step(stepper, c, history, 0, 50) == 50
            assert _first_non_finite_step(stepper, c, None, 0, 50) == 50
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * params.n_points

    def test_one_cubic_term_per_step(self, monkeypatch):
        # the cost of a step is its cubic term: ETDRK2 evaluated two
        calls = []
        cube = SineWorkspace.cube

        def counted(self):
            calls.append(None)
            return cube(self)

        monkeypatch.setattr(SineWorkspace, "cube", counted)
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=7)
        traj = evolve(initial_spectrum("mixed", params.max_mode), params)
        assert traj.steps == 100
        assert len(calls) == traj.steps

    def test_algebraic_mass_bound(self):
        # |u(t)|_2 <= sqrt(pi) |u0|_2 / sqrt(t |u0|_2^2 + pi) for kappa=1
        params = EvolveParams(kappa=1.0, dt=0.01, t_end=5.0, record_every=5)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        d = traj.diagnostics
        m0 = math.sqrt(math.pi)
        bound = math.sqrt(math.pi) * m0 / np.sqrt(d.times * m0**2 + math.pi)
        assert np.all(np.sqrt(d.mass) <= bound * (1.0 + 1e-12))


class TestFilter:
    def test_band_gap_zeroes_even_modes(self):
        # even content within ODD_TOL is zeroed at admission, and no step
        # brings it back
        params = EvolveParams(kappa=2.0, filter="odd_band_gap")
        u0 = initial_spectrum({1: 1.0, 2: 1e-9, 4: 5e-10}, params.max_mode)
        traj = evolve(u0, params)
        assert traj.snapshots.shape[0] > 2
        assert np.all(traj.snapshots[:, 1::2] == 0.0)
        assert not np.signbit(traj.snapshots[:, 1::2]).any()
        assert np.all(traj.snapshots[:, 0] != 0.0)

    def test_odd_modes_preserved(self):
        # the filter is not the stepper's business: one step is the same bits
        params = EvolveParams(kappa=0.9)
        c = initial_spectrum({1: 0.5, 2: 0.1, 3: 0.3, 4: 0.05}, params.max_mode).coeffs
        filtered = _one_step(EvolveParams(kappa=0.9, filter="odd_band_gap"), c)
        assert filtered.tobytes() == _one_step(params, c).tobytes()

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

    def test_band_gap_admits_sampled_fields(self):
        # sampling leaves every even sine coefficient at round-off, which the
        # filter zeroes before the first record; 1e-3 sin 2x is still data
        grid = TorusGrid(256)
        x = grid.x
        field = TorusField(grid, 0.5 * np.sin(x) + 0.2 * np.sin(3.0 * x))
        assert np.all(sine_transform(field).coeffs[1::2] != 0.0)
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=5, filter="odd_band_gap")
        traj = evolve(field, params)
        assert np.all(traj.snapshots[:, 1::2] == 0.0)
        with pytest.raises(DomainError, match="even modes"):
            evolve(TorusField(grid, field.values + 1e-3 * np.sin(2.0 * x)), params)

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
    def test_refuses_content_above_its_cutoff(self):
        # 256 points carry the modes up to 64: sin 100x was dropped without a word
        grid = TorusGrid(2048)
        params = EvolveParams(kappa=0.9, t_end=0.1, n_points=256)
        field = TorusField(grid, np.sin(grid.x) + 0.5 * np.sin(100.0 * grid.x))
        with pytest.raises(DomainError, match="cutoff n_points/4 = 64: mode 100 is"):
            evolve(field, params)
        # round-off above the cutoff is admitted and zeroed
        field = TorusField(grid, np.sin(grid.x))
        assert np.any(sine_transform(field).coeffs[64:] != 0.0)
        traj = evolve(field, params)
        assert np.array_equal(traj.snapshots[0], sine_transform(field).coeffs[:64])

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

    @pytest.mark.parametrize("t_end, step", [(0.4, 4), (0.5, 5)])
    def test_a_record_too_large_for_its_diagnostics_is_a_blow_up(self, t_end, step):
        # at t_end=0.4 the state after step 4 is finite but its u^4 overflows;
        # pytest turns the overflow's RuntimeWarning into an error, so none escapes
        params = EvolveParams(kappa=0.5, dt=0.1, t_end=t_end, record_every=1)
        with pytest.raises(BlowUpError, match=f"at step {step}$") as err:
            evolve(initial_spectrum({1: 100.0}, 64), params)
        assert err.value.step_index == step

    def test_energy_dissipation(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=5.0, record_every=5)
        traj = evolve(initial_spectrum("half_sin_x", params.max_mode), params)
        assert np.all(np.diff(traj.diagnostics.energy) <= 1e-10)

    @pytest.mark.parametrize("kappa, preset", [(0.3, "sin_x"), (0.6, "mixed")])
    def test_recorded_energy_is_the_one_the_flow_dissipates(self, kappa, preset):
        # kappa^2/2 pi sum m^2 c_m^2 + 1/4 int (1 - u^2)^2, recorded at every step
        params = EvolveParams(kappa=kappa, dt=0.01, t_end=5.0, record_every=1)
        traj = evolve(initial_spectrum(preset, params.max_mode), params)
        assert np.max(np.diff(traj.diagnostics.energy)) <= 1e-12

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

    def test_times_are_read_only(self):
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=7)
        traj = evolve(initial_spectrum("mixed", params.max_mode), params)
        assert not traj.times.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.diagnostics.times[0] = 1.0

    def test_records_are_read_only_copies(self, monkeypatch):
        steppers = []
        init = _Stepper.__init__

        def keep(self, params):
            init(self, params)
            steppers.append(self)

        monkeypatch.setattr(_Stepper, "__init__", keep)
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=7)
        traj = evolve(initial_spectrum("mixed", params.max_mode), params)
        records = [traj.snapshots] + [getattr(traj.diagnostics, name) for name in SERIES]
        kept = [r.copy() for r in records]
        for r in records:
            assert not r.flags.writeable
        # the steps reuse these buffers; no record may share them
        (stepper,) = steppers
        for owner in (stepper, stepper.sine):
            for buf in vars(owner).values():
                if isinstance(buf, np.ndarray) and buf.flags.writeable:
                    buf.fill(np.nan)
        for r, k in zip(records, kept):
            assert r.tobytes() == k.tobytes()

    @pytest.mark.parametrize("record_every", [1, 4, 7])
    def test_steps_to_t_end(self, record_every):
        # 100 steps; 7 does not divide them, and the last record is step 100
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=1.0, record_every=record_every)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        assert traj.terminal == "reached_t_end"
        assert traj.steps == 100
        assert traj.times[-1] == traj.steps * params.dt

    @pytest.mark.parametrize("record_every, steps", [(1, 10), (3, 30), (7, 70)])
    def test_steps_to_steady_detection(self, record_every, steps):
        # zero is steady at once: the tenth record ends the run, before t_end
        params = EvolveParams(kappa=0.9, dt=0.05, t_end=5.0, n_points=64, record_every=record_every)
        traj = evolve(initial_spectrum({}, params.max_mode), params)
        assert traj.terminal == "steady_detected"
        assert traj.steps == steps
        assert traj.times[-1] == steps * params.dt
        assert len(traj.times) == STEADY_CHECKS_REQUIRED + 1

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

    def test_terminal_sign_of_a_replica_comes_from_the_inner_product(self):
        # u_2 has c_1 = 0, so the round-off c_1 = -1e-12 named -u_2 and an
        # error of 1.79 for a run that sits about 1e-12 from +u_2
        u2 = build_catalog(0.3).replicas[1]
        params = EvolveParams(kappa=0.3, dt=0.05, t_end=1.0)
        c = sine_coeffs(u2.field.values, params.max_mode)
        c[0] = -1e-12
        sign, err = terminal_comparison(evolve(SineSpectrum(c), params), u2.field)
        assert sign == 1.0
        assert err < 1e-10

    def test_terminal_comparison_refuses_a_reference_grid_too_small(self, gs_cache):
        # 4096 points carry 1024 modes; a 2048-point reference holds 1023
        params = EvolveParams(kappa=0.9, dt=0.01, t_end=0.01, n_points=4096)
        traj = evolve(initial_spectrum("sin_x", params.max_mode), params)
        with pytest.raises(DomainError, match="cannot hold 1024 sine modes"):
            terminal_comparison(traj, gs_cache(0.9).field)


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

    @pytest.mark.parametrize("mode", [1.7, 1.0, True, "1"])
    def test_mode_must_be_an_integer(self, mode):
        # 1.7 put its coefficient on mode 1
        with pytest.raises(DomainError, match="is not an integer"):
            initial_spectrum({mode: 1.0}, 8)
        assert initial_spectrum({np.int64(2): 1.0}, 8).coeffs[1] == 1.0

    @pytest.mark.parametrize("value", ["x", None, "1.5", True, np.bool_(True)],
                             ids=["x", "None", "str", "True", "np_True"])
    def test_coefficient_must_be_a_number(self, value):
        # "x" raised a bare ValueError and None a TypeError; "1.5" and True
        # went through float() as 1.5 and 1.0
        with pytest.raises(DomainError, match="mode 1 has coefficient"):
            initial_spectrum({1: value}, 8)
        spec = initial_spectrum({1: 2, 2: np.float32(0.5), 3: np.int64(3)}, 8)
        assert spec.coeffs[:3].tolist() == [2.0, 0.5, 3.0]

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            initial_spectrum("unknown", 8)
        with pytest.raises(DomainError):
            initial_spectrum({99: 1.0}, 8)

    def test_unhashable_preset_is_domain_error(self):
        # a list raised TypeError from the preset table's lookup
        with pytest.raises(DomainError, match="unknown preset"):
            initial_spectrum(["sin_x"], 8)


@given(
    kappa=st.one_of(st.just(1.0), st.floats(0.0, 2.0, exclude_min=True)),
    dt=st.floats(1e-3, 0.1),
    n_points=st.sampled_from([16, 32, 64, 128, 256, 512, 1024]),
    band_gap=st.booleans(),
    steps=st.integers(1, 40),
    record_every=st.integers(1, 8),
    amplitude=st.sampled_from([0.0, 0.3, 1.0, 10.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
    preset=st.none(),
)
@example(1.0, 0.05, 256, False, 40, 4, 1.0, 0, None)  # z = 0 on mode 1: the phi series
@example(0.5, 0.1, 256, False, 40, 10, 100.0, 0, None)  # blow-up at step 5, replayed from step 0
# blow-up at step 8, replayed from the record at step 6 and the history kept with it
@example(0.5, 0.1, 256, False, 40, 3, 10.0, 16, None)
# blow-up at step 5, after the record at step 3: a replay from that record
# without its history puts it at step 6
@example(0.9, 0.1, 256, False, 40, 3, 100.0, 63, None)
@example(0.5, 0.1, 256, False, 2, 1, 100.0, 0, None)  # large but finite records
@example(0.5, 0.1, 256, False, 4, 1, 100.0, 0, None)  # record 4 overflows its diagnostics
@example(0.9, 0.05, 64, True, 40, 2, 0.0, 0, None)  # steady at once
# odd modes exactly 0 without the filter: the stepper carries (-1)^m c_m, so
# a sign slip would turn their +0 into -0
@example(0.3, 0.05, 256, False, 40, 4, 1.0, 0, "sin_2x")
@example(0.6, 0.02, 128, False, 40, 3, 1.0, 0, {2: -0.7, 4: 0.3})
# the band-gap filter acts at admission only; the reference filters every
# step, and its blow-ups must fall on the same steps
@example(0.5, 0.1, 256, True, 40, 10, 100.0, 0, None)  # blow-up at step 6
@example(0.5, 0.1, 256, True, 40, 3, 10.0, 2, None)  # blow-up at step 7, after record 2
@example(0.5, 0.1, 256, True, 2, 1, 100.0, 0, None)  # large but finite records
@example(0.5, 0.1, 256, True, 4, 1, 100.0, 0, None)  # record 4 overflows its diagnostics
@example(1.0, 0.05, 1024, True, 40, 4, 1.0, 0, None)  # z = 0 on mode 1
@example(0.6, 0.05, 1024, True, 40, 4, 1.0, 0, None)
def test_evolve_equals_the_reference_loop_bit_for_bit(
    kappa, dt, n_points, band_gap, steps, record_every, amplitude, seed, preset
):
    params = EvolveParams(
        kappa=kappa, dt=dt, t_end=steps * dt, n_points=n_points,
        filter="odd_band_gap" if band_gap else "none", record_every=record_every,
    )
    modes = np.arange(1, min(params.max_mode, 6) + 1)
    if band_gap:
        modes = modes[modes % 2 == 1]
    rng = np.random.default_rng(seed)
    if preset is None:
        preset = {int(m): amplitude * rng.uniform(-1.0, 1.0) / m for m in modes}
    u0 = initial_spectrum(preset, params.max_mode)
    want = _outcome(lambda: _reference_evolve(u0.coeffs.copy(), params))
    got = _outcome(lambda: evolve(u0, params))
    if not isinstance(want[0], np.ndarray):  # the reference ended in an error
        assert got == want
        return
    times, spectra, terminal, diagnostics = want
    assert got.terminal == terminal
    assert got.times.tobytes() == times.tobytes()
    assert got.snapshots.tobytes() == spectra.tobytes()
    for name in SERIES:
        assert getattr(got.diagnostics, name).tobytes() == getattr(diagnostics, name).tobytes()


# max |c_ETD2 - c_ETDRK2| / dt^2 at t = ceil(1/dt) dt, measured on 900 random
# draws of this strategy and on a grid of kappa, dt and the presets: at most
# 0.39 (half_sin_x at kappa -> 0, where the flow is the ODE u' = u - u^3),
# the same within 3% from dt = 0.002 to dt = 0.1
_ETDRK2_GAP = 0.5


@given(
    kappa=st.one_of(st.just(1.0), st.floats(0.0, 2.0, exclude_min=True)),
    dt=st.floats(1e-3, 0.1),
    preset=st.sampled_from(sorted(PRESETS)),
)
@example(1e-6, 0.1, "half_sin_x")  # the largest gap measured
@example(1.0, 0.05, "sin_x")  # z = 0 on mode 1: the phi series
def test_etd2_stays_within_dt_squared_of_etdrk2(kappa, dt, preset):
    # two second-order methods: their states part by O(dt^2) over a unit time
    steps = math.ceil(1.0 / dt)
    params = EvolveParams(kappa=kappa, dt=dt, t_end=steps * dt, n_points=64,
                          record_every=steps, detect_steady=False)
    u0 = initial_spectrum(preset, params.max_mode)
    stepper, c = _Stepper(params), u0.coeffs.copy()
    for _ in range(steps):
        c = _reference_step_etdrk2(stepper, c)
    got = evolve(u0, params)
    assert got.steps == steps
    assert np.max(np.abs(got.snapshots[-1] - c)) <= _ETDRK2_GAP * dt * dt


# max |cube - alias-free| / (eps max |N|) measured on 4,500 random spectra
# of 1..1024 modes, every mode up to 3 in size: 9.4
_FOLD_ULPS = 32


@st.composite
def _top_heavy_spectra(draw):
    # a spectrum whose top mode carries 0.5..2, where the fold weighs most
    M = draw(st.integers(1, 1024))
    c = draw(arrays(float, M, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    c[-1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
    return c


@given(c=_top_heavy_spectra())
@example(np.array([1.0]))  # one mode: sin^3 x on four points
def test_workspace_cube_equals_the_alias_free_cubic(c):
    # the 4M-point cube with the folded triad added back against the 8M-point
    # grid, on which nothing folds; the grid term alone misses mode M by c_M^3/4
    M = c.size
    sine = SineWorkspace(M)
    sine.load(c)
    sign = np.where(np.arange(1, M + 1) % 2 == 0, 1.0, -1.0)
    got = sign * sine.cube()[0]
    want = _alias_free_cubic(c)
    bound = _FOLD_ULPS * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound
    unfolded = _reference_cubic(c, 4 * M)
    assert abs(unfolded[-1] - want[-1]) > 1000.0 * bound
    assert np.max(np.abs(unfolded[:-1] - want[:-1]), initial=0.0) <= bound


# max |c - c_8M| over the records of each gate run, measured 2.2e-16 (one ulp
# of 1, kappa09_half); every state here is at most 1 in size
_GATE_RUN_GAP = 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(verify._RUNS))
def test_gate_runs_stay_on_the_alias_free_path(name):
    # the gate's four runs against the 8M-point cubic they ran on before the
    # fold: the same records, terminal and steps, and states within 4 ulp
    params, preset = verify._RUNS[name]
    u0 = initial_spectrum(preset, params.max_mode)
    times, spectra, terminal, _ = _reference_evolve(u0.coeffs.copy(), params, _alias_free_cubic)
    got = evolve(u0, params)
    assert got.terminal == terminal
    assert got.times.tobytes() == times.tobytes()
    assert np.max(np.abs(got.snapshots - spectra)) <= _GATE_RUN_GAP
