from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import aclab
from aclab.errors import DomainError, SymmetryError
from aclab.spectral import (
    SineSpectrum,
    SineWorkspace,
    TorusField,
    TorusGrid,
    gradient_energy,
    sine_coeffs,
    sine_transform,
    sine_values,
)


@pytest.fixture(scope="module")
def grid64():
    return TorusGrid(64)


def test_grid_validation():
    with pytest.raises(DomainError):
        TorusGrid(100)  # not a power of two
    with pytest.raises(DomainError):
        TorusGrid(8)  # too small
    g = TorusGrid(16)
    assert g.x[0] == -np.pi
    assert g.x[8] == pytest.approx(0.0)


def test_basis_function_transforms(grid64):
    x = grid64.x
    s = sine_transform(TorusField(grid64, np.sin(x)))
    assert s.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(s.coeffs[1:])) < 1e-14

    s2 = sine_transform(TorusField(grid64, 3.0 * np.sin(2.0 * x)))
    assert s2.coeffs[1] == pytest.approx(3.0, abs=1e-13)


def test_symmetry_violation_rejected(grid64):
    x = grid64.x
    with pytest.raises(SymmetryError, match="symmetry violation"):
        sine_transform(TorusField(grid64, np.cos(x)))


def test_derivative_examples(grid64):
    # u'' is the synthesis of -m^2 c_m, as the ground-state build takes it
    x = grid64.x
    c = sine_transform(TorusField(grid64, np.sin(x))).coeffs
    m = np.arange(1.0, c.size + 1)
    assert np.max(np.abs(sine_values(-(m * m) * c, 64) + np.sin(x))) < 1e-12

    # int (kappa^2/2) (u')^2 of sin 3x is 9 pi kappa^2 / 2; a (records, M)
    # array gives one term per row
    c3 = sine_transform(TorusField(grid64, np.sin(3 * x))).coeffs
    assert gradient_energy(c3, 0.5) == pytest.approx(9 * np.pi / 8, abs=1e-12)
    rows = np.stack([c, c3])
    assert np.array_equal(gradient_energy(rows, 0.5), [gradient_energy(r, 0.5) for r in rows])


def test_ground_state_band_gap(gs_cache):
    # even-index sine modes of the steady profile vanish: it is symmetric
    # about pi/2, which kills every even harmonic
    spec = sine_transform(gs_cache(0.5).field)
    even = spec.coeffs[1::2]
    assert np.max(np.abs(even)) < 1e-10
    assert np.max(np.abs(spec.coeffs[0::2])) > 0.1


def test_ground_state_second_derivative_residual(gs_cache):
    gs = gs_cache(0.5)
    spec = sine_transform(gs.field)
    u = gs.field.values
    m = np.arange(1.0, spec.coeffs.size + 1)
    u_xx = sine_values(-(m * m) * spec.coeffs, gs.field.grid.n_points)
    residual = 0.25 * u_xx + u - u**3
    assert np.max(np.abs(residual)) < 1e-8


def test_field_validation(grid64):
    with pytest.raises(DomainError):
        TorusField(grid64, np.ones(10))
    with pytest.raises(DomainError):
        TorusField(grid64, np.full(64, np.nan))


@given(
    coeffs=arrays(
        float,
        st.integers(1, 16),
        elements=st.floats(-5.0, 5.0, allow_nan=False),
    )
)
def test_round_trip_band_limited(coeffs, grid64):
    # band-limited means M <= n/4; round trip is exact to 1e-10
    spec = SineSpectrum(coeffs)
    back = sine_transform(TorusField(grid64, sine_values(spec.coeffs, 64)))
    assert np.max(np.abs(back.coeffs[: coeffs.size] - spec.coeffs)) < 1e-10
    assert np.max(np.abs(back.coeffs[coeffs.size :])) < 1e-10


@pytest.mark.parametrize("M", [32, 40])
def test_sine_values_refuses_modes_the_grid_cannot_hold(M):
    # M = n/2 would lose the Nyquist mode: sin(n x_j / 2) is 0 on the grid
    with pytest.raises(DomainError, match=f"grid with 64 points cannot hold {M} sine modes"):
        sine_values(np.ones(M), 64)


@pytest.mark.parametrize("M, cosine", [(8, False), (9, False), (9, True), (40, True)])
def test_sine_coeffs_refuses_modes_the_grid_cannot_hold(M, cosine):
    # it once returned the Nyquist "sine coefficient", 0 on every grid, at
    # M = n/2, and failed on a bare numpy broadcast error above
    kind = "cosine" if cosine else "sine"
    values = np.sin(TorusGrid(16).x)
    with pytest.raises(DomainError, match=f"grid with 16 points cannot hold {M} {kind} modes"):
        sine_coeffs(values, M, cosine=cosine)
    assert sine_coeffs(values, 7).shape == (7,)
    assert sine_coeffs(values, 8, cosine=True).shape == (9,)


def _workspace_cubes(sine, c):
    # the cubic terms the workspace gives for coefficients c, written into
    # each of its two slots in turn
    sign = np.where(np.arange(1, c.size + 1) % 2 == 0, 1.0, -1.0)
    sine.load(c)
    first, before = sine.cube()
    assert before is first  # loaded without history, the first term is its own
    second, before = sine.cube()
    assert before is first and second is not first
    return sign * first, sign * second


def test_workspace_history_round_trips():
    # a restart from a record needs the term of the state before it, bit for bit
    rng = np.random.default_rng(7)
    sine = SineWorkspace(31)
    c, d = rng.standard_normal((2, 31))
    sine.load(c)
    sine.cube()
    history = sine.history()
    assert history.tobytes() == sine.cube()[1].tobytes()
    sine.load(d, history)
    term, before = sine.cube()
    assert before.tobytes() == history.tobytes()
    assert term is not before
    history[:] = np.nan  # a copy: the workspace does not share it
    assert np.all(np.isfinite(before))


def _folded(term, c):
    # the fold the workspace adds back to mode M of its 4M-point grid term
    term[-1] += c[-1] * c[-1] * c[-1] / 4
    return term


@pytest.mark.parametrize("M", [0, -3, 2.0, True, "8"])
def test_workspace_refuses_a_mode_count_that_is_not_a_positive_integer(M):
    with pytest.raises(DomainError, match="integer mode count >= 1"):
        SineWorkspace(M)


def test_workspace_builds_its_own_alias_free_grid():
    # SineWorkspace(31, 64) once built a grid too coarse for the cube of its
    # 31 modes; the workspace now takes M alone and transforms on 4M points.
    # Its factors -1/2 and 2/n are the free functions' up to powers of two,
    # which keeps the bits when 4M is one
    rng = np.random.default_rng(31)
    for M, n in ((32, 128), (31, 124)):
        coeffs = rng.standard_normal(M)
        sine = SineWorkspace(M)
        assert sine.n_points == n
        u = sine_values(coeffs, n)
        want = _folded(-sine_coeffs(u * u * u, M), coeffs)
        for cube in _workspace_cubes(sine, coeffs):
            if n == 128:
                assert np.array_equal(cube, want)
            assert np.max(np.abs(cube - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(sine.coeffs(), coeffs)


def _public_fft_values(coeffs, n):
    # sine_values written with np.fft.irfft
    M = coeffs.shape[-1]
    sign = np.where(np.arange(M + 1) % 2 == 0, 1.0, -1.0)
    spectrum = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spectrum[..., 1 : M + 1] = ((-0.5j * n) * sign)[1:] * coeffs
    return np.fft.irfft(spectrum, n)


def _public_fft_coeffs(values, M, cosine):
    # sine_coeffs written with np.fft.rfft
    n = values.shape[-1]
    sign = np.where(np.arange(M + 1) % 2 == 0, 1.0, -1.0)
    spectrum = np.fft.rfft(values)
    if cosine:
        return ((2.0 / n) * sign) * spectrum[..., : M + 1].real
    return ((-2.0 / n) * sign)[1:] * spectrum[..., 1 : M + 1].imag


@st.composite
def _transform_cases(draw):
    n = draw(st.sampled_from([2**k for k in range(4, 13)]))
    M = draw(st.integers(1, n // 2 - 1))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return n, M, batch, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@given(case=_transform_cases())
def test_transforms_equal_the_public_numpy_fft_to_the_bit(case):
    # spectral calls numpy's pocketfft gufuncs directly; a numpy whose
    # kernels or factors differ from np.fft's fails here, not in a trajectory
    n, M, batch, cosine, seed = case
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(batch + (M,)) / np.arange(1, M + 1)
    values = rng.standard_normal(batch + (n,))
    got = sine_values(coeffs, n)
    assert got.tobytes() == _public_fft_values(coeffs, n).tobytes()
    M_analysis = M + 1 if cosine else M  # the cosine analysis takes M up to n/2
    got = sine_coeffs(values, M_analysis, cosine=cosine)
    assert got.tobytes() == _public_fft_coeffs(values, M_analysis, cosine).tobytes()
    # the workspace transforms on its own 4M points, and adds the fold back;
    # the stepper's M is n/4, a power of two, where the bits agree
    M_step = n // 4
    sine = SineWorkspace(M_step)
    rows = rng.standard_normal(batch + (M_step,)) / np.arange(1, M_step + 1)
    for c in rows.reshape(-1, M_step):
        u = _public_fft_values(c, n)
        want = _folded(-_public_fft_coeffs(u * u * u, M_step, False), c).tobytes()
        assert [cube.tobytes() for cube in _workspace_cubes(sine, c)] == [want, want]
        assert sine.coeffs().tobytes() == (c + 0.0).tobytes()


@pytest.mark.parametrize("n", [17, 63])
def test_analysis_refuses_an_odd_grid(n):
    # the even-grid kernel would return wrong coefficients, not an error
    with pytest.raises(DomainError, match=f"grid with {n} points is odd"):
        sine_coeffs(np.ones(n), 4)


@given(
    coeffs=arrays(float, st.integers(1, 31), elements=st.floats(-1.0, 1.0, allow_nan=False)),
)
def test_sine_values_against_direct_sum(coeffs):
    # at n = 64 and at the twice-as-fine grid on which the diagnostics take int u^4
    m = np.arange(1, coeffs.size + 1)
    for n in (64, 128):
        x = TorusGrid(n).x
        direct = np.sin(np.outer(x, m)) @ coeffs
        assert np.max(np.abs(sine_values(coeffs, n) - direct)) < 1e-12
        back = sine_coeffs(direct, coeffs.size)
        assert np.max(np.abs(back - coeffs)) < 1e-12


@given(
    coeffs=arrays(
        float,
        st.tuples(st.integers(1, 5), st.integers(1, 31)),
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    ),
    cosine=st.booleans(),
)
def test_transform_pair_rows_equal_single_calls(coeffs, cosine):
    # a (records, M) array transforms row by row, bit for bit; ``cosine``
    # picks the analysis
    for n in (64, 128):
        values = sine_values(coeffs, n)
        assert values.shape == (coeffs.shape[0], n)
        back = sine_coeffs(values, coeffs.shape[1], cosine=cosine)
        for row, v, b in zip(coeffs, values, back):
            assert np.array_equal(v, sine_values(row, n))
            assert np.array_equal(b, sine_coeffs(v, coeffs.shape[1], cosine=cosine))


@given(
    coeffs=arrays(float, st.integers(1, 31), elements=st.floats(-1.0, 1.0, allow_nan=False)),
    a0=st.floats(-1.0, 1.0),
)
def test_cosine_analysis_inverts_cosine_synthesis(coeffs, a0):
    # a_0 is (1/pi) int f, so a constant a0/2 comes back as a_0 = a0
    m = np.arange(1, coeffs.size + 1)
    for n in (64, 128):
        values = 0.5 * a0 + np.cos(np.outer(TorusGrid(n).x, m)) @ coeffs
        back = sine_coeffs(values, coeffs.size, cosine=True)
        assert back.shape == (coeffs.size + 1,)
        assert abs(back[0] - a0) < 1e-12
        assert np.max(np.abs(back[1:] - coeffs)) < 1e-12


def test_fft_used_only_in_spectral():
    # one home for every grid <-> spectrum map: no FFT and no dense trig basis elsewhere
    src = Path(aclab.__file__).parent
    markers = ("np.fft", "numpy.fft", "_pocketfft", "np.sin(np.outer(", "np.cos(np.outer(")
    users = sorted(
        p.name for p in src.glob("*.py") if any(m in p.read_text() for m in markers)
    )
    assert users == ["spectral.py"]
    assert "np.outer(" not in (src / "spectral.py").read_text()
