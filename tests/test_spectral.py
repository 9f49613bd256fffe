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
    TorusField,
    TorusGrid,
    sine_coeffs,
    sine_transform,
    sine_values,
    spectral_derivative,
    synthesize,
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
    x = grid64.x
    d2 = spectral_derivative(sine_transform(TorusField(grid64, np.sin(x))), 2, grid64)
    assert np.max(np.abs(d2.values + np.sin(x))) < 1e-12

    d1 = spectral_derivative(sine_transform(TorusField(grid64, np.sin(3 * x))), 1, grid64)
    assert np.max(np.abs(d1.values - 3.0 * np.cos(3 * x))) < 1e-12

    with pytest.raises(DomainError):
        spectral_derivative(SineSpectrum([1.0]), 3, grid64)
    with pytest.raises(DomainError, match="cannot hold 32 sine modes"):
        spectral_derivative(SineSpectrum(np.ones(32)), 2, grid64)


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
    u_xx = spectral_derivative(spec, 2, gs.field.grid).values
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
    back = sine_transform(synthesize(spec, grid64))
    assert np.max(np.abs(back.coeffs[: spec.max_mode] - spec.coeffs)) < 1e-10
    assert np.max(np.abs(back.coeffs[spec.max_mode :])) < 1e-10


@given(
    coeffs=arrays(float, st.integers(1, 31), elements=st.floats(-1.0, 1.0, allow_nan=False)),
    cosine=st.booleans(),
)
def test_sine_values_against_direct_sum(coeffs, cosine):
    # at n = 64 and at the twice-as-fine grid the stepper pads to
    basis = np.cos if cosine else np.sin
    m = np.arange(1, coeffs.size + 1)
    for n in (64, 128):
        x = TorusGrid(n).x
        direct = basis(np.outer(x, m)) @ coeffs
        assert np.max(np.abs(sine_values(coeffs, n, cosine=cosine) - direct)) < 1e-12
        if not cosine:
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
    # a (records, M) array transforms row by row, bit for bit
    for n in (64, 128):
        values = sine_values(coeffs, n, cosine=cosine)
        assert values.shape == (coeffs.shape[0], n)
        back = sine_coeffs(values, coeffs.shape[1], cosine=cosine)
        for row, v, b in zip(coeffs, values, back):
            assert np.array_equal(v, sine_values(row, n, cosine=cosine))
            assert np.array_equal(b, sine_coeffs(v, coeffs.shape[1], cosine=cosine))


@given(
    coeffs=arrays(float, st.integers(1, 31), elements=st.floats(-1.0, 1.0, allow_nan=False)),
    a0=st.floats(-1.0, 1.0),
)
def test_cosine_analysis_inverts_cosine_synthesis(coeffs, a0):
    # a_0 is (1/pi) int f, so a constant a0/2 comes back as a_0 = a0
    for n in (64, 128):
        values = 0.5 * a0 + sine_values(coeffs, n, cosine=True)
        back = sine_coeffs(values, coeffs.size, cosine=True)
        assert back.shape == (coeffs.size + 1,)
        assert abs(back[0] - a0) < 1e-12
        assert np.max(np.abs(back[1:] - coeffs)) < 1e-12


def test_fft_used_only_in_spectral():
    # one home for every grid <-> spectrum map: no FFT and no dense trig basis elsewhere
    src = Path(aclab.__file__).parent
    markers = ("np.fft", "np.sin(np.outer(", "np.cos(np.outer(")
    users = sorted(
        p.name for p in src.glob("*.py") if any(m in p.read_text() for m in markers)
    )
    assert users == ["spectral.py"]
    assert "np.outer(" not in (src / "spectral.py").read_text()
