import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aclab.errors import DomainError, QuadratureError
from aclab.quadrature import integrate
from helpers import composite_simpson


def test_constant_integrand():
    assert integrate(lambda x: np.ones_like(x), 0.0, 0.5 * math.pi) == pytest.approx(
        0.5 * math.pi, abs=1e-14
    )


def test_inverse_sqrt2_constant():
    val = integrate(lambda x: np.full_like(x, 1.0 / math.sqrt(2.0)), 0.0, 0.5 * math.pi)
    assert val == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), abs=1e-13)


def test_elliptic_integrand_against_simpson():
    def f(theta):
        return 1.0 / np.sqrt(2.0 - 0.81 * (1.0 + np.sin(theta) ** 2))

    oracle = composite_simpson(f, 0.0, 0.5 * math.pi, n=1_000_000)
    assert integrate(f, 0.0, 0.5 * math.pi, tol=1e-13) == pytest.approx(oracle, abs=1e-10)


def test_scalar_callable_fallback():
    val = integrate(lambda x: math.exp(x), 0.0, 1.0, tol=1e-13)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)


def test_empty_interval():
    assert integrate(np.sin, 1.0, 1.0) == 0.0


def test_bad_bounds_and_tolerance():
    with pytest.raises(DomainError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(np.sin, 0.0, 1.0, tol=0.0)


def test_nonintegrable_singularity_raises():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: 1.0 / np.maximum(x, 1e-300), 0.0, 1.0, tol=1e-10)
    assert info.value.worst_interval is not None


@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.1, 3.0),
)
def test_exact_on_polynomials(coeffs, a, width):
    # 15-point Gauss-Legendre integrates degree <= 29 exactly per panel
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(a + width) - poly.integ()(a)
    val = integrate(lambda x: poly(x), a, a + width, tol=1e-13)
    assert val == pytest.approx(exact, abs=1e-11 * max(1.0, abs(exact)))
