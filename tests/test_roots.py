import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aclab.errors import BracketError
from aclab.ground_state import eval_g
from aclab.roots import find_root


def test_linear():
    assert find_root(lambda x: x - 0.5, 0.0, 1.0, tol=1e-14) == pytest.approx(0.5, abs=1e-13)


def test_sqrt_two():
    root = find_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-13)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_peak_equation_cross_validated_by_period_identity():
    kappa = 0.5
    target = math.pi / (2.0 * math.sqrt(2.0) * kappa)
    N = find_root(lambda n: eval_g(n) - target, 0.0, 1.0 - 1e-12, tol=1e-13)
    # the quarter-period identity makes 4 sqrt(2) kappa g(N) one full period
    assert 4.0 * math.sqrt(2.0) * kappa * eval_g(N) == pytest.approx(
        2.0 * math.pi, abs=1e-9
    )


def test_no_sign_change_raises():
    with pytest.raises(BracketError, match="bracket error"):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_endpoint_root_returned_directly():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0


@given(
    root=st.floats(-5.0, 5.0),
    slope=st.floats(0.2, 4.0),
    pad_lo=st.floats(0.01, 3.0),
    pad_hi=st.floats(0.01, 3.0),
)
def test_root_stays_inside_bracket(root, slope, pad_lo, pad_hi):
    lo, hi = root - pad_lo, root + pad_hi

    def f(x):
        return slope * (x - root) ** 3 + slope * (x - root)

    r = find_root(f, lo, hi, tol=1e-12)
    assert lo <= r <= hi
    assert r == pytest.approx(root, abs=1e-9)
