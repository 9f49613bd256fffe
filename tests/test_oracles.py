"""The Taylor-shooting oracle against the mp evaluations its fast paths replace."""

import ast
import math
import operator
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import aclab.oracles
from aclab.catalog import classify_orbit
from aclab.errors import AclabError, DomainError, ResolutionError, WindowError
from aclab.ground_state import build_ground_state
from aclab.oracles import (
    PEAK_KAPPA_FLOOR,
    RETURN_BITS,
    RETURN_ORDER,
    SHOOT_BITS,
    _scaled_taylor_coeffs,
    _upward_root,
    first_return_period,
    peak_complement_mp,
    shoot_profile,
)
from helpers import mp_fraction, peak_complement_findroot, time_limit

PREC = SHOOT_BITS  # the march's fixed-point bits


def _equal_steps(kappa):
    # shoot_profile's march: n equal steps h = (pi/2) / n, h near 0.44 kappa
    n_steps = math.ceil(0.5 * math.pi / (0.44 * kappa))
    return n_steps, 0.5 * math.pi / n_steps


def _taylor_coeffs(u0, v0, kappa2, order):
    # the march's recurrence in mp floating point, as it ran before the integer one
    a = [u0, v0] + [mp.mpf(0)] * order
    b = [mp.mpf(0)] * (order + 1)
    c = [mp.mpf(0)] * (order + 1)
    for k in range(order):
        a_rev = a[k::-1]
        b[k] = mp.fdot(a[: k + 1], a_rev)
        c[k] = mp.fdot(b[: k + 1], a_rev)
        a[k + 2] = (c[k] - a[k]) / (kappa2 * (k + 1) * (k + 2))
    return a


def _horner2(a, h):
    u = mp.mpf(0)
    v = mp.mpf(0)
    for k in range(len(a) - 1, 0, -1):
        u = a[k] + u * h
        v = k * a[k] + v * h
    return a[0] + u * h, v


def _scaled_taylor_coeffs_full(u, v, r, order, prec):
    # the integer recurrence with both convolutions over all k + 1 products,
    # as it ran before b_k = u*u was summed over half of them by symmetry
    a = [u, v] + [0] * order
    b = [0] * (order + 1)
    for k in range(order):
        a_rev = a[k::-1]
        b[k] = sum(map(operator.mul, a[: k + 1], a_rev)) >> prec
        c = sum(map(operator.mul, b[: k + 1], a_rev)) >> prec
        a[k + 2] = (c - a[k]) * r // ((k + 1) * (k + 2) << prec)
    return a


def _upward_root_np(a):
    # _upward_root as it ran on np.polyval and np.polyder
    c = np.array(a[::-1], dtype=float)
    dc = np.polyder(c)
    lo, hi = 0.0, 1.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if np.polyval(c, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(8):
        dt = np.polyval(c, t) / np.polyval(dc, t)
        t -= dt
        if abs(dt) <= 1e-17:
            break
    return float(t)


def _first_return_period_full(u0, v0, kappa, t_max):
    # first_return_period as it marched a full period, from the first upward
    # zero to the second, before the half period between opposite zeros
    h = 0.22 * kappa
    one = 1 << RETURN_BITS
    r = Fraction(h) ** 2 / Fraction(kappa) ** 2
    r_fixed = (r.numerator << RETURN_BITS) // r.denominator
    u = round(Fraction(u0) * one)
    v = round(Fraction(h) * Fraction(v0) * one)
    crossings = []
    n = 0
    while abs(u) < 2 * one and n * h < t_max:
        a = _scaled_taylor_coeffs(u, v, r_fixed, RETURN_ORDER, RETURN_BITS)
        u_next, v = sum(a), sum(k * ak for k, ak in enumerate(a))
        if u <= 0 < u_next < 2 * one:
            tau = _upward_root([ak / one for ak in a])
            if (n + tau) * h > t_max:
                break
            crossings.append((n, tau))
            if len(crossings) == 2:
                break
        u = u_next
        n += 1
    assert len(crossings) == 2
    (n1, tau1), (n2, tau2) = crossings
    return ((n2 - n1) + (tau2 - tau1)) * h


def _taylor_coeffs_fsum(u0, v0, kappa2, order):
    # the recurrence as first written: fsum over generators of products
    a = [u0, v0] + [mp.mpf(0)] * order
    b = [mp.mpf(0)] * (order + 1)
    c = [mp.mpf(0)] * (order + 1)
    for k in range(order):
        b[k] = mp.fsum(a[i] * a[k - i] for i in range(k + 1))
        c[k] = mp.fsum(b[i] * a[k - i] for i in range(k + 1))
        a[k + 2] = (c[k] - a[k]) / (kappa2 * (k + 1) * (k + 2))
    return a


def _shoot_mp(kappa, xs, dps=40, order=50):
    # the march of shoot_profile with every requested point summed in mp
    with mp.workdps(dps):
        kap = mp.mpf(kappa)
        w = mp_fraction(peak_complement_mp(kappa))
        q = w * (2 - w)
        v0 = mp.sqrt(1 - q * q) / (mp.sqrt(2) * kap)
        n_steps, h = _equal_steps(kappa)
        u, v, x = mp.mpf(0), v0, mp.mpf(0)
        out = np.empty(xs.size)
        idx = np.argsort(xs)
        pos = 0
        for step in range(n_steps):
            a = _taylor_coeffs(u, v, kap**2, order)
            last = step == n_steps - 1
            while pos < xs.size and (last or xs[idx[pos]] <= float(x) + h + 1e-15):
                uu, _ = _horner2(a, mp.mpf(xs[idx[pos]]) - x)
                out[idx[pos]] = float(uu)
                pos += 1
            u, v = _horner2(a, mp.mpf(h))
            x += mp.mpf(h)
        return out


def _shoot_mp_summed_in_double(kappa, xs, dps=40, order=50):
    # the march on mp numbers, each step's points summed in double from the
    # coefficients a_k h^k: shoot_profile's outputs before its integer march
    with mp.workdps(dps):
        kap = mp.mpf(kappa)
        w = mp_fraction(peak_complement_mp(kappa))
        q = w * (2 - w)
        v0 = mp.sqrt(1 - q * q) / (mp.sqrt(2) * kap)
        n_steps, h = _equal_steps(kappa)
        u, v, x = mp.mpf(0), v0, mp.mpf(0)
        out = np.empty(xs.size)
        idx = np.argsort(xs)
        xs_sorted = xs[idx]
        pos = 0
        for step in range(n_steps):
            x_hi = float(x)
            x_lo = float(x - x_hi)
            a = _taylor_coeffs(u, v, kap**2, order)
            stop = int(np.searchsorted(xs_sorted, x_hi + h + 1e-15, side="right"))
            stop = xs.size if step == n_steps - 1 else stop
            hk, scaled = mp.mpf(1), []
            for ak in a:
                scaled.append(float(ak * hk))
                hk *= mp.mpf(h)
            t = ((xs_sorted[pos:stop] - x_hi) - x_lo) / h
            out[idx[pos:stop]] = np.polyval(scaled[::-1], t)
            pos = stop
            u, v = _horner2(a, mp.mpf(h))
            x += mp.mpf(h)
        return out


@pytest.mark.parametrize("kappa", [0.5, 0.65, 0.9])
def test_outputs_equal_the_mp_march_bit_for_bit(kappa):
    # the two marches part near 2^-136; the doubles summed from their series
    # can differ only in terms below about 1e-35, and move no output here
    xs = build_ground_state(kappa).quarter_x
    vals, _ = shoot_profile(kappa, xs)
    assert np.array_equal(vals, _shoot_mp_summed_in_double(kappa, xs))


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.9])
def test_double_sums_match_mp_sums_at_profile_nodes(kappa):
    xs = build_ground_state(kappa).quarter_x
    vals, gap = shoot_profile(kappa, xs)
    ref = _shoot_mp(kappa, xs)
    assert np.max(np.abs(vals - ref)) <= 4.5e-16
    assert gap <= 1e-17


@pytest.mark.parametrize("kappa2", ["0.01", "0.81"])
@pytest.mark.parametrize("u0, v0", [("0", "7.07"), ("0.6", "0.8"), ("-0.3", "2.5")])
def test_taylor_coeffs_match_fsum_recurrence(kappa2, u0, v0):
    with mp.workdps(40):
        args = (mp.mpf(u0), mp.mpf(v0), mp.mpf(kappa2), 50)
        fast = _taylor_coeffs(*args)
        ref = _taylor_coeffs_fsum(*args)
        assert len(fast) == len(ref) == 52
        for x, y in zip(fast, ref):
            assert abs(x - y) <= mp.mpf("1e-35") * abs(y)


def _assert_fixed_series_matches_mp(u0, v0, kappa2):
    # the integer series from (u0, h v0) and (h/kappa)^2 rounded to 2^-PREC,
    # against the mp recurrence run 64 bits finer from those same rounded values
    with mp.workprec(PREC + 64):
        h = mp.mpf(_equal_steps(math.sqrt(kappa2))[1])
        u = int(mp.nint(mp.ldexp(mp.mpf(u0), PREC)))
        v = int(mp.nint(mp.ldexp(h * mp.mpf(v0), PREC)))
        r = int(mp.floor(mp.ldexp(h * h / mp.mpf(kappa2), PREC)))
        ref = _taylor_coeffs(
            mp.ldexp(u, -PREC), mp.ldexp(v, -PREC) / h, h * h / mp.ldexp(r, -PREC), 50
        )
        ref = [ak * h**k for k, ak in enumerate(ref)]
        fixed = _scaled_taylor_coeffs(u, v, r, 50, PREC)
        assert len(fixed) == len(ref) == 52
        bound = mp.ldexp(max(abs(x) for x in ref), -(PREC - 8))
        for x, y in zip(fixed, ref):
            assert abs(mp.ldexp(x, -PREC) - y) <= bound


@pytest.mark.parametrize("kappa2", ["0.01", "0.81"])
@pytest.mark.parametrize("u0, v0", [("0", "7.07"), ("0.6", "0.8"), ("-0.3", "2.5")])
def test_fixed_point_coeffs_match_mp_recurrence(kappa2, u0, v0):
    _assert_fixed_series_matches_mp(u0, v0, float(kappa2))


@given(
    kappa=st.floats(0.045, 0.99),
    theta=st.floats(-1.0, 1.0),
    sign=st.sampled_from([-1, 1]),
)
def test_fixed_point_coeffs_match_mp_recurrence_on_profile_orbits(kappa, theta, sign):
    # (u0, v0) on the orbit the oracle marches at kappa, where
    # kappa^2 v0^2 + u0^2 - u0^4/2 = (1 - q^2)/2 and |u0| <= N
    with mp.workdps(40):
        w = mp_fraction(peak_complement_mp(kappa))
        q = w * (2 - w)
        u0 = theta * (1 - w)
        v0 = sign * mp.sqrt(max(0, (1 - q * q) / 2 - u0**2 + u0**4 / 2)) / kappa
    _assert_fixed_series_matches_mp(u0, v0, kappa * kappa)


@pytest.mark.parametrize("kappa", [0.01, 0.02])
def test_march_past_the_separatrix_is_refused(kappa):
    # the launch round-off throws the orbit onto an unbounded one; the march
    # stops at |u| = 2 rather than carry integers that grow without bound
    with pytest.raises(ResolutionError, match=r"by inf "):
        shoot_profile(kappa, np.linspace(0.0, 0.5 * math.pi, 9))


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.7, 0.9])
def test_peak_complement_matches_two_transcendental_integrand(kappa):
    # the quarter-period integral by tanh-sinh quadrature, the path the AGM replaced
    dps = 40
    with mp.workdps(dps):
        target = mp.pi / (2 * mp.sqrt(2) * mp.mpf(kappa))

        def g_of_s(s):
            w = mp.e**s
            q = w * (2 - w)
            return (
                mp.quad(
                    lambda p: 1 / mp.sqrt(mp.sin(p) ** 2 + q * (1 + mp.cos(p) ** 2)),
                    [0, mp.pi / 2],
                )
                - target
            )

        s = mp.findroot(
            g_of_s, (-2 * target - 8, mp.mpf(0)), solver="anderson",
            tol=mp.mpf(10) ** (-2 * dps + 8),
        )
        ref = mp.e**s
        assert abs(mp_fraction(peak_complement_mp(kappa)) - ref) <= mp.mpf("1e-35") * ref


@given(kappa=st.floats(0.01, 0.999))
def test_peak_complement_matches_the_findroot_solve(kappa):
    # the integer regula falsi against the mp.findroot solve it replaced, run
    # at 80 digits, where its own error is far below the bound
    with mp.workdps(80):
        ref = peak_complement_findroot(kappa, 80)
        assert abs(mp_fraction(peak_complement_mp(kappa)) - ref) <= mp.mpf("1e-38") * ref


def test_peak_solve_floor():
    # the fixed point grows like 1.6 / kappa bits; below the floor it is refused
    with mp.workdps(60):
        ref = peak_complement_findroot(PEAK_KAPPA_FLOOR, 60)
        assert abs(mp_fraction(peak_complement_mp(PEAK_KAPPA_FLOOR)) - ref) <= mp.mpf("1e-38") * ref
    with pytest.raises(DomainError, match="outside"):
        peak_complement_mp(math.nextafter(PEAK_KAPPA_FLOOR, 0.0))


def test_unsorted_points_come_back_in_input_order():
    xs = np.array([1.2, 0.1, 0.5 * math.pi, 0.7, 0.0, 0.35])
    vals, _ = shoot_profile(0.9, xs)
    order = np.argsort(xs)
    sorted_vals, _ = shoot_profile(0.9, xs[order])
    assert np.array_equal(vals[order], sorted_vals)
    assert vals[4] == 0.0 and np.all(np.diff(sorted_vals) > 0)


@pytest.mark.parametrize(
    "xs",
    [[-0.01, 0.5], [0.5, 0.5 * math.pi + 1e-12], [0.5, math.nan], [math.nan], 0.5, [[0.1, 0.2]]],
)
def test_points_outside_quarter_period_are_refused(xs):
    with pytest.raises(ValueError, match="inside"):
        shoot_profile(0.5, xs)


def test_refuses_kappa_beyond_its_digits():
    xs = np.linspace(0.0, 0.5 * math.pi, 9)
    with pytest.raises(ResolutionError, match=r"kappa=0\.04 .* by 7\.\d+e-14") as exc:
        shoot_profile(0.04, xs)
    assert isinstance(exc.value, AclabError) and isinstance(exc.value, ValueError)
    vals, gap = shoot_profile(0.05, xs)
    assert gap <= 1e-17
    assert np.all(np.isfinite(vals)) and vals.max() <= 1.0


def test_points_outside_quarter_period_raise_domain_error():
    with pytest.raises(DomainError) as exc:
        shoot_profile(0.5, [2.0])
    assert isinstance(exc.value, AclabError)


def test_first_return_without_two_crossings_raises_window_error():
    # the orbit through (0.5, 0) at kappa = 0.5 has period 3.49: its zeros come at 0.87 and 2.62,
    # so t <= 1 holds no half turn
    with pytest.raises(WindowError, match="zero crossings in t <= 1.0") as exc:
        first_return_period(0.5, 0.0, 0.5, t_max=1.0)
    assert isinstance(exc.value, AclabError)


def test_oracles_import_nothing_of_the_construction():
    # the module docstring: "nothing here shares code paths with the construction it checks"
    names = set()
    for node in ast.walk(ast.parse(Path(aclab.oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    construction = {"ground_state", "spectral", "catalog", "elliprf"}
    hits = sorted(
        n for n in names
        if construction & set(n.split(".")) or n == "scipy.special" or n.startswith("scipy.special.")
    )
    assert hits == []


def test_no_mpmath_inside_the_marches():
    # the oracles run on Python integers, Fractions and doubles: no module of
    # the library imports mpmath, at module level or in a function
    hits = []
    for path in sorted(Path(aclab.oracles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [(path.name, n) for n in names if n.split(".")[0] == "mpmath"]
    assert hits == []


def _dop853_period(u0, v0, kappa, t_max):
    # the oracle as it ran on scipy: DOP853 with event location, stopped at the second crossing
    def rhs(t, y):
        return [y[1], (y[0] ** 3 - y[0]) / kappa**2]

    def upward_zero(t, y):
        return y[0]

    upward_zero.direction = 1.0
    upward_zero.terminal = 2
    sol = solve_ivp(
        rhs, (0.0, t_max), [u0, v0], method="DOP853", rtol=1e-12, atol=1e-12,
        events=upward_zero, dense_output=False, max_step=t_max / 50.0,
    )
    crossings = sol.t_events[0]
    return float(crossings[1] - crossings[0])


def _period_mp(u0, v0, kappa):
    # kappa^2 u'^2 = (u^2 - a^2)(u^2 - b^2) / 2 with a^2, b^2 = 1 -+ sqrt(1 - 2C):
    # a quarter period is sqrt(2) kappa K(a/b) / b, at the exact double inputs
    with mp.workdps(30):
        u0, v0, kappa = mp.mpf(u0), mp.mpf(v0), mp.mpf(kappa)
        s = mp.sqrt(1 - 2 * (kappa**2 * v0**2 + u0**2 - u0**4 / 2))
        return float(4 * mp.sqrt(2) * kappa * mp.ellipk((1 - s) / (1 + s)) / mp.sqrt(1 + s))


@given(u0=st.floats(-1.3, 1.3), v0=st.floats(-1.2, 1.2), kappa=st.floats(0.25, 2.0))
def test_first_return_period_matches_dop853_and_the_period_formula(u0, v0, kappa):
    # the gate's ranges and orbit filter; toward the separatrix DOP853's own
    # error grows past 1e-9 (2e-9 at 1/2 - C = 1e-3), which the next test covers
    oc = classify_orbit(u0, v0, kappa)
    assume(oc.kind == "periodic" and not oc.near_boundary and oc.amplitude > 1e-3)
    assume(0.5 - oc.C >= 1e-2)
    t_max = 3.0 * oc.period + 5.0
    period = first_return_period(u0, v0, kappa, t_max)
    assert period == pytest.approx(_dop853_period(u0, v0, kappa, t_max), abs=1e-9)
    assert period == pytest.approx(oc.period, abs=1e-12)


_fixed_series = st.sampled_from([RETURN_BITS, PREC]).flatmap(
    lambda prec: st.tuples(
        st.integers(-(2 << prec), 2 << prec),  # u, |u| <= 2 as in the marches
        st.integers(-(2 << prec), 2 << prec),  # h u'
        st.integers(0, 1 << prec),  # r = (h / kappa)^2 <= 1
        st.integers(0, 50),
        st.just(prec),
    )
)


@given(_fixed_series)
def test_half_square_equals_the_full_convolution(args):
    # b_k = 2 sum_(i < k/2) a_i a_(k-i) + a_(k/2)^2 is the same integer sum
    assert _scaled_taylor_coeffs(*args) == _scaled_taylor_coeffs_full(*args)


@given(_fixed_series)
def test_float_horner_root_equals_the_polyval_root_bitwise(args):
    # the same IEEE operations in the same order: the same double, bit for bit;
    # draws whose Newton iterate hits a zero derivative, where np.polyval
    # divides by zero, are left to the next test
    prec = args[-1]
    a = [ak / (1 << prec) for ak in _scaled_taylor_coeffs(*args)]
    with np.errstate(all="raise"):
        try:
            ref = _upward_root_np(a)
        except FloatingPointError:
            assume(False)
    assert _upward_root(a).hex() == ref.hex()


def test_upward_root_stops_newton_at_a_zero_derivative():
    # (t - t0)^3 with t0 = 1/2 + 2^-13: bisection ends on t0 itself, where the
    # derivative is exactly 0; np.polyval's Newton step there made 0/0 = nan
    t0 = 0.5 + 2.0**-13
    a = [-(t0**3), 3.0 * t0 * t0, -3.0 * t0, 1.0]
    assert _upward_root(a) == t0


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5, 1e-7, 2e-8])
@pytest.mark.parametrize("kappa", [0.3, 1.0, 1.7, 2.0])
def test_first_return_period_near_the_separatrix(delta, kappa):
    # 1/2 - C = delta down to just above the gate's near-boundary band (1e-8),
    # where the period grows like ln(1/delta) and the orbit lingers at the saddles
    u0 = math.sqrt(1.0 - math.sqrt(2.0 * delta))
    exact = _period_mp(u0, 0.0, kappa)
    period = first_return_period(u0, 0.0, kappa, 3.0 * exact + 5.0)
    assert period == pytest.approx(exact, abs=1e-12)


@given(u0=st.floats(-1.3, 1.3), v0=st.floats(-1.2, 1.2), kappa=st.floats(0.25, 2.0))
def test_half_period_march_equals_the_full_period_march(u0, v0, kappa):
    # (u, u') -> (-u, -u') maps each closed orbit onto itself, so twice the
    # time between opposite zeros is the time between two upward ones
    oc = classify_orbit(u0, v0, kappa)
    assume(oc.kind == "periodic" and not oc.near_boundary and oc.amplitude > 1e-3)
    t_max = 3.0 * oc.period + 5.0
    period = first_return_period(u0, v0, kappa, t_max)
    assert period == pytest.approx(_first_return_period_full(u0, v0, kappa, t_max), abs=1e-13)


def test_every_zero_reaches_the_root_finder_rising(monkeypatch):
    # from (0.5, 0) the first zero is downward and the second upward; the
    # downward one is handed over negated, so bisection brackets a rising
    # series on both calls (Newton alone would recover the root from the
    # wrong end of the step, to the same double on every gate orbit)
    ends = []

    def recording(a):
        ends.append((a[0], math.fsum(a)))
        return _upward_root(a)

    monkeypatch.setattr(aclab.oracles, "_upward_root", recording)
    first_return_period(0.5, 0.0, 0.5, 10.0)
    assert len(ends) == 2 and all(start <= 0.0 < end for start, end in ends)


@given(u0=st.floats(-1.3, 1.3), v0=st.floats(-1.2, 1.2), kappa=st.floats(0.25, 2.0))
def test_first_return_period_scales_with_kappa(u0, v0, kappa):
    # x = kappa s takes kappa^2 u'' = u^3 - u to the kappa = 1 ODE, and u' to
    # du/ds / kappa: P(u0, v0, kappa) = kappa P(u0, kappa v0, 1)
    oc = classify_orbit(u0, v0, kappa)
    assume(oc.kind == "periodic" and not oc.near_boundary and oc.amplitude > 1e-3)
    period = first_return_period(u0, v0, kappa, 3.0 * oc.period + 5.0)
    scaled = first_return_period(u0, kappa * v0, 1.0, 3.0 * oc.period / kappa + 5.0)
    assert kappa * scaled == pytest.approx(period, rel=1e-14)


@pytest.mark.parametrize(
    "u0, v0, kappa, t_max",
    [
        (0.3, 0.0, math.nan, 20.0),
        (0.3, 0.0, -0.5, 20.0),
        (0.3, 0.0, 0.0, 20.0),
        (0.3, 0.0, math.inf, 20.0),
        (0.3, 0.0, 0.5, math.inf),
        (0.3, 0.0, 0.5, math.nan),
        (0.3, 0.0, 0.5, 0.0),
        (0.3, 0.0, 0.5, -1.0),
        (math.nan, 0.0, 0.5, 20.0),
        (math.inf, 0.0, 0.5, 20.0),
        (0.3, math.nan, 0.5, 20.0),
        (0.3, -math.inf, 0.5, 20.0),
        (0.0, 0.0, 0.5, 1e9),  # the zero orbit never crosses: the march would run to t_max
    ],
)
def test_first_return_refuses_bad_data(u0, v0, kappa, t_max):
    with time_limit(5.0), pytest.raises(DomainError):
        first_return_period(u0, v0, kappa, t_max)


def test_first_return_leaves_an_escaping_orbit():
    # C > 1/2 from u0 = -1.3: one upward crossing, then escape; the march stops at |u| = 2
    with time_limit(5.0), pytest.raises(WindowError, match="saw 1 zero"):
        first_return_period(-1.3, 1.0, 0.5, 100.0)


@pytest.mark.parametrize("u0, v0", [(0.5, -1.0), (-0.5, 1.0)])
def test_first_return_leaves_an_orbit_that_escapes_after_one_downward_zero(u0, v0):
    # C > 1/2 at kappa = 1, headed through u = 0: one zero crossing, the
    # downward one or its mirror, then escape; half a turn is no period
    with time_limit(5.0), pytest.raises(WindowError, match="saw 1 zero"):
        first_return_period(u0, v0, 1.0, 100.0)
