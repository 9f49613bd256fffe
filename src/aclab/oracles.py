"""Independent truth sources used by tests and the verification suites.

Nothing here shares code paths with the construction it checks: the peak
value is re-solved in 40-digit mpmath through Gauss's arithmetic-geometric
mean, R_F(0, 1+q, 2q) = pi / (2 AGM(sqrt(1+q), sqrt(2q))), the construction's
formula (itself checked by Simpson quadrature and the shooting oracle's peak
gap), and the steady profile is re-derived by Taylor-series shooting of the
second-order ODE from that 40-digit launch, marched in integer fixed point
with 32 bits beyond the 40 digits.  Double-precision shooting cannot serve
as an oracle for small kappa: the profile rides the saddle at u = 1, where
initial-condition round-off grows by ~1/(1-N), 1e9 already at kappa=0.1.
The march's series recurrence is the automatic-differentiation Taylor method
(Jorba & Zou, Experimental Mathematics 14 (2005) 99-117); it needs only
integer products and shifts, which cost far less than mpmath's numbers on
its pure-Python backend.
"""

import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DomainError, ResolutionError, WindowError

SHOOT_DPS = 40  # working digits of the march
TAYLOR_ORDER = 50  # series terms per step
GUARD_BITS = 32  # fixed-point bits kept beyond the SHOOT_DPS digits


def peak_complement_mp(kappa, dps=40):
    """Solve the quarter-period identity for w = 1 - N in mp precision."""
    with mp.workdps(dps):
        target = mp.pi / (2 * mp.sqrt(2) * mp.mpf(kappa))

        def g_of_s(s):
            # R_F(0, 1+q, 2q) = pi / (2 AGM(sqrt(1+q), sqrt(2q))), DLMF 19.8(i), 19.22(i)
            w = mp.e**s
            q = w * (2 - w)
            return mp.pi / (2 * mp.agm(mp.sqrt(1 + q), mp.sqrt(2 * q))) - target

        s_lo = -2 * target - 8
        s = mp.findroot(g_of_s, (s_lo, mp.mpf(0)), solver="anderson", tol=mp.mpf(10) ** (-2 * dps + 8))
        return mp.e**s


def _scaled_taylor_coeffs(u, v, r, order, prec):
    # the recurrence for kappa^2 u'' = u^3 - u on a_k h^k, in integers times
    # 2^-prec: from (u, h u') and r = (h / kappa)^2; b = u*u and c = u^3
    a = [u, v] + [0] * order
    b = [0] * (order + 1)
    for k in range(order):
        a_rev = a[k::-1]
        b[k] = sum(map(operator.mul, a[: k + 1], a_rev)) >> prec
        c = sum(map(operator.mul, b[: k + 1], a_rev)) >> prec
        a[k + 2] = (c - a[k]) * r // ((k + 1) * (k + 2) << prec)
    return a


def _horner_fixed(a, p, q):
    # (sum a_k t^k, sum k a_k t^(k-1)) at t = p / q: u and h u' at x + t h
    u = 0
    v = 0
    for k in range(len(a) - 1, 0, -1):
        u = a[k] + u * p // q
        v = k * a[k] + v * p // q
    return a[0] + u * p // q, v


def shoot_profile(kappa, xs):
    """Steady profile u at points ``xs`` in [0, pi/2] by Taylor shooting.

    Launches from (u, u') = (0, sqrt(1 - (1 - N^2)^2) / (sqrt 2 kappa)), the
    slope the orbit invariant dictates at u = 0, with N from
    :func:`peak_complement_mp` in ``SHOOT_DPS`` digits, and marches fixed
    Taylor steps h sized well inside the series' convergence disk.  The march
    runs on Python integers in fixed point: each step's series is carried as
    a_k h^k times 2^P, with P the binary precision of ``SHOOT_DPS`` digits
    plus 32 guard bits, and the next step starts from (u, h u') = (sum a_k h^k,
    sum k a_k h^k).  The scaled terms are O(1) inside the convergence disk,
    so a fixed absolute precision holds at small kappa.  The requested points
    are summed in double from each step's scaled series.  Also returns the
    drift of the orbit invariant as an internal error estimate.

    Raises :class:`ResolutionError` when the march misses the peak value
    1 - N by more than 1e-17 or an output is not finite: below kappa ~ 0.045
    the launch round-off, amplified by ~1/(1-N), outgrows ``SHOOT_DPS`` digits.
    A march that leaves the bounded orbits (|u| >= 2) stops there and misses
    by inf.  Points outside [0, pi/2] raise :class:`DomainError`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < -1e-15 or xs.max() > 0.5 * math.pi + 1e-15):
        raise DomainError("domain error: shoot_profile expects points inside [0, pi/2]")
    with mp.workdps(SHOOT_DPS):
        kap = mp.mpf(kappa)
        w = peak_complement_mp(kappa, dps=SHOOT_DPS)
        q = w * (2 - w)
        v0 = mp.sqrt(1 - q * q) / (mp.sqrt(2) * kap)
        c_init = kap**2 * v0**2  # invariant at u=0: kappa^2 v^2 + u^2 - u^4/2
        prec = mp.mp.prec + GUARD_BITS
        one = 1 << prec
        kappa2 = Fraction(float(kap)) ** 2
        h_step = min(0.44 * float(kap), 0.3)
        h = h_step
        u, v, x = 0, int(mp.nint(mp.ldexp(h * v0, prec))), Fraction(0)
        out = np.empty(xs.size)
        idx = np.argsort(xs)
        xs_sorted = xs[idx]
        pos = 0
        x_end = 0.5 * math.pi
        drift = mp.mpf(0)
        while abs(u) < 2 * one:  # past the separatrix the integers grow without bound
            x_hi = float(x)
            x_lo = float(x - Fraction(x_hi))  # Fraction - float would round to float first
            h_next = min(h_step, x_end - x_hi + 1e-18)
            if h_next != h:  # the shorter last step: rescale h u'
                ratio = Fraction(h_next) / Fraction(h)
                v = v * ratio.numerator // ratio.denominator
                h = h_next
            r = Fraction(h) ** 2 / kappa2
            a = _scaled_taylor_coeffs(u, v, (r.numerator << prec) // r.denominator, TAYLOR_ORDER, prec)
            # evaluate any requested points inside [x, x+h]
            stop = int(np.searchsorted(xs_sorted, x_hi + h + 1e-15, side="right"))
            if stop > pos:
                # xs - x_hi is exact (Sterbenz, or x_hi = 0)
                t = ((xs_sorted[pos:stop] - x_hi) - x_lo) / h
                out[idx[pos:stop]] = np.polyval([ak / one for ak in reversed(a)], t)
                pos = stop
            if x_hi + h >= x_end - 1e-15:
                t_end = (Fraction(x_end) - x) / Fraction(h)
                u, v = _horner_fixed(a, t_end.numerator, t_end.denominator)
                break
            u, v = _horner_fixed(a, 1, 1)
            x += Fraction(h)
            u_mp, v_mp = mp.ldexp(u, -prec), mp.ldexp(v, -prec) / h
            drift = max(drift, abs(kap**2 * v_mp**2 + u_mp**2 - u_mp**4 / 2 - c_init))
        gap = float(abs(mp.ldexp(u, -prec) - (1 - w))) if abs(u) < 2 * one else math.inf
        if not (gap <= 1e-17 and np.all(np.isfinite(out))):
            raise ResolutionError(
                f"shooting at kappa={kappa} misses the peak value by {gap:.3e} "
                f"(limit 1e-17) in {SHOOT_DPS} digits"
            )
        return out, {
            "invariant_drift": float(drift),
            "peak_value_gap": gap,
            "peak_slope": float(mp.ldexp(v, -prec) / h),
        }


def first_return_period(u0, v0, kappa, t_max):
    """Minimal period of a closed steady-ODE orbit by event detection.

    Integrates kappa^2 u'' = u^3 - u from (u0, v0) and measures the gap
    between consecutive upward zero crossings of u, which closed orbits hit
    exactly once per period; the integration stops at the second one.
    Fewer than two crossings in ``t <= t_max`` raise :class:`WindowError`.
    """
    from scipy.integrate import solve_ivp  # loaded on first call: the import takes about 0.3 s

    def rhs(t, y):
        return [y[1], (y[0] ** 3 - y[0]) / kappa**2]

    def upward_zero(t, y):
        return y[0]

    upward_zero.direction = 1.0
    upward_zero.terminal = 2
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        [u0, v0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        events=upward_zero,
        dense_output=False,
        max_step=t_max / 50.0,
    )
    crossings = sol.t_events[0]
    if crossings.size < 2:
        raise WindowError(
            f"window error: first-return oracle saw {crossings.size} upward crossings in t <= {t_max}"
        )
    return float(crossings[1] - crossings[0])
