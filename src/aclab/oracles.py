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
its pure-Python backend.  The first-return period oracle marches the same
ODE with the same recurrence, in 80-bit fixed point from double data, and
times the orbit's upward zeros; it shares no code with the period formula
(the AGM behind ``catalog.minimal_period``) it checks.
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
RETURN_BITS = 80  # fixed-point fraction bits of the period march
RETURN_ORDER = 20  # series terms per step of the period march
RETURN_MAX_STEPS = 50_000  # about 4 s at 85 us a step on a 2.1-GHz Xeon; t_max beyond it is refused


def peak_complement_mp(kappa, dps=40):
    """Solve the quarter-period identity for w = 1 - N in mp precision, at kappa in (0, 1)."""
    if not (0.0 < kappa < 1.0 and kappa * kappa > 0.0):
        raise DomainError(f"domain error: kappa={kappa!r} outside (0, 1), or its square underflows")
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
        half = (k + 1) >> 1  # b_k = 2 sum_(i < k/2) a_i a_(k-i), plus a_(k/2)^2 at even k
        b2 = sum(map(operator.mul, a[:half], a_rev)) << 1
        b[k] = (b2 + (0 if k & 1 else a[half] * a[half])) >> prec
        c = sum(map(operator.mul, b, a_rev)) >> prec
        a[k + 2] = (c - a[k]) * r // ((k + 1) * (k + 2) << prec)
    return a


def _horner_fixed(a, p, q):
    # (sum a_k t^k, sum k a_k t^(k-1)) at t = p / q: u and h u' at x + t h;
    # at t = 1 these are the plain sums the marches end their full steps with
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
    are summed in double from each step's scaled series.  Returns the values
    and the peak gap |u(pi/2) - (1 - N)| of the march.

    Raises :class:`ResolutionError` when that gap exceeds 1e-17 or an output
    is not finite: below kappa ~ 0.045 the launch round-off, amplified by
    ~1/(1-N), outgrows ``SHOOT_DPS`` digits.  A march that leaves the bounded
    orbits (|u| >= 2) stops there and misses by inf.  Points outside
    [0, pi/2], or a kappa :func:`peak_complement_mp` refuses, raise :class:`DomainError`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < -1e-15 or xs.max() > 0.5 * math.pi + 1e-15):
        raise DomainError("domain error: shoot_profile expects points inside [0, pi/2]")
    with mp.workdps(SHOOT_DPS):
        kap = mp.mpf(kappa)
        w = peak_complement_mp(kappa, dps=SHOOT_DPS)
        q = w * (2 - w)
        v0 = mp.sqrt(1 - q * q) / (mp.sqrt(2) * kap)
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
                u, _ = _horner_fixed(a, t_end.numerator, t_end.denominator)
                break
            u, v = sum(a), sum(k * ak for k, ak in enumerate(a))
            x += Fraction(h)
        gap = float(abs(mp.ldexp(u, -prec) - (1 - w))) if abs(u) < 2 * one else math.inf
        if not (gap <= 1e-17 and np.all(np.isfinite(out))):
            raise ResolutionError(
                f"shooting at kappa={kappa} misses the peak value by {gap:.3e} "
                f"(limit 1e-17) in {SHOOT_DPS} digits"
            )
        return out, gap


def _polyval(c, t):
    # np.polyval(c, t) at a float t: its float operations in its order, without numpy scalars
    y = 0.0
    for ck in c:
        y = y * t + ck
    return y


def _upward_root(a):
    # the zero of sum a_k t^k on [0, 1] where the step's u rises through 0:
    # bisection to a bracket of 2^-12, then Newton on the double coefficients
    c = a[::-1]
    dc = [k * ck for k, ck in zip(range(len(c) - 1, 0, -1), c)]
    lo, hi = 0.0, 1.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if _polyval(c, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(8):
        d = _polyval(dc, t)
        dt = _polyval(c, t) / d if d else 0.0  # Newton ends where the derivative vanishes
        t -= dt
        if abs(dt) <= 1e-17:
            break
    return t


def first_return_period(u0, v0, kappa, t_max):
    """Minimal period of a closed steady-ODE orbit by Taylor marching.

    Marches kappa^2 u'' = u^3 - u from (u0, v0) with the shooting oracle's
    series recurrence in integer fixed point (``RETURN_BITS`` fraction bits,
    order ``RETURN_ORDER``, fixed step h = 0.22 kappa: in s = x / kappa the
    ODE holds no kappa, so every orbit takes the same s-step), and measures
    the gap between consecutive upward zero crossings of u, which closed
    orbits hit exactly once per period; each crossing is located on its
    step's polynomial by bisection and Newton, and the march stops at the
    second one.  A march that reaches |u| >= 2 stops there: such an orbit is
    no closed one and crosses upward at most once.  Fewer than two crossings
    in t <= t_max raise :class:`WindowError`.  Non-finite data, a kappa or
    t_max that is not a positive finite number, or a t_max beyond
    ``RETURN_MAX_STEPS`` steps raise :class:`DomainError`.
    """
    if not all(map(math.isfinite, (u0, v0, kappa, t_max))):
        raise DomainError(f"domain error: first_return_period needs finite data, got "
                          f"u0={u0!r}, v0={v0!r}, kappa={kappa!r}, t_max={t_max!r}")
    if not (kappa > 0.0 and t_max > 0.0):
        raise DomainError(f"domain error: kappa={kappa!r} and t_max={t_max!r} must be positive")
    h = 0.22 * kappa
    if t_max > RETURN_MAX_STEPS * h:
        raise DomainError(f"domain error: t_max={t_max!r} asks for more than "
                          f"{RETURN_MAX_STEPS} steps of {h:.3g}")
    one = 1 << RETURN_BITS
    r = Fraction(h) ** 2 / Fraction(kappa) ** 2
    r_fixed = (r.numerator << RETURN_BITS) // r.denominator
    u = round(Fraction(u0) * one)
    v = round(Fraction(h) * Fraction(v0) * one)  # h u'
    crossings = []
    n = 0
    while abs(u) < 2 * one and n * h < t_max:
        a = _scaled_taylor_coeffs(u, v, r_fixed, RETURN_ORDER, RETURN_BITS)
        u_next, v = sum(a), sum(k * ak for k, ak in enumerate(a))
        if u <= 0 < u_next < 2 * one:  # a step that escapes holds no closed orbit
            tau = _upward_root([ak / one for ak in a])
            if (n + tau) * h > t_max:
                break
            crossings.append((n, tau))
            if len(crossings) == 2:
                break
        u = u_next
        n += 1
    if len(crossings) < 2:
        raise WindowError(
            f"window error: first-return oracle saw {len(crossings)} upward crossings in t <= {t_max}"
        )
    (n1, tau1), (n2, tau2) = crossings
    return ((n2 - n1) + (tau2 - tau1)) * h
