"""Independent truth sources used by tests and the verification suites.

Nothing here shares code paths with the construction it checks.  The peak
value is re-solved in Python integers: Gauss's arithmetic-geometric mean
turns the quarter-period identity R_F(0, 1+q, 2q) = pi / (2 sqrt 2 kappa)
into AGM(sqrt(1+q), sqrt(2q)) = sqrt(2) kappa, in which pi cancels (DLMF
19.8(i)), and regula falsi solves that in fixed point, each mean by
``math.isqrt``.  The construction evaluates the identity in double precision
by its own AGM loop; Simpson quadrature and this solve check it.  The
steady profile is re-derived by Taylor-series shooting of the second-order
ODE from the launch that peak dictates, marched in integer fixed point at
``SHOOT_BITS`` fraction bits.  Double-precision shooting cannot serve as an
oracle for small kappa: the profile rides the saddle at u = 1, where
initial-condition round-off grows by ~1/(1-N), 1e9 already at kappa=0.1.
The march's series recurrence is the automatic-differentiation Taylor method
(Jorba & Zou, Experimental Mathematics 14 (2005) 99-117); it needs only
integer products and shifts.  The first-return period oracle marches the same
ODE with the same recurrence, in 96-bit fixed point from double data, and
times half a turn between the orbit's first two zeros; it shares no code with
the period formula (the AGM behind ``catalog.minimal_period``) it checks.
"""
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResolutionError, WindowError

SHOOT_BITS = 168  # fixed-point fraction bits of the shooting march
PEAK_KAPPA_FLOOR = 0.002  # the peak solve carries about 1.6 / kappa extra bits
TAYLOR_ORDER = 50  # series terms per step
RETURN_BITS = 96  # fraction bits of the period march; doubling its half period doubles its error
RETURN_ORDER = 20  # series terms per step of the period march
RETURN_MAX_STEPS = 50_000  # about 3 s at 56 us a step on a 2.0-GHz Xeon; t_max beyond it is refused


def peak_complement_mp(kappa):
    """w = 1 - N of the steady profile at kappa in [``PEAK_KAPPA_FLOOR``, 1), as an exact Fraction.

    Solves AGM(sqrt(1 + q), y) = sqrt(2) kappa for y = sqrt(2q), q = 1 - N^2,
    by Illinois regula falsi on the whole bracket y in [2^-P, sqrt 2], in
    integers times 2^-P.  P is ``SHOOT_BITS`` + 8 plus the leading zero bits
    of the root y ~ 4 exp(-pi / (2 sqrt 2 kappa)), so y keeps SHOOT_BITS + 8
    significant bits at every kappa; the floor bounds P near 1000.  Returns
    w = q / (1 + sqrt(1 - q)).  Any other kappa raises :class:`DomainError`.
    """
    if not PEAK_KAPPA_FLOOR <= kappa < 1.0:
        raise DomainError(f"domain error: kappa={kappa!r} outside [{PEAK_KAPPA_FLOOR}, 1)")
    zeros = -math.frexp(4.0 * math.exp(-math.pi / (2.0 * math.sqrt(2.0) * kappa)))[1]
    prec = SHOOT_BITS + 8 + max(zeros, 0)
    one2 = 1 << 2 * prec
    target = math.isqrt(int(2 * Fraction(kappa) ** 2 * one2))

    def f(y):  # AGM(sqrt(1 + q), y) - sqrt(2) kappa; floored means keep a >= b
        a, b = math.isqrt(one2 + (y * y >> 1)), y
        while a - b > 1:
            a, b = (a + b) >> 1, math.isqrt(a * b)
        return a - target

    lo, hi = 1, math.isqrt(2 * one2)
    f_lo, f_hi, side = f(lo), f(hi), 0
    while hi - lo > 1:
        y = min(max(hi - f_hi * (hi - lo) // (f_hi - f_lo), lo + 1), hi - 1)
        f_y = f(y)
        # Illinois: an end kept twice in a row has its value halved, away from 0
        if f_y >= 0:
            hi, f_hi, f_lo, side = y, f_y, (f_lo >> 1 if side > 0 else f_lo), 1
        else:
            lo, f_lo, f_hi, side = y, f_y, ((f_hi + 1) >> 1 if side < 0 else f_hi), -1
    s = math.isqrt((2 * one2 - hi * hi) >> 1)  # sqrt(1 - q) times 2^prec
    return Fraction(hi * hi, (1 << prec + 1) * ((1 << prec) + s))


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


def shoot_profile(kappa, xs):
    """Steady profile u at points ``xs`` in [0, pi/2] by Taylor shooting.

    Launches from (u, h u') = (0, h sqrt((1 - q^2) / 2) / kappa), the slope
    the orbit invariant dictates at u = 0, with q = 1 - N^2 from
    :func:`peak_complement_mp` and the square root by ``math.isqrt`` on exact
    rationals.  The march takes n = ceil((pi/2) / (0.44 kappa)) equal Taylor
    steps h = (pi/2) / n, well inside the series' convergence disk; since
    u'(pi/2) = 0, rounding n h to pi/2 moves the end value by O(ulp^2).  It
    runs on Python integers in fixed point: each step's series is carried as
    a_k h^k times 2^``SHOOT_BITS``, and the next step starts from (u, h u') =
    (sum a_k h^k, sum k a_k h^k).  The scaled terms are O(1) inside the
    convergence disk, so a fixed absolute precision holds at small kappa.
    The requested points are summed in double from each step's scaled
    series.  Returns the values and the peak gap |u(n h) - (1 - N)|, exact
    before its rounding to double.

    Raises :class:`ResolutionError` when that gap exceeds 1e-17 or an output
    is not finite: below kappa ~ 0.045 the launch round-off, amplified by
    ~1/(1-N), outgrows ``SHOOT_BITS`` bits.  A march that leaves the bounded
    orbits (|u| >= 2) stops there and misses by inf.  Points that are not a
    1-d array inside [0, pi/2], NaN among them, or a kappa
    :func:`peak_complement_mp` refuses, raise :class:`DomainError`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all((xs >= -1e-15) & (xs <= 0.5 * math.pi + 1e-15)):  # NaN fails both
        raise DomainError("domain error: shoot_profile expects a 1-d array of points inside [0, pi/2]")
    w = peak_complement_mp(kappa)
    q = w * (2 - w)
    n_steps = math.ceil(0.5 * math.pi / (0.44 * kappa))
    h = 0.5 * math.pi / n_steps
    r = Fraction(h) ** 2 / Fraction(kappa) ** 2
    one = 1 << SHOOT_BITS
    u, v = 0, math.isqrt(int(r * (1 - q * q) / 2 * one * one))  # h u'(0) = sqrt(r (1 - q^2) / 2)
    r_fixed = int(r * one)
    out = np.empty(xs.size)
    idx = np.argsort(xs)
    xs_sorted = xs[idx]
    pos = 0
    for step in range(n_steps):
        x = step * Fraction(h)
        x_hi = float(x)
        x_lo = float(x - Fraction(x_hi))  # Fraction - float would round to float first
        a = _scaled_taylor_coeffs(u, v, r_fixed, TAYLOR_ORDER, SHOOT_BITS)
        # evaluate the requested points inside [x, x+h]; the last step takes the rest
        stop = int(np.searchsorted(xs_sorted, x_hi + h + 1e-15, side="right"))
        stop = xs.size if step == n_steps - 1 else stop
        if stop > pos:
            # xs - x_hi is exact (Sterbenz, or x_hi = 0)
            t = ((xs_sorted[pos:stop] - x_hi) - x_lo) / h
            out[idx[pos:stop]] = np.polyval([ak / one for ak in reversed(a)], t)
            pos = stop
        u, v = sum(a), sum(k * ak for k, ak in enumerate(a))
        if abs(u) >= 2 * one:  # past the separatrix the integers grow without bound
            break
    gap = float(abs(Fraction(u, one) - (1 - w))) if abs(u) < 2 * one else math.inf
    if not (gap <= 1e-17 and np.all(np.isfinite(out))):
        raise ResolutionError(
            f"shooting at kappa={kappa} misses the peak value by {gap:.3e} "
            f"(limit 1e-17) in {SHOOT_BITS} bits"
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
    ODE holds no kappa, so every orbit takes the same s-step), and returns
    twice the gap between the first two zero crossings of u, upward or
    downward: (u, u') -> (-u, -u') maps each closed orbit onto itself, so
    one zero to the next is exactly half a period.  Each crossing is located
    on its step's polynomial by bisection and Newton, a downward one as the
    upward zero of the negated series.  A march that reaches |u| >= 2 stops:
    such an orbit is no closed one and crosses zero at most once.  Fewer
    than two crossings in t <= t_max raise :class:`WindowError`.  Non-finite
    data, a kappa or t_max that is not a positive finite number, or a t_max
    beyond ``RETURN_MAX_STEPS`` steps raise :class:`DomainError`.
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
        if abs(u_next) < 2 * one and (u <= 0 < u_next or u >= 0 > u_next):  # an escape closes no orbit
            # a downward zero is the upward zero of -u: negation is exact, so the same float steps
            tau = _upward_root([(ak if u_next > 0 else -ak) / one for ak in a])
            if (n + tau) * h > t_max:
                break
            crossings.append((n, tau))
            if len(crossings) == 2:
                break
        u = u_next
        n += 1
    if len(crossings) < 2:
        raise WindowError(
            f"window error: first-return oracle saw {len(crossings)} zero crossings in t <= {t_max}"
        )
    (n1, tau1), (n2, tau2) = crossings
    return 2.0 * ((n2 - n1) + (tau2 - tau1)) * h
