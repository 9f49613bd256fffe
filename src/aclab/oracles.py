"""Independent truth sources used by tests and the verification suites.

Nothing here shares code paths with the construction it checks: the peak
value is re-solved in mpmath through Gauss's arithmetic-geometric mean,
R_F(0, 1+q, 2q) = pi / (2 AGM(sqrt(1+q), sqrt(2q))), where the construction
evaluates scipy's double-precision Carlson R_F, and the steady profile is
re-derived by Taylor-series shooting of the second-order ODE in arbitrary
precision.  Plain double-precision shooting cannot serve as an oracle for
small kappa: the profile rides the saddle at u = 1 and initial-condition
round-off is amplified by ~1/(1-N), which reaches 1e9 already at kappa=0.1.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, ResolutionError, WindowError

SHOOT_DPS = 40  # working digits of the march
TAYLOR_ORDER = 50  # series terms per step


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


def _taylor_coeffs(u0, v0, kappa2, order):
    # recurrence for kappa^2 u'' = u^3 - u; b = u*u and c = u^3 grow with k
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


def _sum_scaled(a, h, t):
    # u(x + t h) for t in [0, 1] in double: each a_k h^k is O(1) inside the
    # convergence disk, so the float Horner pass neither overflows at small
    # kappa (where a_k grows like kappa^-k) nor loses more than a few ulps
    hm, hk, scaled = mp.mpf(h), mp.mpf(1), []
    for ak in a:
        scaled.append(float(ak * hk))
        hk *= hm
    return np.polyval(scaled[::-1], t)


def shoot_profile(kappa, xs):
    """Steady profile u at points ``xs`` in [0, pi/2] by Taylor shooting.

    Launches from (u, u') = (0, sqrt(1 - (1 - N^2)^2) / (sqrt 2 kappa)), the
    slope the orbit invariant dictates at u = 0, and marches fixed Taylor
    steps sized well inside the series' convergence disk, all in ``SHOOT_DPS``
    digits.  The requested points are summed in double from each step's
    series scaled to the step length.  Also returns the drift of the orbit
    invariant as an internal error estimate.

    Raises :class:`ResolutionError` when the march misses the peak value
    1 - N by more than 1e-17 or an output is not finite: below kappa ~ 0.045
    the launch round-off, amplified by ~1/(1-N), outgrows ``SHOOT_DPS`` digits.
    Points outside [0, pi/2] raise :class:`DomainError`.
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
        h_step = min(0.44 * float(kap), 0.3)
        u, v, x = mp.mpf(0), v0, mp.mpf(0)
        out = np.empty(xs.size)
        idx = np.argsort(xs)
        xs_sorted = xs[idx]
        pos = 0
        x_end = 0.5 * math.pi
        drift = mp.mpf(0)
        while True:
            x_hi = float(x)
            x_lo = float(x - x_hi)
            h = min(h_step, x_end - x_hi + 1e-18)
            a = _taylor_coeffs(u, v, kap**2, TAYLOR_ORDER)
            # evaluate any requested points inside [x, x+h]
            stop = int(np.searchsorted(xs_sorted, x_hi + h + 1e-15, side="right"))
            if stop > pos:
                # xs - x_hi is exact (Sterbenz, or x_hi = 0)
                t = ((xs_sorted[pos:stop] - x_hi) - x_lo) / h
                with np.errstate(over="ignore", invalid="ignore"):
                    out[idx[pos:stop]] = _sum_scaled(a, h, t)
                pos = stop
            if x_hi + h >= x_end - 1e-15:
                u, v = _horner2(a, mp.mpf(x_end) - x)
                break
            u, v = _horner2(a, mp.mpf(h))
            x += mp.mpf(h)
            drift = max(drift, abs(kap**2 * v**2 + u**2 - u**4 / 2 - c_init))
        gap = float(abs(u - (1 - w)))
        if not (gap <= 1e-17 and np.all(np.isfinite(out))):
            raise ResolutionError(
                f"shooting at kappa={kappa} misses the peak value by {gap:.3e} "
                f"(limit 1e-17) in {SHOOT_DPS} digits"
            )
        return out, {
            "invariant_drift": float(drift),
            "peak_value_gap": gap,
            "peak_slope": float(v),
        }


def first_return_period(u0, v0, kappa, t_max):
    """Minimal period of a closed steady-ODE orbit by event detection.

    Integrates kappa^2 u'' = u^3 - u from (u0, v0) and measures the gap
    between consecutive upward zero crossings of u, which closed orbits hit
    exactly once per period; the integration stops at the second one.
    Fewer than two crossings in ``t <= t_max`` raise :class:`WindowError`.
    """

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
