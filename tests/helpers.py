"""Reference computations shared by the tests, independent of the library."""

import contextlib
import signal

import mpmath as mp
import numpy as np


def composite_simpson(f, a, b, n=1_000_000):
    """Composite Simpson rule with n+1 nodes (n even)."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time (Unix)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def fft_derivative(values):
    """u'(x_j) = sum_m m c_m cos(m x_j) of an odd field's samples, by ``np.fft``.

    c_m = (2/n) sum_j u(x_j) sin(m x_j) for m = 1..n/2 - 1; the grid
    x_j = -pi + 2 pi j / n starts at -pi, which gives mode m the sign (-1)^m.
    """
    n = values.size
    m = np.arange(1.0, n // 2)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    c = ((-2.0 / n) * sign) * np.fft.rfft(values)[1 : n // 2].imag
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1 : n // 2] = (0.5 * n * sign) * (m * c)
    return np.fft.irfft(spectrum, n)


def grid_energy(values, kappa):
    """int (kappa^2/2 (u')^2 + (1 - u^2)^2/4) dx as one sum over the grid of the density.

    The energy as the library took it before its gradient term went to
    Parseval: u' synthesized on the grid by the cosine series.
    """
    du = fft_derivative(values)
    density = 0.5 * kappa**2 * du**2 + 0.25 * (1.0 - values**2) ** 2
    return float((2.0 * np.pi / values.size) * np.sum(density))


def peak_complement_findroot(kappa, dps):
    """w = 1 - N at ``dps`` digits by ``mp.findroot`` (Anderson) on s = ln w over ``mp.agm``.

    The quarter-period identity R_F(0, 1+q, 2q) = pi / (2 AGM(sqrt(1+q),
    sqrt(2q))) = pi / (2 sqrt 2 kappa), q = w (2 - w), as the library's
    shooting oracle solved it before its integer solve (DLMF 19.8(i), 19.22(i)).
    """
    with mp.workdps(dps):
        target = mp.pi / (2 * mp.sqrt(2) * mp.mpf(kappa))

        def g_of_s(s):
            w = mp.e**s
            q = w * (2 - w)
            return mp.pi / (2 * mp.agm(mp.sqrt(1 + q), mp.sqrt(2 * q))) - target

        s = mp.findroot(g_of_s, (-2 * target - 8, mp.mpf(0)), solver="anderson",
                        tol=mp.mpf(10) ** (-2 * dps + 8))
        return mp.e**s


def mp_fraction(x):
    """The exact rational ``x`` as an mpf at the working precision."""
    return mp.mpf(x.numerator) / x.denominator


def window_ratios(times, mass, i, k):
    """m_j / (m_i^(1-l) m_k^l), l = (t_j - t_i) / (t_k - t_i), for every record i < j < k.

    The interpolation ratios of one window (t_i, t_k) as the library formed
    them one window at a time, before its sharp log-convexity test took all
    consecutive triples in one pass.
    """
    lam = (times[i + 1 : k] - times[i]) / (times[k] - times[i])
    return mass[i + 1 : k] / (mass[i] ** (1.0 - lam) * mass[k] ** lam)


def rate_fit_rows_reference(times, values, fit):
    """Rows (t, y, y_fit, relative residual) of a fitted decay, as the writer built them
    before the fit kept its samples: the window selected again from ``times`` and
    the curve rebuilt from the fit's prefactor, its value at the first selected
    sample for an exponential, and rate."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    lo, hi = fit.window
    sel = (t >= lo) & (t <= hi)
    t, y = t[sel], y[sel]
    if fit.model == "exponential":
        y_hat = fit.prefactor * np.exp(-fit.rate_or_exponent * (t - t[0]))
    else:
        y_hat = fit.prefactor * t ** (-fit.rate_or_exponent)
    return np.column_stack((t, y, y_hat, y_hat / y - 1.0))
