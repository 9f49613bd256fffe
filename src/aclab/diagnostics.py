"""Post-processing of evolution runs: diagnostic series, rate fits, convexity.

Every fit names its window, and a fit refuses signals within a factor 100
of the absolute floor 1e-13, where exponentially decaying quantities sit on
the round-off plateau and any fitted rate would be meaningless.  The theta
ODE oracle, the reduced modulation equation at kappa = 1, is integrated
here by fixed-step RK4 in log time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SignError, WindowError
from .spectral import SineSpectrum, _freeze, gradient_energy, sine_coeffs, sine_values

SIGNAL_FLOOR = 1e-13
MIN_FIT_POINTS = 20
PROFILE_WINDOWS = 4  # late sub-windows whose estimates extract_profile compares
THETA_STEPS_PER_UNIT = 400  # RK4 steps of theta_ode_oracle per unit of ln t


@dataclass(frozen=True)
class DiagnosticSeries:
    """Scalar time series recorded along one evolution run.

    ``mass`` is the squared L2 norm |u|_2^2; ``hi_mass`` is the (plain) L2
    norm of the tail sum_{m>=2} c_m sin(mx); ``linf`` is the grid max norm.
    ``energy`` is the functional the flow dissipates,
    kappa^2/2 pi sum m^2 c_m^2 + 1/4 int (1 - u^2)^2 dx.  Times must be
    strictly increasing, every sample finite and the mass nonnegative, or
    :class:`DomainError` is raised.  Each series is kept as a read-only copy.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    c1: np.ndarray
    hi_mass: np.ndarray
    linf: np.ndarray

    def __post_init__(self):
        names = ("times", "mass", "energy", "c1", "hi_mass", "linf")
        for name in names:
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        t = self.times
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("domain error: snapshot times must be strictly increasing")
        for name in names:
            arr = getattr(self, name)
            if arr.shape != t.shape:
                raise DomainError(f"domain error: series {name} length mismatch")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"domain error: series {name} has non-finite samples")
        if np.any(self.mass < 0.0):
            raise DomainError("domain error: mass must be nonnegative")


def spectra_series(spectra, kappa, n_pad):
    """The :class:`DiagnosticSeries` fields but ``times`` of the (records, M) spectra.

    The energy and the max norm are evaluated on the ``n_pad``-point grid,
    where the quartic integral is exact for n_pad > 4M.  A finite record
    too large for its series (u^4 overflows first) leaves non-finite
    samples, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sum_sq = np.sum(spectra * spectra, axis=-1)
        u = sine_values(spectra, n_pad)
        linf = np.maximum(np.max(u, axis=-1), -np.min(u, axis=-1))
        u *= u  # u^4 in place: the padded grid is the largest array here
        u *= u
        int_u4 = (2.0 * np.pi / n_pad) * np.sum(u, axis=-1)
        grad = gradient_energy(spectra, kappa)
        return {
            "mass": np.pi * sum_sq,
            "energy": grad + 0.25 * (2.0 * np.pi - 2.0 * np.pi * sum_sq + int_u4),
            "c1": spectra[:, 0],
            "hi_mass": np.sqrt(np.pi * np.sum(spectra[:, 1:] ** 2, axis=-1)),
            "linf": linf,
        }


@dataclass(frozen=True)
class RateFit:
    window: tuple
    model: str
    rate_or_exponent: float
    prefactor: float
    residual: float
    rejected: bool
    t: np.ndarray  # t, y: the samples fitted; y_fit: the curve of the parameters at t
    y: np.ndarray
    y_fit: np.ndarray


def _select(t, window):
    lo, hi = window
    return lo, hi, (t >= lo) & (t <= hi)


def fit_rate(times, values, model, window) -> RateFit:
    """Least-squares decay fit on the samples with lo <= t <= hi, window = (lo, hi).

    ``exponential`` regresses ln y on t - t0, t0 the first sample in the
    window (rate = -slope), so its prefactor is the curve's value at the
    window's start and stays finite far from t = 0; ``algebraic`` regresses
    ln y on ln t (exponent = -slope) over the samples with t > 0.  The fit
    keeps its samples as read-only ``t``, ``y`` and its curve there as
    ``y_fit``, prefactor exp(-rate (t - t0)) or prefactor t^(-exponent);
    ``residual`` is max |y_fit / y - 1|, and fits with residual > 0.1 (or
    nan) are flagged rejected rather than silently returned.  A non-finite
    time or value, or a different number of values than times, raises
    :class:`DomainError`.
    """
    if model not in ("exponential", "algebraic"):
        raise DomainError(f"domain error: unknown model {model!r}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape:
        raise DomainError(
            f"domain error: fit_rate length mismatch, {y.shape} values for {t.shape} times"
        )
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise DomainError("domain error: fit_rate needs finite times and values")
    lo, hi, sel = _select(t, window)
    if model == "algebraic":
        sel &= t > 0.0
    t_w, y_w = t[sel], y[sel]
    if t_w.size < MIN_FIT_POINTS:
        raise WindowError(
            f"window error: need >= {MIN_FIT_POINTS} points in [{lo}, {hi}], got {t_w.size}"
        )
    if np.any(y_w <= 0.0):
        raise DomainError("domain error: values must be positive on the window")
    if float(np.min(y_w)) < 100.0 * SIGNAL_FLOOR:
        raise WindowError(
            f"window error: signal reaches {np.min(y_w):.2e}, within 100x of the "
            f"round-off floor {SIGNAL_FLOOR}"
        )
    exponential = model == "exponential"
    x = t_w - t_w[0] if exponential else np.log(t_w)
    slope, intercept = np.polyfit(x, np.log(y_w), 1)
    rate, prefactor = float(-slope), float(np.exp(intercept))
    y_fit = prefactor * (np.exp(-rate * x) if exponential else t_w ** (-rate))
    residual = float(np.max(np.abs(y_fit / y_w - 1.0)))
    return RateFit(
        window=(float(lo), float(hi)),
        model=model,
        rate_or_exponent=rate,
        prefactor=prefactor,
        residual=residual,
        rejected=not residual <= 0.1,
        t=_freeze(t_w), y=_freeze(y_w), y_fit=_freeze(y_fit),
    )


@dataclass(frozen=True)
class ProfileEstimate:
    value: float
    stability: float
    zero_mode: bool


def extract_profile(series: DiagnosticSeries, window) -> ProfileEstimate:
    """Late-time first-mode amplitude beta of the kappa = 1 decay c1 ~ beta / sqrt(t).

    Only the records with lo <= t <= hi, window = (lo, hi), count.  The
    squared compensated amplitude c1(t)^2 t is extrapolated linearly in 1/t
    per late sub-window (its remainder is O(1/t)).  ``stability`` is the
    spread of the sub-window estimates; a first mode at round-off level is
    reported as the zero profile.
    """
    t = series.times
    lo, hi, sel = _select(t, window)
    t_w = t[sel]
    c1_w = series.c1[sel]
    if t_w.size < PROFILE_WINDOWS * 5:
        raise WindowError(
            f"window error: need >= {PROFILE_WINDOWS * 5} points in [{lo}, {hi}], got {t_w.size}"
        )
    if float(np.max(np.abs(c1_w))) < SIGNAL_FLOOR:
        return ProfileEstimate(value=0.0, stability=0.0, zero_mode=True)

    edges = np.linspace(lo, hi, PROFILE_WINDOWS + 1)
    estimates = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (t_w >= a) & (t_w <= b)
        tt, cc = t_w[m], c1_w[m]
        if tt.size < 3:
            raise WindowError("window error: sub-window too thin for extraction")
        _, intercept = np.polyfit(1.0 / tt, cc**2 * tt, 1)
        sign = 1.0 if np.mean(cc) >= 0.0 else -1.0
        estimates.append(sign * math.sqrt(max(float(intercept), 0.0)))
    spread = float(np.max(estimates) - np.min(estimates))
    return ProfileEstimate(value=float(estimates[-1]), stability=spread, zero_mode=False)


@dataclass(frozen=True)
class LogConvexityReport:
    t1: float
    t2: float
    worst_ratio: float
    passed: bool


def check_log_convexity(series: DiagnosticSeries) -> LogConvexityReport:
    """Sharp test m(t) <= m(t1)^(1-l) m(t2)^l over all recorded t1 < t < t2, in one pass.

    By the three-chord lemma only consecutive triples need the test: r_i =
    m_(i+1) / (m_i^(1-l) m_(i+2)^l), l = (t_(i+1) - t_i) / (t_(i+2) - t_i).
    The first largest r_i is reported with its window (t_i, t_(i+2)); it
    passes up to relative round-off slack 1e-12, so the log-linear equality
    case passes.  Fewer than three records raise :class:`WindowError`, a
    mass not positive at every record :class:`DomainError`.
    """
    t = series.times
    m = series.mass
    if t.size < 3:
        raise WindowError(f"window error: need >= 3 records, got {t.size}")
    if np.any(m <= 0.0):
        raise DomainError("domain error: mass must be positive at every record")
    lam = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
    ratios = m[1:-1] / (m[:-2] ** (1.0 - lam) * m[2:] ** lam)
    i = int(np.argmax(ratios))
    r = float(ratios[i])
    return LogConvexityReport(t1=float(t[i]), t2=float(t[i + 2]), worst_ratio=r, passed=r <= 1.0 + 1e-12)


@dataclass(frozen=True)
class Eta0Report:
    lhs: float
    rhs: float
    ratio: float


def check_eta0_inequality(spec: SineSpectrum) -> Eta0Report:
    """Evaluate int u^3 L u dx, L = -d_xx, against eta0 |u|_4^4 with eta0 = 3/4.

    ``ratio`` is lhs / |u|_4^4; the inequality holds when it is at least 3/4.
    """
    c = spec.coeffs
    M = c.size
    n_pad = 16
    while n_pad < 8 * M:
        n_pad *= 2
    u = sine_values(c, n_pad)
    d = sine_coeffs(u**3, M)  # alias-free: 3M < n_pad/2
    lhs = float(np.pi * np.sum(d * np.arange(1.0, M + 1) ** 2 * c))
    l4 = float((2.0 * np.pi / n_pad) * np.sum(u**4))
    return Eta0Report(lhs=lhs, rhs=0.75 * l4, ratio=lhs / l4 if l4 > 0.0 else math.inf)


@dataclass(frozen=True)
class ThetaFit:
    theta_star: float
    remainder_bound: float
    t_end: float
    theta_end: float
    evaluate: object  # dense solution, callable t -> theta


def theta_ode_oracle(theta0, t0, forcing, t_end) -> ThetaFit:
    """Integrate theta' = -(3/2) theta^2 + F(t) and extract the 1/t level.

    The march runs on phi = t theta in s = ln t, where the equation reads
    phi' = phi - (3/2) phi^2 + t^2 F(t) and the 1/t level is a fixed point:
    classical RK4 with ``THETA_STEPS_PER_UNIT`` equal steps per unit of ln t,
    and cubic Hermite dense output between the steps (Hairer, Norsett &
    Wanner, Solving ODEs I, II.6) behind ``evaluate``.  ``theta_star`` is
    the limit of t*theta(t), estimated by a linear fit in 1/t over the last
    decade (the remainder of t*theta is O(1/t)); the remainder bound reports
    sup |theta - theta_star/t| * t^2 / ln t there.  The map must keep theta
    in [0, inf): a step that ends with phi < 0 raises SignError.  Non-finite
    data or forcing samples t^2 F(t) (an overflow included), t0 < 3,
    theta0 < 0, t_end <= 2 t0, or a phi beyond the step's stable range
    (phi > ``THETA_STEPS_PER_UNIT`` / 3) raise DomainError.
    """
    if not all(map(math.isfinite, (theta0, t0, t_end))):
        raise DomainError(f"domain error: theta_ode_oracle needs finite data, got "
                          f"theta0={theta0!r}, t0={t0!r}, t_end={t_end!r}")
    if t0 < 3.0:
        raise DomainError(f"domain error: need t0 >= 3, got {t0}")
    if theta0 < 0.0:
        raise DomainError(f"domain error: need theta0 >= 0, got {theta0}")
    if t_end <= t0 * 2.0:
        raise DomainError("domain error: t_end must exceed 2*t0")
    phi_max = THETA_STEPS_PER_UNIT / 3.0  # keeps ds * 3 phi, the stiffness, at most 1
    if t0 * theta0 > phi_max:
        raise DomainError(f"domain error: t0*theta0 = {t0 * theta0!r} is beyond {phi_max:.4g}, "
                          "where the fixed log-time step is stiff")
    s0 = math.log(t0)
    n = math.ceil(THETA_STEPS_PER_UNIT * (math.log(t_end) - s0))
    ds = (math.log(t_end) - s0) / n
    # t^2 F(t) at the nodes and midpoints s0 + j ds / 2
    ts = np.exp(s0 + 0.5 * ds * np.arange(2 * n + 1)).tolist()
    g = [0.0] * len(ts) if forcing is None else [t * (t * forcing(t)) for t in ts]
    phi = np.empty(n + 1)
    dphi = np.empty(n + 1)
    p = phi[0] = t0 * theta0
    half = 0.5 * ds
    for i in range(n):
        g0, g1, g2 = g[2 * i], g[2 * i + 1], g[2 * i + 2]
        k1 = p - 1.5 * p * p + g0
        q = p + half * k1
        k2 = q - 1.5 * q * q + g1
        q = p + half * k2
        k3 = q - 1.5 * q * q + g1
        q = p + ds * k3
        k4 = q - 1.5 * q * q + g2
        dphi[i] = k1
        p = p + ds / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if not 0.0 <= p <= phi_max:
            t = ts[2 * i + 2]
            if not all(map(math.isfinite, (g0, g1, g2))):
                raise DomainError(f"domain error: the forcing gives t^2 F(t) = {(g0, g1, g2)!r} "
                                  f"on the step ending at t = {t:.6g}, not all finite")
            if p < 0.0:
                raise SignError(f"sign error: theta left [0, inf) at t = {t:.6g}")
            raise DomainError(f"domain error: t*theta = {p!r} at t = {t:.6g} is beyond "
                              f"{phi_max:.4g}, where the fixed log-time step is stiff")
        phi[i + 1] = p
    dphi[n] = p - 1.5 * p * p + g[2 * n]

    def phi_at(t):
        # cubic Hermite on the step that holds s = ln t
        x = (np.log(t) - s0) / ds
        i = np.clip(np.floor(x).astype(int), 0, n - 1)
        u = x - i
        return (phi[i] * (1.0 + u * u * (2.0 * u - 3.0))
                + phi[i + 1] * (u * u * (3.0 - 2.0 * u))
                + ds * u * (1.0 - u) * (dphi[i] * (1.0 - u) - dphi[i + 1] * u))

    tf = np.geomspace(t_end / 10.0, t_end, 200)
    phi_f = phi_at(tf)
    slope, intercept = np.polyfit(t_end / tf, phi_f, 1)  # linear in 1/t, scaled to [1, 10]
    theta_star = float(intercept)
    remainder = float(np.max(np.abs(phi_f - theta_star) * tf / np.log(tf)))
    return ThetaFit(
        theta_star=theta_star,
        remainder_bound=remainder,
        t_end=float(t_end),
        theta_end=float(phi[n] / t_end),
        evaluate=lambda t: float(phi_at(t) / t),
    )
