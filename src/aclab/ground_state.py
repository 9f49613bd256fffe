"""Construction of the odd zero-up steady profile for 0 < kappa < 1.

The steady equation kappa^2 u'' + u - u^3 = 0 with u(0) = 0, u'(pi/2) = 0 and
u increasing on [0, pi/2] reduces to a quarter-period identity for the peak
value N = u(pi/2):

    g(N) = int_0^{pi/2} dtheta / sqrt(2 - N^2 (1 + sin^2 theta)) = pi / (2 sqrt(2) kappa),

after the substitution u = N sin(theta).  g is strictly increasing with
g(0) = pi/(2 sqrt 2) and g -> inf as N -> 1, so the peak value is unique.

Deep in the small kappa regime 1 - N is exponentially small, so the
complement w = 1 - N is tracked instead of N, and both closed forms below are
written in q = w (2 - w) = 1 - N^2, which never cancels:

* g(N) = R_F(0, 1 + q, 2q) = pi / (2 AGM(sqrt(1 + q), sqrt(2q))) (DLMF
  19.25.5, 19.8(i)), whose starting pair never cancels however small q is;
* the profile is a Jacobi sn, since sn'' = -(1 + k^2) sn + 2 k^2 sn^3:

      u(x) = N sn(z | k),   z = x sqrt((1 + q) / 2) / kappa,
      k'^2 = 1 - k^2 = 2q / (1 + q),

  evaluated as N sin(am(z | k)) by the same AGM, started from k' (DLMF
  22.20(ii)).  The peak x = pi/2 is the quarter period
  z = K(k) = sqrt(1 + q) g(N).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, IdentityError, ResolutionError
from .roots import find_root
from .spectral import TorusField, TorusGrid, gradient_energy, sine_transform, sine_values

G_AT_ZERO = math.pi / (2.0 * math.sqrt(2.0))

DEFAULT_N_POINTS = 2048

RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-8  # spread allowed between the three energy forms
PEAK_RESIDUAL_TOL = 1e-12
PEAK_KAPPA_MIN = 0.015
_EPS = np.finfo(float).eps


def _agm(a, b):
    """Gauss's AGM of a >= b > 0, with the ratios c_n / a_n of its steps.

    c_n = (a_{n-1} - b_{n-1}) / 2 is taken as a difference, not as
    c_{n-1}^2 / (4 a_n), which would start from a rounded c_0.
    """
    ratios = []
    while True:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        ratios.append(c / a)
        if c <= _EPS * a:
            return a, ratios


def _g_from_complement(w):
    # g(1 - w) = R_F(0, 1 + q, 2q), with q = 1 - N^2 free of cancellation
    q = w * (2.0 - w)
    return 0.5 * math.pi / _agm(math.sqrt(1.0 + q), math.sqrt(2.0 * q))[0]


def eval_g(N):
    """Quarter-period integral g(N); strictly increasing, g(0) = pi/(2 sqrt 2)."""
    if not 0.0 <= N < 1.0:
        raise DomainError(f"domain error: need 0 <= N < 1, got N={N!r}")
    return _g_from_complement(1.0 - N)


@dataclass(frozen=True)
class PeakValue:
    """Peak of the steady profile: g(N) = pi/(2 sqrt 2 kappa).

    ``complement`` stores 1 - N to full relative precision; downstream
    formulas use it wherever 1 - N^2 would cancel.
    """

    kappa: float
    N: float
    residual: float
    complement: float

    @property
    def q(self):
        """1 - N^2, cancellation-free."""
        return self.complement * (2.0 - self.complement)


def peak_bounds(peak: PeakValue):
    """Two-sided bound on 1 - N, valid for N > sqrt(2/3).

    Returns (lower, upper) with lower < 1 - N < upper, or None when the
    peak is below the bound's domain.
    """
    N = peak.N
    if N <= math.sqrt(2.0 / 3.0):
        return None
    kappa = peak.kappa
    base = N * N / (2.0 + 2.0 * N)
    lower = base * math.exp(-N * math.pi / kappa)
    upper = base * math.exp(2.0 * math.sqrt(2.0) - 2.0 * N / kappa)
    return lower, upper


def solve_peak(kappa):
    """Solve the quarter-period identity for the unique peak value.

    The root is located in s = ln(1 - N), where the identity is nearly
    affine (g ~ ln 2 - s/2 as s -> -inf), then certified by re-evaluating g.
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"domain error: kappa={kappa!r} outside (0, 1)")
    if kappa < PEAK_KAPPA_MIN:
        # the supported range, not a precision limit: the closed form holds
        # until q = w (2 - w) underflows near kappa = 0.003, but nothing below
        # this floor is tested (1 - N is 1.9e-64 at the floor)
        raise DomainError(
            f"domain error: kappa={kappa} below the peak-solve floor {PEAK_KAPPA_MIN}"
        )
    target = G_AT_ZERO / kappa

    def f(s):
        return _g_from_complement(math.exp(s)) - target

    s_lo = -2.0 * target - 8.0  # g there exceeds the target for any kappa
    # g is exact to rounding, so stop only a few ulps from the target
    root = find_root(f, s_lo, 0.0, ftol=1e-15 * target, xtol=1e-13)
    w = math.exp(root)
    residual = abs(_g_from_complement(w) - target)
    if residual > PEAK_RESIDUAL_TOL:
        raise ConstructionError(
            f"construction failure: peak residual {residual:.3e} exceeds {PEAK_RESIDUAL_TOL}"
        )
    peak = PeakValue(kappa=kappa, N=1.0 - w, residual=residual, complement=w)
    bounds = peak_bounds(peak)
    if bounds is not None and not bounds[0] < w < bounds[1]:
        raise ConstructionError(
            f"construction failure: 1-N = {w:.6e} escapes its two-sided bound "
            f"({bounds[0]:.6e}, {bounds[1]:.6e}) at kappa={kappa}"
        )
    return peak


def band_edges(peak: PeakValue):
    """The five band edges of the linearization -kappa^2 d^2/dx^2 + 3U^2 - 1 about the profile.

    In z it is ((1 + q)/2)(-d^2/dz^2 + 6 k^2 sn^2 z) - 1, the degree-2 Lame
    operator (Arscott 1964, ch. IX; DLMF 29.12), whose 2pi-periodic edges in
    q = 1 - N^2 are, ascending: 1 - sqrt(1 + 3q^2) < 0 (sn^2 - c, even in x),
    0 (cn dn, the profile's derivative), (3/2)(1 - q) (sn dn, odd),
    (3/2)(1 + q) (sn cn, odd) and 1 + sqrt(1 + 3q^2) (sn^2 - c, even).
    """
    q = peak.q
    root = math.sqrt(1.0 + 3.0 * q * q)
    # 1 - root as -3q^2 / (1 + root), which keeps the Morse eigenvalue where 3q^2 < eps
    return (-3.0 * q * q / (1.0 + root), 0.0, 1.5 * (1.0 - q), 1.5 * (1.0 + q), 1.0 + root)


@dataclass(frozen=True)
class GroundState:
    """Odd zero-up steady profile with its peak, energy, and tabulation."""

    kappa: float
    peak: PeakValue
    field: TorusField
    energy: float
    quarter_x: np.ndarray
    quarter_u: np.ndarray
    residual: float


def _jacobi_amplitude(z, k_complement):
    """Jacobi amplitude am(z | k) by the descending AGM (DLMF 22.20(ii)).

    The AGM starts from a_0 = 1, b_0 = k' rather than from m = k^2, which
    rounds to 1 long before k' is negligible; a rounded c_0 = k would put sn
    up to 20 ulps off at small kappa.  The backward arcsin recurrence runs on
    all of ``z`` at once.
    """
    a, ratios = _agm(1.0, k_complement)
    phi = 2.0 ** len(ratios) * a * z
    for r in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    return phi


def build_ground_state(kappa, grid: TorusGrid | None = None):
    """Build the steady profile on ``grid`` from its closed form N sn(z | k).

    The quarter profile on [0, pi/2] is extended to the torus by odd
    reflection about 0 and even reflection about pi/2 (the steady equation
    patches smoothly across both seams).  The profile is exact to rounding,
    so its PDE residual in max norm is the only resolution test: a residual
    of ``RESIDUAL_TOL`` or more raises :class:`ResolutionError`, whether the
    grid is too coarse for the transition layer of width ~ sqrt(2) kappa or
    the rounding floor kappa^2 (n/2)^2 eps of the spectral u'' is too high.
    """
    grid = grid if grid is not None else TorusGrid(DEFAULT_N_POINTS)
    peak = solve_peak(kappa)
    q = peak.q

    n = grid.n_points
    i0, n4 = n // 2, n // 4
    x_quarter = grid.x[i0 : i0 + n4 + 1].copy()
    x_quarter.flags.writeable = False
    z = x_quarter * math.sqrt(0.5 * (1.0 + q)) / kappa
    u_quarter = peak.N * np.sin(_jacobi_amplitude(z, math.sqrt(2.0 * q / (1.0 + q))))

    values = np.empty(n)
    values[i0 : i0 + n4 + 1] = u_quarter
    values[i0 + n4 + 1 :] = u_quarter[n4 - 1 : 0 : -1]  # even about pi/2
    values[0] = 0.0
    values[1:i0] = -values[n - 1 : i0 : -1]  # odd about 0

    field = TorusField(grid, values)
    c = sine_transform(field).coeffs
    m = np.arange(1.0, c.size + 1)
    u_xx = sine_values(-(m * m) * c, n)
    residual = float(np.max(np.abs(kappa**2 * u_xx + values - values**3)))
    if residual >= RESIDUAL_TOL:
        rounding_floor = kappa**2 * (n // 2) ** 2 * _EPS
        raise ResolutionError(
            f"resolution error: PDE residual {residual:.3e} at kappa={kappa}, "
            f"n_points={n}: the rounding floor of u'' is {rounding_floor:.3e}"
        )
    return GroundState(
        kappa=kappa,
        peak=peak,
        field=field,
        energy=energy(field, kappa),
        quarter_x=x_quarter,
        quarter_u=field.values[i0 : i0 + n4 + 1],
        residual=residual,
    )


def energy(field: TorusField, kappa: float) -> float:
    """Double-well energy int (kappa^2/2 (u')^2 + (1-u^2)^2/4) dx on the torus.

    The gradient term is :func:`~aclab.spectral.gradient_energy` of the
    field's sine spectrum, the one trajectories record, and the quartic term
    a grid sum.  The field must be odd to ``ODD_TOL``; asymmetric input
    raises :class:`SymmetryError`.  A kappa that is not positive with a
    finite square raises :class:`DomainError`.
    """
    if not (0.0 < kappa and kappa * kappa < math.inf):
        raise DomainError(f"domain error: kappa={kappa!r} must be positive with a finite square")
    c = sine_transform(field).coeffs  # refuses non-odd
    quartic = 0.25 * field.grid.dx * np.sum((1.0 - field.values**2) ** 2)
    return float(gradient_energy(c, kappa) + quartic)


def energy_identities(gs: GroundState) -> float:
    """The largest pairwise gap between three forms of the steady-profile energy.

    Definition, the quarter-integral of (1 - U^4), and the first-integral
    form int (1/2 (U^2-1)^2 - 1/4 (N^2-1)^2) dx must coincide; a discrepancy
    beyond ``IDENTITY_TOL`` raises :class:`IdentityError`.
    """
    v = gs.field.values
    dx = gs.field.grid.dx
    e_def = gs.energy  # the build evaluates the definition on this field
    # integrand even about 0 and symmetric about pi/2: quarter integral = full/4
    e_quartic = 0.25 * dx * float(np.sum(1.0 - v**4))
    q = gs.peak.q
    e_profile = dx * float(np.sum(0.5 * (v**2 - 1.0) ** 2 - 0.25 * q * q))
    worst = max(
        abs(e_def - e_quartic), abs(e_def - e_profile), abs(e_quartic - e_profile)
    )
    if worst > IDENTITY_TOL:
        raise IdentityError(
            f"identity violation: energy forms disagree by {worst:.3e} at "
            f"kappa={gs.kappa}"
        )
    return worst


def kink_profile(kappa, x):
    """The infinite-line kink tanh(x / (sqrt 2 kappa)) at ``x``, for kappa positive and finite.

    For a tiny kappa the argument overflows to +-inf away from x = 0, where
    tanh gives the +-1 step the kink is at that scale.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive and finite")
    with np.errstate(over="ignore"):
        return np.tanh(np.asarray(x, dtype=float) / (math.sqrt(2.0) * kappa))
