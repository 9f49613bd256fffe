"""Construction of the odd zero-up steady profile for 0 < kappa < 1.

The steady equation kappa^2 u'' + u - u^3 = 0 with u(0) = 0, u'(pi/2) = 0 and
u increasing on [0, pi/2] reduces to a quarter-period identity for the peak
value N = u(pi/2):

    g(N) = int_0^{pi/2} dtheta / sqrt(2 - N^2 (1 + sin^2 theta)) = pi / (2 sqrt(2) kappa),

after the substitution u = N sin(theta).  g is strictly increasing with
g(0) = pi/(2 sqrt 2) and g -> inf as N -> 1, so the peak value is unique.
The profile itself inverts the strictly increasing map

    x(theta) = sqrt(2) kappa * int_0^theta ...,   u = N sin(theta),

pointwise per grid node; working in the angle keeps the integrand bounded
and the inversion well conditioned all the way to the peak.

Two representation choices keep everything accurate deep into the small
kappa regime, where 1 - N is exponentially small:

* the complement w = 1 - N is tracked instead of N, and the integrand uses
  2 - N^2 (1 + sin^2) = cos^2 theta + q (1 + sin^2 theta) with q = w (2 - w),
  which never cancels;
* integrals run in the angle psi = pi/2 - theta measured from the peak,
  where they have the closed form (DLMF 19.25.5)

      x / (sqrt 2 kappa) = int_psi^{pi/2} dp / sqrt(sin^2 p + q (1 + cos^2 p))
          = cos(psi) R_F((1 + q) sin^2 psi, 2q + (1 - q) sin^2 psi, 1 + q)

  in Carlson's symmetric integral R_F, whose three arguments are sums of
  nonnegative terms and so never cancel, however small q is; g(N) is its
  value at psi = 0.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import elliprf

from .errors import ConstructionError, DomainError, ResolutionError
from .roots import find_root
from .spectral import (
    TorusField,
    TorusGrid,
    sine_transform,
    spectral_derivative,
)

G_AT_ZERO = math.pi / (2.0 * math.sqrt(2.0))

DEFAULT_N_POINTS = 2048
# transition layer width ~ sqrt(2) kappa; below this the default grid cannot
# resolve it and the residual check silently degrades
KAPPA_MIN_AT_DEFAULT = 0.03

RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-8  # spread allowed between the three energy forms
PEAK_RESIDUAL_TOL = 1e-12
PEAK_KAPPA_MIN = 0.015


def _scaled_position(psi, q):
    """x / (sqrt 2 kappa) of the node at peak angle ``psi``, elementwise."""
    s2 = np.sin(psi) ** 2
    return np.cos(psi) * elliprf((1.0 + q) * s2, 2.0 * q + (1.0 - q) * s2, 1.0 + q)


def _g_from_complement(w):
    # the scaled position of the peak, psi = 0
    q = w * (2.0 - w)
    return float(elliprf(0.0, 1.0 + q, 2.0 * q))


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
            f"construction failure: peak residual {residual:.3e} exceeds "
            f"{PEAK_RESIDUAL_TOL}",
            residual=residual,
        )
    peak = PeakValue(kappa=kappa, N=1.0 - w, residual=residual, complement=w)
    bounds = peak_bounds(peak)
    if bounds is not None and not bounds[0] < w < bounds[1]:
        raise ConstructionError(
            f"construction failure: 1-N = {w:.6e} escapes its two-sided bound "
            f"({bounds[0]:.6e}, {bounds[1]:.6e}) at kappa={kappa}"
        )
    return peak


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


def kappa_floor(grid: TorusGrid) -> float:
    return KAPPA_MIN_AT_DEFAULT * DEFAULT_N_POINTS / grid.n_points


def _solve_quarter_angles(x_targets, kappa, q, g_total):
    """Invert the profile map at each target x, returning peak angles psi.

    Solves _scaled_position(psi) = x/(sqrt 2 kappa) by Newton's method on
    all nodes at once; a per-node bracket [lo, hi] replaces any step that
    leaves it by bisection.  The residual is taken in the position itself,
    whose rounding shrinks with x and vanishes at the x = 0 seam; against
    the integral from the peak it would carry the rounding of g_total at
    every node, noise the spectral residual check amplifies by m^2.
    Convergence is measured through the effect on u = N cos(psi), which
    stays conditioned at the peak where the integrand blows up.
    """
    targets = x_targets / (math.sqrt(2.0) * kappa)
    lo = np.zeros(targets.size)
    hi = np.full(targets.size, 0.5 * math.pi)
    # the integrand is >= 1/sqrt(p^2 + 2q), so the integral from the peak
    # exceeds asinh(psi/sqrt(2q)) and this start is not left of the root
    psis = np.minimum(math.sqrt(2.0 * q) * np.sinh(g_total - targets), hi)
    active = np.arange(targets.size)
    for _ in range(80):
        psi = psis[active]
        s = np.sin(psi)
        den = s * s + q * (1.0 + np.cos(psi) ** 2)
        err = targets[active] - _scaled_position(psi, q)
        step = err * np.sqrt(den)
        dpsi = np.abs(step)
        lo_a, hi_a = lo[active], hi[active]
        # first-order effect on u in sin(psi) plus the curvature term that
        # dominates at the peak
        done = (s * dpsi + 0.5 * dpsi * dpsi <= 2e-15) | (hi_a - lo_a <= 4e-16)
        hi_a = np.where(err > 0.0, psi, hi_a)
        lo_a = np.where(err > 0.0, lo_a, psi)
        cand = psi - step
        outside = ~((lo_a < cand) & (cand < hi_a))
        # converged nodes still take their last Newton step, unbracketed: it
        # squares their error, which is otherwise independent from node to
        # node at up to 2e-15 in u, noise the residual check amplifies by m^2
        cand = np.where(outside & ~done, 0.5 * (lo_a + hi_a), cand)
        psis[active] = cand
        lo[active], hi[active] = lo_a, hi_a
        active = active[~done]
        if active.size == 0:
            return psis
    raise ConstructionError(
        f"construction failure: angle solve stalled at x={x_targets[active[0]]!r}"
    )


def build_ground_state(kappa, grid: TorusGrid | None = None):
    """Build the steady profile on ``grid`` by inverting the quarter-period map.

    The quarter profile on [0, pi/2] is extended to the torus by odd
    reflection about 0 and even reflection about pi/2 (the steady equation
    patches smoothly across both seams).  The profile is validated against
    the PDE residual in max norm; failure raises :class:`ConstructionError`
    with the residual profile attached, or :class:`ResolutionError` where the
    rounding floor kappa^2 (n/2)^2 eps of the spectral u'' is at least
    ``RESIDUAL_TOL / 4``, since there exact profiles fail the check too.
    """
    grid = grid if grid is not None else TorusGrid(DEFAULT_N_POINTS)
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"domain error: kappa={kappa!r} outside (0, 1)")
    floor = kappa_floor(grid)
    if kappa < floor:
        raise ResolutionError(
            f"resolution error: kappa={kappa} below {floor:.4g} at n_points="
            f"{grid.n_points}; increase n_points to resolve the transition layer"
        )
    peak = solve_peak(kappa)
    q, N = peak.q, peak.N
    g_total = _g_from_complement(peak.complement)

    n = grid.n_points
    i0, n4 = n // 2, n // 4
    x_quarter = grid.x[i0 : i0 + n4 + 1]
    psis = _solve_quarter_angles(x_quarter[1:-1], kappa, q, g_total)

    u_quarter = np.empty(n4 + 1)
    u_quarter[0] = 0.0
    u_quarter[1:-1] = N * np.cos(psis)
    u_quarter[-1] = N

    values = np.empty(n)
    values[i0 : i0 + n4 + 1] = u_quarter
    values[i0 + n4 + 1 :] = u_quarter[n4 - 1 : 0 : -1]  # even about pi/2
    values[0] = 0.0
    values[1:i0] = -values[n - 1 : i0 : -1]  # odd about 0

    field = TorusField(grid, values)
    spec = sine_transform(field)
    u_xx = spectral_derivative(spec, 2, grid).values
    residual_profile = kappa**2 * u_xx + values - values**3
    residual = float(np.max(np.abs(residual_profile)))
    if residual >= RESIDUAL_TOL:
        rounding_floor = kappa**2 * (n // 2) ** 2 * np.finfo(float).eps
        if rounding_floor >= 0.25 * RESIDUAL_TOL:
            raise ResolutionError(
                f"resolution error: PDE residual {residual:.3e} at kappa={kappa}, "
                f"n_points={n}: the rounding floor of u'' is {rounding_floor:.3e}"
            )
        raise ConstructionError(
            f"construction failure: PDE residual {residual:.3e} at kappa={kappa}, "
            f"n_points={n}",
            residual=residual_profile,
        )
    e = energy(field, kappa)
    return GroundState(
        kappa=kappa,
        peak=peak,
        field=field,
        energy=e,
        quarter_x=x_quarter.copy(),
        quarter_u=u_quarter,
        residual=residual,
    )


def energy(field: TorusField, kappa: float) -> float:
    """Double-well energy int (kappa^2/2 (u')^2 + (1-u^2)^2/4) dx on the torus.

    The derivative is spectral, so the field must be odd to ``ODD_TOL``;
    asymmetric input raises :class:`SymmetryError`.
    """
    if kappa <= 0.0:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive")
    v = field.values
    grid = field.grid
    du = spectral_derivative(sine_transform(field), 1, grid).values  # refuses non-odd v
    density = 0.5 * kappa**2 * du**2 + 0.25 * (1.0 - v**2) ** 2
    return float(grid.dx * np.sum(density))


@dataclass(frozen=True)
class EnergyIdentityReport:
    e_definition: float
    e_quartic: float
    e_profile_form: float
    max_discrepancy: float


def energy_identities(gs: GroundState) -> EnergyIdentityReport:
    """Evaluate the steady-profile energy three ways and compare.

    Definition, the quarter-integral of (1 - U^4), and the first-integral
    form int (1/2 (U^2-1)^2 - 1/4 (N^2-1)^2) dx must coincide; a discrepancy
    beyond ``IDENTITY_TOL`` raises :class:`IdentityError`.
    """
    from .errors import IdentityError

    v = gs.field.values
    dx = gs.field.grid.dx
    e_def = energy(gs.field, gs.kappa)
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
    return EnergyIdentityReport(e_def, e_quartic, e_profile, worst)


def kink_profile(kappa, x):
    """The infinite-line kink tanh(x / (sqrt 2 kappa)) sampled at ``x``."""
    return np.tanh(np.asarray(x, dtype=float) / (math.sqrt(2.0) * kappa))


def kink_comparison(gs: GroundState):
    """(sup |U - kink|, kink dominates pointwise) on the quarter interval.

    Domination is asserted with round-off slack 1e-12; near x = 0 the two
    profiles agree to below machine precision.
    """
    kink = kink_profile(gs.kappa, gs.quarter_x)
    diff = kink - gs.quarter_u
    return float(np.max(np.abs(diff))), bool(np.min(diff) >= -1e-12)
