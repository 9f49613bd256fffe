"""Catalog of 2*pi-periodic steady states and orbit classification.

For 1/(m+1) <= kappa < 1/m there are exactly m odd zero-up steady states;
the j-th is the ground profile of diffusion j*kappa compressed j-fold,
u_j(x) = U_{j kappa}(j x), with energy equal to the j*kappa ground energy.

Orbits of the steady ODE kappa^2 u'' + u - u^3 = 0 are classified by the
conserved quantity C = kappa^2 (u')^2 + u^2 - u^4/2: bounded solutions are
unbounded-impossible for C > 1/2, heteroclinic or constant at C = 1/2,
periodic for 0 < C < 1/2, and zero at C = 0.  Initial data with
0 < C < 1/2 but u0^2 >= 1 + sqrt(1 - 2C) sits on the outer branch of the
level set and escapes; such points are reported unbounded even though C
alone would say periodic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .ground_state import DEFAULT_N_POINTS, GroundState, build_ground_state, energy, eval_g
from .spectral import TorusField, TorusGrid, _require_room, sine_coeffs

C_BOUNDARY_TOL = 1e-12
C_NEAR_BOUNDARY = 1e-8


def count_states(kappa):
    """Number of nontrivial steady states: the j >= 1 with j * kappa < 1 in floating point,
    the product ``build_catalog`` forms, so m with 1/(m+1) <= kappa < 1/m."""
    if not (kappa > 0.0 and 1.0 / kappa < math.inf):
        raise DomainError(f"domain error: need kappa > 0 with a finite reciprocal, got {kappa!r}")
    m = math.floor(1.0 / kappa)  # never below the count: j kappa < 1 needs j < 1/kappa
    while m * kappa >= 1.0:
        m = math.floor(math.nextafter(m, 0.0))  # m - 1, or past 2^53 the next double down
    return m


@dataclass(frozen=True)
class SteadyReplica:
    j: int
    field: TorusField
    energy: float
    period: float


@dataclass(frozen=True)
class SteadyCatalog:
    kappa: float
    m: int
    replicas: tuple


def build_catalog(kappa, grid: TorusGrid | None = None, ground_state=None) -> SteadyCatalog:
    """All odd zero-up steady states at ``kappa`` on ``grid``.

    Each replica is sampled by exact index remapping of the j*kappa ground
    profile (j*x lands back on grid nodes), and its energy is recomputed
    from its own samples rather than inherited, so the replica energy
    identity stays a checkable fact downstream.  ``ground_state(j * kappa,
    grid)`` gives each profile, :func:`build_ground_state` unless a caller
    that keeps the profiles it built passes its own lookup.
    """
    ground_state = ground_state or build_ground_state  # looked up per call, not bound at def
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"domain error: kappa={kappa!r} outside (0, 1)")
    grid = grid if grid is not None else TorusGrid(DEFAULT_N_POINTS)
    m = count_states(kappa)
    n = grid.n_points
    replicas = []
    for j in range(1, m + 1):
        try:
            gs = ground_state(j * kappa, grid)
        except ResolutionError as exc:
            raise ResolutionError(f"resolution error at replica j={j}: {exc}") from exc
        idx = (j * np.arange(n) - (j - 1) * (n // 2)) % n
        field = TorusField(grid, gs.field.values[idx])
        replicas.append(
            SteadyReplica(
                j=j,
                field=field,
                energy=energy(field, kappa),
                period=2.0 * math.pi / j,
            )
        )
    return SteadyCatalog(kappa=kappa, m=m, replicas=tuple(replicas))


KIND_UNBOUNDED = "unbounded"
KIND_HETEROCLINIC = "heteroclinic_or_constant"
KIND_PERIODIC = "periodic"
KIND_ZERO = "zero"


@dataclass(frozen=True)
class OrbitClass:
    C: float
    kind: str
    period: float | None
    amplitude: float | None
    near_boundary: bool


def orbit_invariant(u0, v0, kappa):
    # products, not **: a float power overflows with an exception, a product to inf
    return (kappa * kappa) * (v0 * v0) + u0 * u0 - 0.5 * ((u0 * u0) * (u0 * u0))


def classify_orbit(u0, v0, kappa) -> OrbitClass:
    """Classify the steady-ODE orbit through (u0, v0) by its invariant C.

    Boundary cases use tolerance 1e-12 on C; orbits within 1e-8 of a
    boundary keep their open-interval class but carry ``near_boundary``,
    since the classification is discontinuous there.  A kappa whose square
    is not finite, or a non-finite C, raises :class:`DomainError`.
    """
    if not (0.0 < kappa and kappa * kappa < math.inf):
        raise DomainError(f"domain error: kappa={kappa!r} must be positive with a finite square")
    C = orbit_invariant(u0, v0, kappa)
    if not math.isfinite(C):
        raise DomainError(f"domain error: orbit invariant C={C!r} is not finite")
    near = C_BOUNDARY_TOL < min(abs(C), abs(C - 0.5)) <= C_NEAR_BOUNDARY

    # negative C forces u0^2 >= 2, the escaping region, as does C > 1/2
    kind, period, amplitude = KIND_UNBOUNDED, None, None
    if abs(C) <= C_BOUNDARY_TOL:
        if abs(u0) < 1.0:
            kind = KIND_ZERO
    elif abs(C - 0.5) <= C_BOUNDARY_TOL:
        if abs(u0) <= 1.0 + C_BOUNDARY_TOL:
            kind = KIND_HETEROCLINIC
    elif 0.0 < C < 0.5:
        # the inner branch is periodic, the outer branch escapes
        amp2 = 2.0 * C / (1.0 + math.sqrt(1.0 - 2.0 * C))
        if u0 * u0 <= amp2 * (1.0 + 1e-9):
            kind, period, amplitude = KIND_PERIODIC, minimal_period(C, kappa), math.sqrt(amp2)
    return OrbitClass(C=C, kind=kind, period=period, amplitude=amplitude, near_boundary=near)


def minimal_period(C, kappa):
    """Minimal period of the periodic orbit with invariant C in (0, 1/2)."""
    if not 0.0 < C < 0.5:
        raise DomainError(f"domain error: need 0 < C < 1/2, got C={C!r}")
    if not 0.0 < kappa < math.inf:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive and finite")
    amp = math.sqrt(2.0 * C / (1.0 + math.sqrt(1.0 - 2.0 * C)))
    period = 4.0 * math.sqrt(2.0) * kappa * eval_g(amp)
    if period == math.inf:
        raise DomainError(f"domain error: the period at kappa={kappa!r} overflows")
    return period


def linearization_blocks(field: TorusField, kappa, M=256):
    """Lowest Rayleigh quotient of each block of the quadratic form about ``field``.

    Assembles phi -> int kappa^2 (phi')^2 + (3 field^2 - 1) phi^2 in the
    sine basis sin(mx), m = 1..M, relative to the L2 Gram.  Where
    3 field^2 - 1 has period pi (about every ground state and replica) the
    form couples m only with k of m's parity, and the result is the pair of
    minima of the odd-m and the even-m block; any other field gives one
    minimum over all M modes.  A kappa that is not positive with a finite
    square, an M that is not an integer, or more modes than the grid holds
    raises :class:`DomainError`.
    """
    if not (0.0 < kappa and kappa * kappa < math.inf):
        raise DomainError(f"domain error: kappa={kappa!r} must be positive with a finite square")
    if not isinstance(M, (int, np.integer)) or M < 64:
        raise DomainError(f"domain error: need an integer M >= 64, got M={M!r}")
    n = field.grid.n_points
    _require_room(M, n)
    # int w sin(mx) sin(kx) dx = (pi/2)(a_|m-k| - a_(m+k)) for the cosine
    # coefficients a_l of w = 3 field^2 - 1, on the grid a_l = a_(n-l)
    a = sine_coeffs(3.0 * field.values**2 - 1.0, n // 2, cosine=True)
    step = 1 if a[1::2].any() else 2  # w of period pi couples m only with k of m's parity
    a = np.concatenate((a, a[-2:0:-1]))
    lowest = []
    for first in range(1, step + 1):
        m = np.arange(first, M + 1, step)
        A = 0.5 * np.pi * (a[np.abs(m[:, None] - m)] - a[m[:, None] + m])
        A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
        lowest.append(float(np.linalg.eigvalsh(A)[0] / np.pi))
    return tuple(lowest)


def linearization_gap(field: TorusField, kappa, M=256):
    """Lowest Rayleigh quotient of the quadratic form about ``field``: the
    least of :func:`linearization_blocks`.  A positive value certifies the gap."""
    return float(np.min(linearization_blocks(field, kappa, M)))  # np.min keeps a NaN


def spectral_gap(gs: GroundState, M=256):
    """Smallest linearization eigenvalue about a ground profile."""
    return linearization_gap(gs.field, gs.kappa, M=M)


@dataclass(frozen=True)
class BasinVerdict:
    applicable: bool
    within_basin: bool | None
    energy_u0: float
    energy_threshold: float | None
    message: str


def basin_criterion(u0: TorusField, kappa) -> BasinVerdict:
    """Energy test that pins the terminal state to the ground profile.

    Applicable for kappa in (0, 1/2): when E(u0) is below the ground energy
    at 2*kappa, the flow from odd u0 can only settle on the +-ground
    profile.  Outside that range the verdict reports non-applicability.

    The criterion is sufficient, not necessary: over the 64 odd data of the
    benchmark's basin_map seeds 40-43 (kappa = 0.3) it certified 33, and all
    64 ended on +-u_kappa within 1e-6.
    """
    e_u0 = energy(u0, kappa)  # raises SymmetryError unless u0 is odd
    if not 0.0 < kappa < 0.5:
        return BasinVerdict(
            applicable=False,
            within_basin=None,
            energy_u0=e_u0,
            energy_threshold=None,
            message=f"criterion not applicable: 2*kappa={2 * kappa} is not below 1",
        )
    threshold = build_ground_state(2.0 * kappa, u0.grid).energy
    inside = bool(e_u0 < threshold)
    return BasinVerdict(
        applicable=True,
        within_basin=inside,
        energy_u0=e_u0,
        energy_threshold=threshold,
        message="within basin" if inside else "energy above threshold",
    )
