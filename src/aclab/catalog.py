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
from scipy.linalg import eigh

from .errors import DomainError, ResolutionError
from .ground_state import GroundState, build_ground_state, energy, eval_g
from .spectral import TorusField, TorusGrid, sine_coeffs

C_BOUNDARY_TOL = 1e-12
C_NEAR_BOUNDARY = 1e-8


def count_states(kappa):
    """Number of nontrivial steady states: m with 1/(m+1) <= kappa < 1/m."""
    if kappa <= 0.0:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive")
    if kappa >= 1.0:
        return 0
    return math.ceil(1.0 / kappa) - 1


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

    def __iter__(self):
        return iter(self.replicas)


def build_catalog(kappa, grid: TorusGrid | None = None) -> SteadyCatalog:
    """All odd zero-up steady states at ``kappa`` on ``grid``.

    Each replica is sampled by exact index remapping of the j*kappa ground
    profile (j*x lands back on grid nodes), and its energy is recomputed
    from its own samples rather than inherited, so the replica energy
    identity stays a checkable fact downstream.
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"domain error: kappa={kappa!r} outside (0, 1)")
    grid = grid if grid is not None else TorusGrid(2048)
    m = count_states(kappa)
    n = grid.n_points
    replicas = []
    for j in range(1, m + 1):
        try:
            gs = build_ground_state(j * kappa, grid)
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
    return kappa**2 * v0**2 + u0**2 - 0.5 * u0**4


def classify_orbit(u0, v0, kappa) -> OrbitClass:
    """Classify the steady-ODE orbit through (u0, v0) by its invariant C.

    Boundary cases use tolerance 1e-12 on C; orbits within 1e-8 of a
    boundary keep their open-interval class but carry ``near_boundary``,
    since the classification is discontinuous there.
    """
    if kappa <= 0.0:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive")
    C = orbit_invariant(u0, v0, kappa)
    near = C_BOUNDARY_TOL < min(abs(C), abs(C - 0.5)) <= C_NEAR_BOUNDARY

    if abs(C) <= C_BOUNDARY_TOL:
        if abs(u0) < 1.0:
            return OrbitClass(C=C, kind=KIND_ZERO, period=None, amplitude=None, near_boundary=near)
        return OrbitClass(C=C, kind=KIND_UNBOUNDED, period=None, amplitude=None, near_boundary=near)
    if abs(C - 0.5) <= C_BOUNDARY_TOL:
        kind = KIND_HETEROCLINIC if abs(u0) <= 1.0 + C_BOUNDARY_TOL else KIND_UNBOUNDED
        return OrbitClass(C=C, kind=kind, period=None, amplitude=None, near_boundary=near)
    if C > 0.5 or C < 0.0:  # negative C forces u0^2 >= 2, the escaping region
        return OrbitClass(C=C, kind=KIND_UNBOUNDED, period=None, amplitude=None, near_boundary=near)

    # 0 < C < 1/2: inner branch is periodic, outer branch escapes
    amp2 = 2.0 * C / (1.0 + math.sqrt(1.0 - 2.0 * C))
    if u0 * u0 > amp2 * (1.0 + 1e-9):
        return OrbitClass(C=C, kind=KIND_UNBOUNDED, period=None, amplitude=None, near_boundary=near)
    amp = math.sqrt(amp2)
    return OrbitClass(
        C=C,
        kind=KIND_PERIODIC,
        period=minimal_period(C, kappa),
        amplitude=amp,
        near_boundary=near,
    )


def minimal_period(C, kappa):
    """Minimal period of the periodic orbit with invariant C in (0, 1/2)."""
    if not 0.0 < C < 0.5:
        raise DomainError(f"domain error: need 0 < C < 1/2, got C={C!r}")
    if kappa <= 0.0:
        raise DomainError(f"domain error: kappa={kappa!r} must be positive")
    amp = math.sqrt(2.0 * C / (1.0 + math.sqrt(1.0 - 2.0 * C)))
    return 4.0 * math.sqrt(2.0) * kappa * eval_g(amp)


def linearization_gap(field: TorusField, kappa, M=256):
    """Lowest Rayleigh quotient of the quadratic form about ``field``.

    Assembles phi -> int kappa^2 (phi')^2 + (3 field^2 - 1) phi^2 in the
    sine basis sin(mx), m = 1..M, and returns the smallest eigenvalue
    relative to the L2 Gram.  A positive value certifies the gap.
    """
    if M < 64:
        raise DomainError(f"domain error: need M >= 64, got M={M!r}")
    grid = field.grid
    n = grid.n_points
    if M > n // 2 - 1:
        raise DomainError(f"domain error: M={M} too large for n_points={n}")
    # int w sin(mx) sin(kx) dx = (pi/2)(a_|m-k| - a_(m+k)) for the cosine
    # coefficients a_l of w = 3 field^2 - 1, on the grid a_l = a_(n-l)
    a = sine_coeffs(3.0 * field.values**2 - 1.0, n // 2, cosine=True)
    a = np.concatenate((a, a[-2:0:-1]))
    m = np.arange(1, M + 1)
    A = 0.5 * np.pi * (a[np.abs(m[:, None] - m)] - a[m[:, None] + m])
    A += np.diag(np.pi * kappa**2 * m.astype(float) ** 2)
    vals = eigh(A, eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0] / np.pi)


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
