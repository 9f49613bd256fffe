"""Pseudo-spectral time integration of du/dt = -kappa^2 L^gamma u + u - u^3.

The state is the odd sine spectrum.  Each step is second-order exponential
time differencing (ETDRK2, Cox & Matthews 2002): the linear symbol
lambda = 1 - kappa^2 m^gamma is integrated exactly by its exponential, and
the cubic enters through the phi functions of z = dt lambda, so a steady
state of the PDE is an exact fixed point of the step at every dt.  Near
z = 0 (kappa = 1, m = 1 gives z = 0 exactly) the phi functions are summed
as Taylor series (Kassam & Trefethen 2005).  The cubic is evaluated
pointwise on a grid zero padded to twice the configured size, so products
of modes up to the cutoff n/4 stay strictly below the padded Nyquist and
the convolution is exact: the plain two-thirds truncation is not alias-free
for a cubic term.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticSeries
from .errors import BlowUpError, DomainError
from .spectral import (
    SineSpectrum,
    TorusField,
    TorusGrid,
    sine_coeffs,
    sine_transform,
    sine_values,
    synthesize,
)

FILTER_NONE = "none"
FILTER_ODD_BAND_GAP = "odd_band_gap"
FILTERS = (FILTER_NONE, FILTER_ODD_BAND_GAP)

STEADY_CHECKS_REQUIRED = 10
STEADY_TOL = 1e-10  # record-to-record L2 rate below which a run counts as steady

_PHI_SERIES_RADIUS = 0.1
_PHI_SERIES_TERMS = 14


def fractional_multiplier(m, kappa, gamma):
    """Symbol of kappa^2 (-d_xx)^(gamma/2) on sin(m x): kappa^2 m^gamma."""
    if np.any(np.asarray(m) < 1):
        raise DomainError(f"domain error: mode index must be >= 1, got {m!r}")
    return kappa**2 * np.asarray(m, dtype=float) ** gamma


def _phi_functions(z):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, elementwise.

    Both are entire; for |z| < 0.1 the closed forms cancel, so there they
    are summed as Taylor series phi_j(z) = sum_k z^k / (k + j)!.
    """
    small = np.abs(z) < _PHI_SERIES_RADIUS
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 1.0, z)
    phi1 = np.zeros_like(z)
    phi2 = np.zeros_like(z)
    for k in range(_PHI_SERIES_TERMS - 1, -1, -1):  # Horner
        phi1 = phi1 * zs + 1.0 / math.factorial(k + 1)
        phi2 = phi2 * zs + 1.0 / math.factorial(k + 2)
    em1 = np.expm1(zl)
    phi1 = np.where(small, phi1, em1 / zl)
    phi2 = np.where(small, phi2, (em1 - zl) / (zl * zl))
    return phi1, phi2


@dataclass(frozen=True)
class EvolveParams:
    """Configuration of one evolution run.

    ``t_end`` must be a whole number of steps ``dt`` (to 1e-9 relative).
    ``detect_steady=None`` resolves to enabled except at kappa = 1, where
    slow algebraic decay produces false positives.  ``cubic=False`` is a
    test hook that drops the nonlinear term, leaving the exact linear
    propagator.
    """

    kappa: float
    gamma: float = 2.0
    dt: float = 0.01
    t_end: float = 10.0
    n_points: int = 256
    filter: str = FILTER_NONE
    record_every: int = 10
    detect_steady: bool | None = None
    cubic: bool = True

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise DomainError(f"domain error: kappa={self.kappa!r} must be positive")
        if not 0.0 < self.gamma <= 2.0:
            raise DomainError(f"domain error: gamma={self.gamma!r} outside (0, 2]")
        if not 0.0 < self.dt <= 0.1:
            raise DomainError(f"domain error: dt={self.dt!r} outside (0, 0.1]")
        if self.t_end <= 0.0:
            raise DomainError(f"domain error: t_end={self.t_end!r} must be positive")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise DomainError(f"domain error: t_end={self.t_end!r} is not a multiple of dt")
        TorusGrid(self.n_points)  # validates the grid size
        if self.filter not in FILTERS:
            raise DomainError(f"domain error: filter={self.filter!r} not in {FILTERS}")
        if self.record_every < 1:
            raise DomainError("domain error: record_every must be >= 1")

    @property
    def grid(self):
        return TorusGrid(self.n_points)

    @property
    def max_mode(self):
        return self.n_points // 4

    @property
    def steady_detection_enabled(self):
        if self.detect_steady is None:
            return self.kappa != 1.0
        return self.detect_steady


@dataclass(frozen=True)
class Trajectory:
    """One evolution run.

    ``snapshots`` is the read-only (records, max_mode) array of the recorded
    sine spectra; row i was taken at ``times[i]``.
    """

    params: EvolveParams
    times: np.ndarray
    snapshots: np.ndarray
    diagnostics: DiagnosticSeries
    terminal: str  # "reached_t_end" | "steady_detected"


class _Stepper:
    def __init__(self, params: EvolveParams):
        self.params = params
        m = np.arange(1, params.max_mode + 1)
        z = params.dt * (1.0 - fractional_multiplier(m, params.kappa, params.gamma))
        self.e_full = np.exp(z)
        phi1, phi2 = _phi_functions(z)
        self.dt_phi1 = params.dt * phi1
        self.dt_phi2 = params.dt * phi2
        self.n_pad = 2 * params.n_points

    def cubic_term(self, c):
        u = sine_values(c, self.n_pad)
        return -sine_coeffs(u * u * u, c.size)

    def step(self, c):
        p = self.params
        if p.cubic:
            # overflow here surfaces as non-finite coefficients, which the
            # caller turns into BlowUpError; the warning is just noise
            with np.errstate(over="ignore", invalid="ignore"):
                n0 = self.cubic_term(c)
                a = self.e_full * c + self.dt_phi1 * n0
                out = a + self.dt_phi2 * (self.cubic_term(a) - n0)
        else:
            out = self.e_full * c
        if p.filter == FILTER_ODD_BAND_GAP:
            out[1::2] = 0.0
        return out


def _fit_to_cutoff(spec: SineSpectrum, M):
    c = np.zeros(M)
    c[: spec.coeffs.size] = spec.coeffs[:M]
    return c


def step(state: SineSpectrum, params: EvolveParams) -> SineSpectrum:
    """Advance one time step; pure function of (state, params)."""
    out = _Stepper(params).step(_fit_to_cutoff(state, params.max_mode))
    if not np.all(np.isfinite(out)):
        raise BlowUpError("blow-up detected at step 1", step_index=1)
    return SineSpectrum(out)


def initial_spectrum(preset, max_mode):
    """Named initial data: sin_x, half_sin_x, sin_2x, mixed, or {mode: coeff}."""
    c = np.zeros(max_mode)
    if isinstance(preset, dict):
        for m, val in preset.items():
            m = int(m)
            if not 1 <= m <= max_mode:
                raise DomainError(f"domain error: mode {m} outside 1..{max_mode}")
            c[m - 1] = float(val)
        return SineSpectrum(c)
    table = {
        "sin_x": {1: 1.0},
        "half_sin_x": {1: 0.5},
        "sin_2x": {2: 1.0},
        "mixed": {1: 0.5, 2: 0.25, 3: 0.125},
    }
    if preset not in table:
        raise DomainError(f"domain error: unknown preset {preset!r}")
    return initial_spectrum(table[preset], max_mode)


def evolve(u0, params: EvolveParams) -> Trajectory:
    """Integrate from ``u0`` to ``t_end`` or until a steady state is detected.

    ``u0`` may be a :class:`TorusField` (odd to 1e-8, checked) or a
    :class:`SineSpectrum`.  The spectrum is recorded every ``record_every``
    steps and at the last one; the diagnostics (mass |u|_2^2, energy, first
    mode, tail norm, grid max) are derived from the records after the run.
    Steady detection requires |u(t) - u(t - D)|_2 / D below
    ``STEADY_TOL`` for ten consecutive record points.  The band-gap filter
    would zero any even mode of ``u0``, so such data raise :class:`DomainError`.
    """
    if isinstance(u0, TorusField):
        spec0 = sine_transform(u0)  # raises on asymmetric input
    elif isinstance(u0, SineSpectrum):
        spec0 = u0
    else:
        raise DomainError(f"domain error: unsupported initial data {type(u0)!r}")

    stepper = _Stepper(params)
    c = _fit_to_cutoff(spec0, params.max_mode)
    if params.filter == FILTER_ODD_BAND_GAP and np.any(c[1::2] != 0.0):
        raise DomainError("domain error: the band-gap filter would zero even modes of u0")

    n_steps = round(params.t_end / params.dt)  # a whole number, checked by EvolveParams
    detect = params.steady_detection_enabled

    times = [0.0]
    spectra = [c]
    consecutive = 0
    terminal = "reached_t_end"

    for kstep in range(1, n_steps + 1):
        c = stepper.step(c)  # a new array every step, so the records need no copies
        if not np.all(np.isfinite(c)):
            raise BlowUpError(f"blow-up detected at step {kstep}", step_index=kstep)
        if kstep % params.record_every == 0 or kstep == n_steps:
            t = kstep * params.dt
            if detect:
                rate = float(np.sqrt(np.pi * np.sum((c - spectra[-1]) ** 2))) / (t - times[-1])
                consecutive = consecutive + 1 if rate < STEADY_TOL else 0
            times.append(t)
            spectra.append(c)
            if consecutive >= STEADY_CHECKS_REQUIRED:
                terminal = "steady_detected"
                break

    times = np.array(times)
    snapshots = np.array(spectra)
    snapshots.flags.writeable = False
    return Trajectory(
        params=params,
        times=times,
        snapshots=snapshots,
        diagnostics=DiagnosticSeries.from_spectra(times, snapshots, params.kappa, stepper.n_pad),
        terminal=terminal,
    )


def terminal_comparison(traj: Trajectory, reference_field: TorusField):
    """(sign, max-norm error) of the terminal state against a steady profile.

    The sign follows the terminal first-mode coefficient, matching the +-
    degeneracy of the ground profile.
    """
    c = traj.snapshots[-1]
    grid = reference_field.grid
    u_term = synthesize(SineSpectrum(c), grid).values
    sign = 1.0 if c[0] >= 0.0 else -1.0
    err = float(np.max(np.abs(u_term - sign * reference_field.values)))
    return sign, err
