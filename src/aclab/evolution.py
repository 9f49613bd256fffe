"""Pseudo-spectral time integration of du/dt = kappa^2 u_xx + u - u^3.

The state is the odd sine spectrum.  Each step is the second-order
exponential Adams-Bashforth method ETD2 (Cox & Matthews 2002; Hochbruck &
Ostermann 2010), d_{k+1} = e^z d_k + dt phi1 N_k + dt phi2 (N_k - N_{k-1}):
the linear symbol lambda = 1 - kappa^2 m^2 is integrated exactly by
e^z, z = dt lambda, and the cubic N_k = N(d_k) is evaluated once per step;
the first step takes N_{-1} = N_0 and is exponential Euler.  A steady
state s has N(s) = -lambda s, so it is an exact fixed point at every dt.  Near z = 0 (kappa = 1, m = 1 gives z = 0 exactly) the phi functions
are summed as Taylor series (Kassam & Trefethen 2005).  The cubic of the
modes up to the cutoff M = n/4 is evaluated pointwise on the n = 4M-point
grid itself: there u^3, whose frequencies reach 3M, folds onto a kept mode
only at 3M -> M, from sin^3(Mx) alone, and :class:`SineWorkspace` adds
that one triad back, so the Galerkin convolution is exact (alias-free
truncation needs n > 4M, Orszag 1971; the plain two-thirds rule is not
alias-free for a cubic term).  The diagnostics take int u^4, which reaches
4M, on 2n points.  The state is kept as (-1)^m c_m in a
:class:`SineWorkspace`, whose two cubic slots hold N_k and N_{k-1}; the
sign commutes with e^z, dt phi1 and dt phi2, so a step is one cubic term
and six diagonal operations that allocate nothing.  Finiteness is tested
at each record and at the last step, and a non-finite record replays the
run from its admitted start to find the first non-finite step.  That is
exact: the replay repeats the arithmetic on the same buffers, and a
non-finite d_m stays so (the next step adds to e^z d_m).
The band-gap filter acts once, at admission: 2^k-point FFTs keep odd data odd.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticSeries, spectra_series
from .errors import BlowUpError, DomainError
from .spectral import (
    ODD_TOL,
    SineSpectrum,
    SineWorkspace,
    TorusField,
    TorusGrid,
    sine_transform,
    sine_values,
)

FILTER_NONE = "none"
FILTER_ODD_BAND_GAP = "odd_band_gap"
FILTERS = (FILTER_NONE, FILTER_ODD_BAND_GAP)

PRESETS = {  # named initial data, as {mode: coefficient}
    "sin_x": {1: 1.0},
    "half_sin_x": {1: 0.5},
    "sin_2x": {2: 1.0},
    "mixed": {1: 0.5, 2: 0.25, 3: 0.125},
}

STEADY_CHECKS_REQUIRED = 10
STEADY_TOL = 1e-10  # record-to-record L2 rate below which a run counts as steady
MAX_STEPS = 10**8  # the most steps a run may take; EvolveParams says why

_PHI_SERIES_RADIUS = 0.1
_PHI_SERIES_TERMS = 14


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

    ``t_end`` must be a whole number of steps ``dt`` (to 1e-9 relative), at
    most :data:`MAX_STEPS` of them: from 5e8 steps that tolerance is half a
    step, so it would pass every t_end, and 1e8 steps are already hours of
    a 4096-point run.  A ``dt`` with 1 + dt == 1 is refused too: a step
    that short rounds a state of size 1 back to itself, a frozen run that
    steady detection would call steady.
    ``detect_steady=None`` resolves to enabled except at kappa = 1, where
    slow algebraic decay produces false positives.
    """

    kappa: float
    dt: float = 0.01
    t_end: float = 10.0
    n_points: int = 256
    filter: str = FILTER_NONE
    record_every: int = 10
    detect_steady: bool | None = None

    def __post_init__(self):
        if not (0.0 < self.kappa and self.kappa * self.kappa < math.inf):  # the symbol holds kappa^2
            raise DomainError(f"domain error: kappa={self.kappa!r} must be positive and finite, as must kappa^2")
        if not 0.0 < self.dt <= 0.1:
            raise DomainError(f"domain error: dt={self.dt!r} outside (0, 0.1]")
        steps = self.t_end / self.dt
        if not 0.0 < steps < math.inf:  # so is t_end, as dt <= 0.1; round(inf) raises OverflowError
            raise DomainError(f"domain error: t_end={self.t_end!r} and t_end/dt={steps!r} must be positive and finite")
        if steps > MAX_STEPS:
            raise DomainError(f"domain error: t_end/dt={steps!r} exceeds the {MAX_STEPS:.0e} steps a run may take")
        if 1.0 + self.dt == 1.0:
            raise DomainError(f"domain error: dt={self.dt!r} is lost against 1.0: a step would round the state back to itself")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise DomainError(f"domain error: t_end={self.t_end!r} is not a multiple of dt")
        TorusGrid(self.n_points)  # validates the grid size
        if self.filter not in FILTERS:
            raise DomainError(f"domain error: filter={self.filter!r} not in {FILTERS}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise DomainError(f"domain error: record_every={every!r} must be an integer >= 1")

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
    sine spectra; row i was taken at the read-only ``times[i]``.  ``steps``
    is the number of steps taken, the last record's.
    """

    params: EvolveParams
    times: np.ndarray
    snapshots: np.ndarray
    diagnostics: DiagnosticSeries
    terminal: str  # "reached_t_end" | "steady_detected"
    steps: int


class _Stepper:
    """One ETD2 step of the workspace's ``state``, in place: a step allocates nothing."""

    def __init__(self, params: EvolveParams):
        m = np.arange(1, params.max_mode + 1, dtype=float)
        z = params.dt * (1.0 - (params.kappa * params.kappa) * (m * m))
        self.e_full = np.exp(z)
        phi1, phi2 = _phi_functions(z)
        self.dt_phi1 = params.dt * phi1
        self.dt_phi2 = params.dt * phi2
        self.sine = SineWorkspace(params.max_mode)  # on n_points = 4 max_mode points
        self._work = np.empty(params.max_mode)

    def step(self):
        """Advance ``sine.state`` one step; overflow leaves non-finites."""
        d, w = self.sine.state, self._work  # every array here holds (-1)^m times its coefficients
        n, n_before = self.sine.cube()  # N(d), and the N of the state before
        np.multiply(self.e_full, d, d)  # the last argument is the output
        np.multiply(self.dt_phi1, n, w)
        np.add(d, w, d)  # e^z d + dt phi1 N
        np.subtract(n, n_before, w)
        np.multiply(self.dt_phi2, w, w)
        np.add(d, w, d)  # + dt phi2 (N - N_before)


def _finite(c):
    # a finite sum has finite terms; only a non-finite one needs the full test
    return math.isfinite(c.sum()) or bool(np.all(np.isfinite(c)))


def initial_spectrum(preset, max_mode):
    """Initial data: a name in :data:`PRESETS`, or {mode: coeff}."""
    c = np.zeros(max_mode)
    if isinstance(preset, dict):
        for m, val in preset.items():
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise DomainError(f"domain error: mode {m!r} is not an integer")
            if not 1 <= m <= max_mode:
                raise DomainError(f"domain error: mode {m} outside 1..{max_mode}")
            if isinstance(val, (bool, np.bool_)) or not isinstance(val, (int, float, np.integer, np.floating)):
                raise DomainError(f"domain error: mode {m} has coefficient {val!r}, not a number")
            c[m - 1] = val
        return SineSpectrum(c)
    if not isinstance(preset, str) or preset not in PRESETS:  # a list is not hashable
        raise DomainError(f"domain error: unknown preset {preset!r}")
    return initial_spectrum(PRESETS[preset], max_mode)


def _first_non_finite_step(stepper, c0, kstep):
    """The first step whose state is not finite, replayed from the run's
    admitted start ``c0``, given that the state at ``kstep`` is not."""
    stepper.sine.load(c0)
    for k in range(1, kstep):
        stepper.step()
        if not _finite(stepper.sine.state):
            return k
    return kstep


def evolve(u0, params: EvolveParams) -> Trajectory:
    """Integrate from ``u0`` to ``t_end`` or until a steady state is detected.

    ``u0`` may be a :class:`TorusField` (odd to 1e-8, checked) or a
    :class:`SineSpectrum`.  The spectrum is recorded every ``record_every``
    steps and at the last one; the diagnostics (mass |u|_2^2, energy, first
    mode, tail norm, grid max) are derived from the records after the run.
    Steady detection requires |u(t) - u(t - D)|_2 / D below
    ``STEADY_TOL`` for ten consecutive record points.  Content of ``u0`` the run
    cannot carry, the modes above ``max_mode`` and under the band-gap filter
    the even modes, is zeroed; any above ``ODD_TOL`` raises :class:`DomainError`.
    A state that overflows, or a record too large for its diagnostics, raises
    :class:`BlowUpError` at its step.
    """
    if isinstance(u0, TorusField):
        spec0 = sine_transform(u0)  # raises on asymmetric input
    elif isinstance(u0, SineSpectrum):
        spec0 = u0
    else:
        raise DomainError(f"domain error: unsupported initial data {type(u0)!r}")

    stepper = _Stepper(params)
    c = np.zeros(max(params.max_mode, spec0.coeffs.size))
    c[: spec0.coeffs.size] = spec0.coeffs
    lost = np.arange(c.size) >= params.max_mode  # the content the run cannot carry
    if params.filter == FILTER_ODD_BAND_GAP:
        lost[1::2] = True
    refused = lost & ~(np.abs(c) <= ODD_TOL)  # a sampled field carries round-off there
    if refused.any():
        m = 1 + int(np.argmax(refused))
        where = ("the band-gap filter would zero even modes of u0" if m <= params.max_mode
                 else f"u0 has modes above the cutoff n_points/4 = {params.max_mode}")
        raise DomainError(f"domain error: {where}: mode {m} is {c[m - 1]:.3e}, above {ODD_TOL}")
    c[lost] = 0.0
    c = c[: params.max_mode]
    stepper.sine.load(c)

    n_steps = round(params.t_end / params.dt)  # a whole number, checked by EvolveParams
    detect = params.steady_detection_enabled

    times = [0.0]
    spectra = [c]
    consecutive = 0
    terminal = "reached_t_end"
    kstep = 0

    # overflow surfaces as non-finite coefficients, turned into BlowUpError
    # below; the warnings are just noise
    step = stepper.step
    with np.errstate(over="ignore", invalid="ignore"):
        while kstep < n_steps:
            last, kstep = kstep, min(kstep + params.record_every, n_steps)
            for _ in range(last, kstep):
                step()
            c = stepper.sine.coeffs()
            if not _finite(c):
                kstep = _first_non_finite_step(stepper, spectra[0], kstep)
                raise BlowUpError(f"blow-up detected at step {kstep}", step_index=kstep)
            t = kstep * params.dt
            if detect:
                diff = c - spectra[-1]
                rate = math.sqrt(math.pi * float(np.dot(diff, diff))) / (t - times[-1])
                consecutive = consecutive + 1 if rate < STEADY_TOL else 0
            times.append(t)
            spectra.append(c)
            if consecutive >= STEADY_CHECKS_REQUIRED:
                terminal = "steady_detected"
                break

    times = np.array(times)
    snapshots = np.array(spectra)
    times.flags.writeable = snapshots.flags.writeable = False
    series = spectra_series(snapshots, params.kappa)
    finite = np.logical_and.reduce([np.isfinite(s) for s in series.values()])
    if not finite.all():  # the first record too large for its diagnostics has blown up
        kstep = min(int(np.argmin(finite)) * params.record_every, n_steps)
        raise BlowUpError(f"blow-up detected at step {kstep}", step_index=kstep)
    return Trajectory(
        params=params,
        times=times,
        snapshots=snapshots,
        diagnostics=DiagnosticSeries(times=times, **series),
        terminal=terminal,
        steps=kstep,
    )


def terminal_comparison(traj: Trajectory, reference_field: TorusField):
    """(sign, max-norm error) of the terminal state against a steady profile.

    The sign is that of the grid inner product of the terminal state with the
    profile, matching the +- degeneracy of every steady profile: the first
    mode, which fixes it for the ground profile, is 0 on a replica u_j, j >= 2.
    """
    u_term = sine_values(traj.snapshots[-1], reference_field.grid.n_points)
    sign = 1.0 if np.dot(u_term, reference_field.values) >= 0.0 else -1.0
    err = float(np.max(np.abs(u_term - sign * reference_field.values)))
    return sign, err
