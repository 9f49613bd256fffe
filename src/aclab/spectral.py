"""Torus grids, odd sine spectra, and the transforms between them.

The grid is x_j = -pi + 2*pi*j/n.  An odd 2*pi-periodic field is carried by
its sine coefficients c_m, f(x) = sum_{m>=1} c_m sin(m x); on this grid
sin(m x_j) = (-1)^m sin(2*pi*m*j/n), which is what the FFT index mapping
in :func:`sine_values` and :func:`sine_coeffs` accounts for.  This module is
the only one that knows that mapping.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SymmetryError

ODD_TOL = 1e-8


def _is_pow2(n):
    return n > 0 and n & (n - 1) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid of ``n_points`` samples covering [-pi, pi)."""

    n_points: int

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 16 or not _is_pow2(n):
            raise DomainError(f"domain error: n_points must be a power of two >= 16, got {n!r}")

    @property
    def x(self):
        n = self.n_points
        return -np.pi + 2.0 * np.pi * np.arange(n) / n

    @property
    def dx(self):
        return 2.0 * np.pi / self.n_points


def _freeze(arr):
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TorusField:
    """Real samples of a 2*pi-periodic function on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise DomainError(
                f"domain error: values shape {v.shape} does not match grid "
                f"({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("domain error: field values must be finite")
        object.__setattr__(self, "values", _freeze(v))


@dataclass(frozen=True)
class SineSpectrum:
    """Coefficients c_m of sum_{m=1..M} c_m sin(m x)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("domain error: coeffs must be a non-empty 1d array")
        if not np.all(np.isfinite(c)):
            raise DomainError("domain error: coefficients must be finite")
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def max_mode(self):
        return self.coeffs.size

    @property
    def modes(self):
        return np.arange(1, self.coeffs.size + 1)


def odd_defect(values):
    """Max deviation of grid samples from odd symmetry about x = 0."""
    v = np.asarray(values, dtype=float)
    n = v.size
    defect = max(abs(v[0]), abs(v[n // 2]))
    if n > 2:
        defect = max(defect, float(np.max(np.abs(v[1:] + v[:0:-1]))))
    return defect


def require_odd(values):
    """Raise :class:`SymmetryError` unless the samples are odd to ``ODD_TOL``."""
    defect = odd_defect(values)
    if defect > ODD_TOL:
        raise SymmetryError(f"symmetry violation: odd defect {defect:.3e} exceeds {ODD_TOL}")


@lru_cache(maxsize=None)
def _grid_factor(M, scale):
    # scale * (-1)^m for m = 0..M: the grid starts at -pi, so mode m picks up
    # e^{-i m pi}; cached because the stepper asks for the same few per step
    factor = scale * np.where(np.arange(M + 1) % 2 == 0, 1.0, -1.0)
    factor.flags.writeable = False
    return factor


def sine_values(coeffs, n, cosine=False):
    """Samples of sum_m c_m sin(m x_j) on the n-point grid, m = 1..M.

    ``coeffs`` has shape (..., M) and the result (..., n); each row along
    the last axis is transformed on its own.  ``cosine=True`` samples
    sum_m c_m cos(m x_j) instead.  The grid must hold the modes,
    M <= n/2 - 1; :func:`sine_coeffs` is the inverse.
    """
    M = coeffs.shape[-1]
    R = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=complex)
    R[..., 1 : M + 1] = _grid_factor(M, (0.5 if cosine else -0.5j) * n)[1:] * coeffs
    return np.fft.irfft(R, n)


def sine_coeffs(values, M, cosine=False):
    """Sine coefficients (1/pi) int f sin(m x) dx, m = 1..M, of grid samples.

    ``values`` has shape (..., n) and the result (..., M).  ``cosine=True``
    gives the cosine coefficients (1/pi) int f cos(m x) dx for m = 0..M
    instead, shape (..., M + 1), with M up to n/2.  Exact for fields
    band-limited below the grid's Nyquist mode.
    """
    spectrum = np.fft.rfft(values)
    scale = 2.0 / values.shape[-1]
    if cosine:
        return _grid_factor(M, scale) * spectrum[..., : M + 1].real
    return _grid_factor(M, -scale)[1:] * spectrum[..., 1 : M + 1].imag


def sine_transform(field: TorusField) -> SineSpectrum:
    """Project an odd field onto the sine basis, c_m = (1/pi) * int f sin(mx).

    The field must be odd about x = 0 to within ``ODD_TOL``; asymmetric input
    raises :class:`SymmetryError`.  Round trip with :func:`synthesize` is
    exact to round-off for band-limited fields.
    """
    require_odd(field.values)
    return SineSpectrum(sine_coeffs(field.values, field.grid.n_points // 2 - 1))


def _require_room(spec: SineSpectrum, grid: TorusGrid):
    n, M = grid.n_points, spec.max_mode
    if M > n // 2 - 1:
        raise DomainError(f"domain error: grid with {n} points cannot hold {M} sine modes")


def synthesize(spec: SineSpectrum, grid: TorusGrid) -> TorusField:
    """Evaluate a sine spectrum on a grid (inverse of :func:`sine_transform`)."""
    _require_room(spec, grid)
    return TorusField(grid, sine_values(spec.coeffs, grid.n_points))


def spectral_derivative(spec: SineSpectrum, order: int, grid: TorusGrid) -> TorusField:
    """Differentiate a sine spectrum term by term and sample on a grid.

    Order 1 yields sum m c_m cos(mx); order 2 yields -sum m^2 c_m sin(mx).
    A grid that cannot hold the spectrum's modes raises :class:`DomainError`.
    """
    if order not in (1, 2):
        raise DomainError(f"domain error: order must be 1 or 2, got {order!r}")
    _require_room(spec, grid)
    m = spec.modes.astype(float)
    if order == 1:
        return TorusField(grid, sine_values(m * spec.coeffs, grid.n_points, cosine=True))
    return TorusField(grid, sine_values(-(m**2) * spec.coeffs, grid.n_points))
