"""Torus grids, odd sine spectra, and the transforms between them.

The grid is x_j = -pi + 2*pi*j/n.  An odd 2*pi-periodic field is carried by
its sine coefficients c_m, f(x) = sum_{m>=1} c_m sin(m x); on this grid
sin(m x_j) = (-1)^m sin(2*pi*m*j/n), which is what the FFT index mapping
in :func:`sine_values` and :func:`sine_coeffs` accounts for.  This module is
the only one that knows that mapping.  It calls the pocketfft gufuncs that
``np.fft.irfft`` and ``rfft`` end in, without their per-call set-up: the
free functions pass the factors those pass (1/n and 1), and their outputs
are np.fft's to the bit.  :class:`SineWorkspace`, the time stepper's
kernel, builds its own 4M-point grid for M modes, keeps a spectrum as
(-1)^m c_m in the slots irfft reads and passes the grid factors as the
kernels' own (-1/2 to the grid, 2/n back), so a cubic term costs the two
transforms, two products and the one folded triad added back, and no
copies; its two cubic slots keep the term of the state before, which the
stepper's next step reads.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

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


def require_odd(values):
    """Raise :class:`SymmetryError` unless the samples are odd about x = 0 to ``ODD_TOL``."""
    v = np.asarray(values, dtype=float)
    defect = max(abs(v[0]), abs(v[v.size // 2]))
    if v.size > 2:
        defect = max(defect, float(np.max(np.abs(v[1:] + v[:0:-1]))))
    if defect > ODD_TOL:
        raise SymmetryError(f"symmetry violation: odd defect {defect:.3e} exceeds {ODD_TOL}")


@lru_cache(maxsize=None)
def _grid_factor(M, scale):
    # scale * (-1)^m for m = 0..M: the grid starts at -pi, so mode m picks up
    # e^{-i m pi}; cached because callers ask for the same few again and again
    factor = scale * np.where(np.arange(M + 1) % 2 == 0, 1.0, -1.0)
    factor.flags.writeable = False
    return factor


def padded_points(M):
    """The smallest power of two n >= max(16, 8M): a grid on which int u^4
    of M sine modes, whose frequencies reach 4M, is exact (n > 4M)."""
    return max(16, 1 << (8 * M - 1).bit_length())


def _require_room(M, n, cosine=False):
    # the Nyquist mode n/2 is a cosine on the grid: sin(n x_j / 2) is 0
    if M > n // 2 - (0 if cosine else 1):
        kind = "cosine" if cosine else "sine"
        raise DomainError(f"domain error: grid with {n} points cannot hold {M} {kind} modes")


def _require_even(n):
    # rfft_n_even, the analysis kernel, transforms even grids only
    if n % 2:
        raise DomainError(f"domain error: grid with {n} points is odd; the analysis needs an even grid")


def sine_values(coeffs, n):
    """Samples of sum_m c_m sin(m x_j) on the n-point grid, m = 1..M.

    ``coeffs`` has shape (..., M) and the result (..., n); each row along
    the last axis is transformed on its own.  The grid must hold the modes,
    M <= n/2 - 1, or :class:`DomainError` is raised; :func:`sine_coeffs` is
    the inverse.
    """
    M = coeffs.shape[-1]
    _require_room(M, n)
    spectrum = np.zeros(coeffs.shape[:-1] + (n // 2 + 1,), dtype=complex)
    np.multiply(_grid_factor(M, -0.5j * n)[1:], coeffs, out=spectrum[..., 1 : M + 1])
    return _pocketfft.irfft(spectrum, 1 / n, out=np.empty(coeffs.shape[:-1] + (n,)))


def sine_coeffs(values, M, cosine=False):
    """Sine coefficients (1/pi) int f sin(m x) dx, m = 1..M, of grid samples.

    ``values`` has shape (..., n) and the result (..., M).  ``cosine=True``
    gives the cosine coefficients (1/pi) int f cos(m x) dx for m = 0..M
    instead, shape (..., M + 1).  Exact for fields band-limited below the
    grid's Nyquist mode.  An odd n, or more modes than the grid holds
    (M <= n/2 - 1 sine, M <= n/2 cosine), raises :class:`DomainError`.
    """
    n = values.shape[-1]
    _require_even(n)
    _require_room(M, n, cosine)
    spectrum = np.empty(values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    _pocketfft.rfft_n_even(values, 1.0, out=spectrum)
    scale = 2.0 / n
    if cosine:
        return _grid_factor(M, scale) * spectrum[..., : M + 1].real
    return _grid_factor(M, -scale)[1:] * spectrum[..., 1 : M + 1].imag


class SineWorkspace:
    """An M-mode sine spectrum kept where the transforms of its own 4M-point
    grid read it, and two slots for its cubic term -(u^3), in buffers built
    once: no call allocates.

    ``state`` holds c_m as (-1)^m c_m, the imaginary parts of entries 1..M
    of a half spectrum that is zero elsewhere.  :meth:`cube` writes the
    Galerkin term, the modes 1..M of -(u^3), in that form, into the slots in
    turn, so the term of the state before stays in the other slot without a
    copy.  u^3 reaches the frequencies up to 3M, and on n = 4M points a
    frequency k in (M, 3M] lands on 4M - k, a kept mode only at k = 3M:
    there sin(3M x_j) = -sin(M x_j).  Only sin^3(Mx) = (3 sin Mx - sin 3Mx)/4
    reaches 3M, so the grid term is exact but for mode M, to which the fold
    added -c_M^3/4; :meth:`cube` adds it back, d^3/4 with d = (-1)^M c_M.
    In exact arithmetic the term is then that of any grid with n > 4M, on
    which nothing folds (Orszag 1971), such as 8M points, at half their
    cost.  When 4M is a power of two, as in the stepper, the term before
    the fold has the bits of
    ``-sine_coeffs(u * u * u, M)`` with u = ``sine_values(c, 4M)``, up to
    (-1)^m and the signs of zeros, which :meth:`coeffs` makes +0: the
    factors differ by exact powers of two (outside the subnormal range).
    An M that is not an integer >= 1 raises :class:`DomainError`.
    """

    def __init__(self, M):
        if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
            raise DomainError(f"domain error: a workspace needs an integer mode count >= 1, got {M!r}")
        self.n_points = n = 4 * M
        # the factors as 0-d arrays, which the kernels take without a conversion per call
        self._to_grid, self._from_grid = np.array(-0.5), np.array(2.0 / n)
        self._half = np.zeros(n // 2 + 1, dtype=complex)  # only imag 1..M is ever written
        rffts = np.empty((2, n // 2 + 1), dtype=complex)
        self._rffts = tuple(rffts)
        self.state = self._half[1 : M + 1].imag
        self._cubics = tuple(rffts[:, 1 : M + 1].imag)
        self._next = self._last = 0  # the slot cube writes next, and the one it wrote last
        self._grid = np.empty(n)
        self._cube = np.empty(n)
        self._sign = _grid_factor(M, 1.0)[1:]

    def load(self, coeffs):
        """Set ``state`` to the coefficients ``coeffs`` and forget the terms
        written before: the next :meth:`cube` is its own term of the state before."""
        np.multiply(self._sign, coeffs, out=self.state)
        self._next = self._last = 0

    def coeffs(self):
        """A new array of the coefficients ``state`` holds, every zero +0."""
        return self._sign * self.state + 0.0

    def cube(self):
        """Write the Galerkin term -(u^3) of ``state`` into the next slot;
        return that slot and the one written before it (the same slot after
        a :meth:`load`)."""
        k, last = self._next, self._last
        # outputs by position, which costs less than out=
        u = _pocketfft.irfft(self._half, self._to_grid, self._grid)
        np.multiply(u, u, self._cube)
        np.multiply(self._cube, u, self._cube)
        _pocketfft.rfft_n_even(self._cube, self._from_grid, self._rffts[k])
        term, d = self._cubics[k], self.state[-1]
        term[-1] += d * d * d / 4  # the folded triad of mode M
        self._next, self._last = 1 - k, k
        return term, self._cubics[last]


def sine_transform(field: TorusField) -> SineSpectrum:
    """Project an odd field onto the sine basis, c_m = (1/pi) * int f sin(mx).

    The field must be odd about x = 0 to within ``ODD_TOL``; asymmetric input
    raises :class:`SymmetryError`.  Round trip with :func:`sine_values` is
    exact to round-off for band-limited fields.
    """
    require_odd(field.values)
    return SineSpectrum(sine_coeffs(field.values, field.grid.n_points // 2 - 1))


def gradient_energy(coeffs, kappa):
    """The gradient term (kappa^2/2) pi sum m^2 c_m^2 of the energy.

    The sum runs along the last axis of ``coeffs``, m = 1..M.  It is
    int (kappa^2/2) (u')^2 dx, which the grid sum of u'^2 equals whenever
    the grid holds the modes (discrete Parseval).
    """
    m = np.arange(1, coeffs.shape[-1] + 1, dtype=float)
    return 0.5 * kappa**2 * np.pi * np.sum((m * coeffs) ** 2, axis=-1)
