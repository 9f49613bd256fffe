"""Exception types shared across the library."""


class AclabError(Exception):
    """Base class for all library errors."""


class DomainError(AclabError, ValueError):
    """Input lies outside the mathematical domain an operation supports."""


class BracketError(AclabError, ValueError):
    """Root bracket does not enclose a sign change."""


class QuadratureError(AclabError, RuntimeError):
    """Adaptive quadrature failed to converge."""

    def __init__(self, message, worst_interval=None):
        super().__init__(message)
        self.worst_interval = worst_interval


class SymmetryError(AclabError, ValueError):
    """Field violates a required symmetry beyond tolerance."""


class ConstructionError(AclabError, RuntimeError):
    """Steady-profile construction failed a-posteriori validation."""


class ResolutionError(AclabError, ValueError):
    """Grid too coarse to resolve the requested profile."""


class BlowUpError(AclabError, RuntimeError):
    """Time stepping produced non-finite values."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class WindowError(AclabError, ValueError):
    """Requested fit or extraction window is unusable."""


class SignError(AclabError, RuntimeError):
    """A quantity left its required sign range."""


class IdentityError(AclabError, RuntimeError):
    """An analytic identity was violated beyond tolerance."""
