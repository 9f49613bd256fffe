"""Steady states and sharp relaxation dynamics of periodic Allen-Cahn.

Construction and classification of every 2*pi-periodic steady state of
kappa^2 u'' + u - u^3 = 0, pseudo-spectral evolution of the fractional
equation du/dt = -kappa^2 (-d_xx)^(gamma/2) u + u - u^3 in the odd sine
basis, and quantitative verification of decay rates, energy monotonicity,
mass log-convexity, and late-time profiles.
"""

from .catalog import (
    BasinVerdict,
    OrbitClass,
    SteadyCatalog,
    SteadyReplica,
    basin_criterion,
    build_catalog,
    classify_orbit,
    count_states,
    linearization_gap,
    minimal_period,
    spectral_gap,
)
from .diagnostics import (
    DiagnosticSeries,
    Eta0Report,
    LogConvexityReport,
    ProfileEstimate,
    RateFit,
    ThetaFit,
    check_eta0_inequality,
    check_log_convexity,
    extract_profile,
    fit_rate,
    theta_ode_oracle,
)
from .errors import (
    AclabError,
    BlowUpError,
    BracketError,
    ConstructionError,
    DomainError,
    IdentityError,
    QuadratureError,
    ResolutionError,
    SignError,
    SymmetryError,
    WindowError,
)
from .evolution import (
    EvolveParams,
    Trajectory,
    evolve,
    fractional_multiplier,
    initial_spectrum,
    step,
    terminal_comparison,
)
from .ground_state import (
    GroundState,
    PeakValue,
    build_ground_state,
    energy,
    energy_identities,
    eval_g,
    kink_comparison,
    kink_profile,
    peak_bounds,
    solve_peak,
)
from .quadrature import integrate
from .roots import find_root
from .spectral import (
    SineSpectrum,
    TorusField,
    TorusGrid,
    sine_transform,
    spectral_derivative,
    synthesize,
)

__version__ = "0.1.0"
