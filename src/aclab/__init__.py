"""Steady states and sharp relaxation dynamics of periodic Allen-Cahn.

Construction and classification of every 2*pi-periodic steady state of
kappa^2 u'' + u - u^3 = 0, pseudo-spectral evolution of
du/dt = kappa^2 u_xx + u - u^3 in the odd sine basis, and quantitative
verification of decay rates, energy monotonicity, mass log-convexity, and
late-time profiles.  The package binds only ``__version__``; import each
name from its module.
"""

__version__ = "0.1.0"
