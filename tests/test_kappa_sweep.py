"""One sweep of bad kappas over the public entry points that take one.

Every function refuses nan, -inf, 0 and -0.5 with :class:`DomainError`.
Those defined only below 1 or only for finite kappa also refuse +inf, and
those defined only below 1 refuse 1.0 and 1.5 too; ``count_states`` counts
0 states there.  The functions that divide by kappa or by its square refuse
5e-324, whose reciprocal overflows and whose square underflows.
"""

import math

import numpy as np
import pytest

from aclab.catalog import (
    basin_criterion,
    build_catalog,
    classify_orbit,
    count_states,
    linearization_gap,
    minimal_period,
)
from aclab.errors import DomainError
from aclab.evolution import EvolveParams
from aclab.ground_state import build_ground_state, energy, kink_profile, solve_peak
from aclab.oracles import first_return_period, peak_complement_mp, shoot_profile
from aclab.spectral import TorusField, TorusGrid
from helpers import time_limit

GRID = TorusGrid(256)
FIELD = TorusField(GRID, 0.5 * np.sin(GRID.x))

ENTRY_POINTS = {
    "solve_peak": solve_peak,
    "build_ground_state": build_ground_state,
    "energy": lambda k: energy(FIELD, k),
    "kink_profile": lambda k: kink_profile(k, np.linspace(-1.0, 1.0, 5)),
    "count_states": count_states,
    "build_catalog": build_catalog,
    "classify_orbit": lambda k: classify_orbit(0.3, 0.1, k),
    "minimal_period": lambda k: minimal_period(0.25, k),
    "linearization_gap": lambda k: linearization_gap(FIELD, k, M=64),
    "basin_criterion": lambda k: basin_criterion(FIELD, k),
    "EvolveParams": lambda k: EvolveParams(kappa=k),
    "peak_complement_mp": peak_complement_mp,
    "shoot_profile": lambda k: shoot_profile(k, [0.5]),
    "first_return_period": lambda k: first_return_period(0.3, 0.1, k, 10.0),
}
BELOW_ONE = {"solve_peak", "build_ground_state", "build_catalog", "peak_complement_mp",
             "shoot_profile"}
FINITE = set(ENTRY_POINTS) - {"count_states"}
RECIPROCAL = {"count_states", "build_catalog", "peak_complement_mp", "shoot_profile"}

REFUSED = [(name, k) for name in ENTRY_POINTS for k in (math.nan, -math.inf, 0.0, -0.5)]
REFUSED += [(name, math.inf) for name in sorted(FINITE)]
REFUSED += [(name, k) for name in sorted(BELOW_ONE) for k in (1.0, 1.5)]
REFUSED += [(name, 5e-324) for name in sorted(RECIPROCAL)]


@pytest.mark.parametrize("name, kappa", REFUSED)
def test_bad_kappa_refused(name, kappa):
    with time_limit(10.0), pytest.raises(DomainError):
        ENTRY_POINTS[name](kappa)


@pytest.mark.parametrize("kappa", [1.0, 1.5, math.inf])
def test_count_states_is_zero_from_one_up(kappa):
    assert count_states(kappa) == 0
