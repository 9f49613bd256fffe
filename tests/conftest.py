import pytest
from hypothesis import HealthCheck, settings

from aclab.ground_state import build_ground_state
from aclab.spectral import TorusGrid

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def grid2048():
    return TorusGrid(2048)


@pytest.fixture(scope="session")
def gs_cache(grid2048):
    """Memoized ground-state builder shared across the whole test session."""
    cache = {}

    def get(kappa, n_points=2048):
        key = (float(kappa), n_points)
        if key not in cache:
            grid = grid2048 if n_points == 2048 else TorusGrid(n_points)
            cache[key] = build_ground_state(kappa, grid)
        return cache[key]

    return get
