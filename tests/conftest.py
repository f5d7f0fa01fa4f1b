"""Shared fixtures: small radar configs and scene builders for fast tests."""

import math

import numpy as np
import pytest
from hypothesis import settings

from radarplace.radar import RadarConfig, Scatterer

# Property tests draw the same examples on every run and never time out on
# a slow machine, so a Tier-1 result does not depend on the run.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def small_cfg():
    """Reduced-size radar config so FFTs stay cheap in unit tests."""
    return RadarConfig(n_samples=64, n_chirps=4, n_antennas=8)


@pytest.fixture
def default_cfg():
    return RadarConfig()


def random_scene(rng, k, range_lo=5.0, range_hi=40.0, az_limit_deg=50.0):
    """k random scatterers inside the unambiguous range and angle domain."""
    return [
        Scatterer(
            float(rng.uniform(range_lo, range_hi)),
            math.radians(float(rng.uniform(-az_limit_deg, az_limit_deg))),
            float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(k)
    ]


def random_heatmap_values(rng, rows, cols):
    """Nonnegative random matrix usable as heatmap content."""
    return np.abs(rng.standard_normal((rows, cols))) + 0.01
