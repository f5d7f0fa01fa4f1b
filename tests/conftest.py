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


def chirp_sum_heatmap_bound(n_chirps, rows, n_antennas, cols):
    """Relative bound on a noise-free heatmap made from the chirp sum ``n * x``
    against the same heatmap made from a cube's n-term chirp sum.

    Both paths run one FFT cascade (range FFT of length R = rows, angle FFT
    zero-padded to C = cols) on a (R, A) chirp sum, A = n_antennas.  The
    chirp-invariant signal x is the same array in both; only its sum over
    the n chirps differs:

    - ``simulate_chirp_sum`` rounds n * x once: |a - n x| <= u n |x|;
    - summing n copies of x, in any order, errs by at most gamma_{n-1} n |x|
      (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
      section 4.2), with u = 2**-53 and gamma_k = k u / (1 - k u).

    Real and imaginary parts are summed apart, so per element
    |a - b| <= eps |s| with s = n x and eps = u + gamma_{n-1}.

    Let T be the exact cascade.  Every output of T is a sum of inputs times
    unit-modulus twiddles, so max|T d| <= ||d||_1 <= sqrt(R A) ||d||_2,
    and Parseval gives sum|T y|**2 = R C ||y||_2**2, so ||s||_2 <= M, the
    largest exact heatmap value.  Hence max|T a - T b| <= eps sqrt(R A) M.

    The computed cascade is not T.  A length-N FFT is normwise backward
    stable: fl(FFT z) = FFT(z + dz) with ||dz||_2 <= rho_N ||z||_2,
    rho_N = t eta / (1 - t eta), t = ceil(log2 N) (Higham Thm 24.2, proved
    there for radix 2; eta = 8u is taken here as the per-pass constant of
    pocketfft's mixed-radix passes, above the 6.7u of the radix-2 proof).
    Carrying the range FFT's error through the angle FFT, and bounding a
    max by a 2-norm, the cascade errs by at most sqrt(R C) rho ||y||_2 with
    rho = rho_R + rho_C (1 + rho_R), for each of a and b, whose norms are at
    most (1 + eps) ||s||_2.  The magnitude adds u per value.  So

        max|H_a - H_b| <= (eps sqrt(R A) + 2 rho sqrt(R C) (1 + eps) + 2u) M,

    and the factor returned rounds this up by 1 % to cover M against the
    computed maximum.  At n = 64, (R, C) = (64, 96), A = 8 it is about
    2e-12, the FFT term dominating; measured differences are near 1e-15.
    M is a max over every column, so the bound holds against the computed
    heatmap's max only when no column is masked out (antenna spacing at
    most half a wavelength, as in the default config).
    """
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    def rho(n):
        t = max(1, math.ceil(math.log2(n)))
        return t * 8 * u / (1 - t * 8 * u)

    eps = u + gamma(n_chirps - 1)
    cascade = rho(rows) + rho(cols) * (1 + rho(rows))
    bound = (eps * math.sqrt(rows * n_antennas)
             + 2 * cascade * math.sqrt(rows * cols) * (1 + eps) + 2 * u)
    return 1.01 * bound
