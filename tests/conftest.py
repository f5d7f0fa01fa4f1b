"""Shared fixtures: small radar configs and scene builders for fast tests."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings

from radarplace.fileio import save_weights
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


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k):
    return k * _U / (1 - k * _U)


def _fft_rho(n):
    """Normwise backward error of a computed length-n FFT (Higham Thm 24.2).

    rho_n = t eta / (1 - t eta), t = ceil(log2 n), proved there for radix 2
    with eta = 6.7u; eta = 8u is taken here as the per-pass constant of
    pocketfft's mixed-radix passes.
    """
    t = max(1, math.ceil(math.log2(n)))
    return t * 8 * _U / (1 - t * 8 * _U)


def _steer_delta(n_antennas):
    """Per-output error of the direct angle sum, as a multiple of ||y||_1.

    ``heatmap._columns`` rounds each twiddle exp(-2 pi i r / C): the phase
    -2 pi r / C is rounded three times (pi, the division, the product),
    a relative 3u at a phase below 2 pi, and cos and sin err by under one
    ulp each, so |w_hat - w| <= tau = (6 pi + 2) u.  A complex inner
    product of length A = n_antennas errs by at most
    sqrt(2) gamma_{A+2} sum|y_k| |w_hat_k| (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 3.6), in any summation
    order.  So the computed sum errs from sum y_k w_k by at most
    (sqrt(2) gamma_{A+2} (1 + tau) + tau) ||y||_1.
    """
    tau = (6 * math.pi + 2) * _U
    return math.sqrt(2) * _gamma(n_antennas + 2) * (1 + tau) + tau


def angle_sum_heatmap_bound(n_antennas, cols):
    """Relative bound on a heatmap whose angle stage is the direct sum over
    the antennas against the same heatmap through the zero-padded angle FFT.

    Both start from the same computed range spectrum, a row y of
    A = n_antennas values per range bin.  Let z_j = sum_k y_k w_kj be its
    exact angle spectrum at column j of C = cols, w_kj of unit modulus.

    - The direct sum errs by at most delta_A ||y||_1 <= delta_A sqrt(A)
      ||y||_2 (see ``_steer_delta``).
    - The FFT of y zero-padded to C is normwise backward stable:
      fl(FFT p) = FFT(p + d) with ||d||_2 <= rho_C ||y||_2, so each output
      errs by at most ||d||_1 <= sqrt(C) rho_C ||y||_2.

    Parseval gives sum_j |z_j|**2 = C ||y||_2**2 over all C columns, so
    ||y||_2 <= M, the row's largest exact value.  Each magnitude adds u.  So

        max|H_sum - H_fft| <= (delta_A sqrt(A) + rho_C sqrt(C) + 2u) M,

    and the factor returned rounds this up by 1 % to cover M against the
    computed maximum.  At A = 8, C = 96 it is about 7e-14, the FFT term
    dominating; measured differences are below 6e-16 of the maximum.  M is
    a max over every column, so with columns masked out (antenna spacing
    below half a wavelength) take it from the unmasked heatmap.
    """
    bound = (_steer_delta(n_antennas) * math.sqrt(n_antennas)
             + _fft_rho(cols) * math.sqrt(cols) + 2 * _U)
    return 1.01 * bound


def chirp_sum_heatmap_bound(n_chirps, rows, n_antennas):
    """Relative bound on a noise-free heatmap made from the chirp sum ``n * x``
    against the same heatmap made from a cube's n-term chirp sum.

    Both paths run one cascade on a (R, A) chirp sum, R = rows and
    A = n_antennas: a range FFT of length R, then the direct angle sum
    over the A antennas at each column.  The chirp-invariant signal x is
    the same array in both; only its sum over the n chirps differs:

    - ``simulate_chirp_sum`` rounds n * x once: |a - n x| <= u n |x|;
    - summing n copies of x, in any order, errs by at most gamma_{n-1} n |x|
      (Higham, section 4.2), with u = 2**-53 and gamma_k = k u / (1 - k u).

    Real and imaginary parts are summed apart, so per element
    |a - b| <= eps |s| with s = n x and eps = u + gamma_{n-1}.

    Let T be the exact cascade.  Every output of T is a sum of the R A
    inputs times unit-modulus twiddles, so max|T d| <= ||d||_1 <=
    sqrt(R A) ||d||_2, and Parseval gives sum|T y|**2 = R C ||y||_2**2
    over all C columns, so ||s||_2 <= M, the largest exact heatmap value.
    Hence max|T a - T b| <= eps sqrt(R A) M.

    The computed cascade is not T.  The range FFT gives F_R (y + dy) with
    ||dy||_2 <= rho_R ||y||_2 (see ``_fft_rho``); through the exact angle
    sum, F_R dy adds at most sqrt(A) ||F_R dy||_2 = sqrt(R A) rho_R
    ||y||_2 per output.  The computed angle sum then errs by at most
    delta_A sqrt(A) times the 2-norm of the computed range spectrum, which
    is at most sqrt(R) (1 + rho_R) ||y||_2 (see ``_steer_delta``).  So the
    cascade errs by at most sqrt(R A) rho ||y||_2, rho = rho_R + delta_A
    (1 + rho_R), for each of a and b, whose norms are at most
    (1 + eps) ||s||_2.  The magnitude adds u per value.  So

        max|H_a - H_b| <= (eps sqrt(R A) + 2 rho sqrt(R A) (1 + eps) + 2u) M,

    and the factor returned rounds this up by 1 % to cover M against the
    computed maximum.  At n = 64, R = 64, A = 8 it is about 6e-13;
    measured differences are near 1e-15.  M is a max over every column,
    so the bound holds against the computed heatmap's max only when no
    column is masked out (antenna spacing at most half a wavelength, as in
    the default config).
    """
    eps = _U + _gamma(n_chirps - 1)
    cascade = _fft_rho(rows) + _steer_delta(n_antennas) * (1 + _fft_rho(rows))
    root = math.sqrt(rows * n_antennas)
    return 1.01 * (eps * root + 2 * cascade * root * (1 + eps) + 2 * _U)


def signed_mmw(payload):
    """An MMW1 file's bytes: the magic, ``payload`` and its CRC-32 trailer."""
    return b"MMW1" + payload + struct.pack("<I", zlib.crc32(payload))


def write_weights_with(path, weights, index, value):
    """Save ``weights``, then set entry ``index`` of the file's float32 block to ``value``.

    The block holds each layer's kernel, then its bias, flattened.  The
    file is re-signed, so only the loader's value check can refuse it.
    """
    save_weights(path, weights)
    payload = bytearray(path.read_bytes()[4:-4])
    n = sum(a.size for a in (*weights.kernels, *weights.biases))
    struct.pack_into("<f", payload, len(payload) - 4 * (n - index), value)
    path.write_bytes(signed_mmw(bytes(payload)))
