"""The heatmap against its physics: a noise-free point reflector's closed form."""

import math

import numpy as np
import pytest

from radarplace.heatmap import angle_axis_for, heatmaps_from_sums
from radarplace.radar import SPEED_OF_LIGHT, RadarConfig, Scatterer, simulate_chirp_sum

from conftest import _U, _fft_rho, _gamma, _steer_delta

ROWS, COLS = 64, 96


def _dirichlet(n, x):
    """|D_n(x)| = |sin(pi n x) / sin(pi x)|, n at the integers, in long double.

    |D_n| has period 1, so x is first reduced to [-1/2, 1/2] by an exact
    subtraction.
    """
    x = np.asarray(x, dtype=np.longdouble)
    x = x - np.round(x)
    safe = np.where(x == 0, 1, x)
    pi = 4 * np.arctan(np.longdouble(1))  # math.pi would carry float64's rounding
    return np.where(x == 0, n, np.abs(np.sin(pi * n * safe) / np.sin(pi * safe)))


def _point_heatmap_bound(cfg, nu, phi):
    """Largest error of a computed point-reflector heatmap, in units of its amplitude.

    The chirp sum of a reflector at beat frequency f and azimuth theta is
    x_ik = a e^{2 pi i nu i} e^{2 pi i phi k}, with a = n_chirps amp
    cos(theta)**taper, nu = f / sample_rate and phi = antenna_spacing
    sin(theta) / wavelength, over R = ``ROWS`` samples i and A antennas k.
    The exact heatmap T x, the range DFT, the steering sum of column j at
    bin m_j and the modulus, is a |D_R(nu - m/R)| |D_A(phi - m_j/C)|.
    Its computed value errs from that in three ways (u = 2**-53 and
    gamma_k = k u / (1 - k u), as in Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed.):

    - The signal.  The tone phase theta_i = 2 pi nu i is rounded six times
      (pi, the slope product and light-speed quotient of f, the 2 pi f
      product, the product with i, the quotient by the sample rate), so it
      errs by at most gamma_6 theta_i.  The antenna phase psi_k = 2 pi phi
      k is rounded five times (pi, the spacing product, sin, the wavelength
      quotient, the product with k), at most gamma_6 |psi_k|.  The rest is
      relative to a: the two exps (2u each), the taper (2u) and the
      products with amp, the steering term and n_chirps (u, sqrt(2)
      gamma_2, u), below c0 = 12u in all.  Every output of T is a sum of
      the R A inputs times unit-modulus factors, so the signal's error
      moves it by at most the 1-norm of that error:
      a (gamma_6 (A sum_i theta_i + R sum_k |psi_k|) + c0 R A).
    - The cascade.  The computed range FFT is F_R (y + dy) with
      ||dy||_2 <= rho_R ||y||_2 (Higham Thm 24.2, ``_fft_rho``), and the
      steering product errs by delta_A times the row's 1-norm
      (section 3.6, ``_steer_delta``).  As in ``chirp_sum_heatmap_bound``
      this is at most sqrt(R A) rho ||y||_2 per output, rho = rho_R +
      delta_A (1 + rho_R), and ||y||_2 = a sqrt(R A).
    - The modulus adds u of a value at most a R A.

    So max|H - H_exact| <= a (gamma_6 (A sum theta + R sum|psi|) + c0 R A
    + R A rho + u R A), and the factor returned rounds it up by 1 % for
    the products of these errors.  The tone's phase dominates: at 33.3 m
    the bound is about 1.3e-13 of the heatmap's peak.  The expected value
    is computed in long double, so its own rounding is far below this
    where long double is wider than float64.
    """
    r, a = ROWS, cfg.n_antennas
    sum_theta = 2 * math.pi * abs(nu) * r * (r - 1) / 2
    sum_psi = 2 * math.pi * abs(phi) * a * (a - 1) / 2
    signal = _gamma(6) * (a * sum_theta + r * sum_psi) + 12 * _U * r * a
    rho = _fft_rho(r) + _steer_delta(a) * (1 + _fft_rho(r))
    return 1.01 * (signal + r * a * (rho + _U))


@pytest.mark.parametrize("range_m, azimuth, amp", [
    (12.3, 0.2, 1.0), (25.0, -0.7, 1.7), (7.77, 0.0, 0.6), (33.3, 0.95, 2.0)])
def test_point_reflector_heatmap_is_the_product_of_two_dirichlet_kernels(range_m, azimuth, amp):
    cfg = RadarConfig()
    summed = simulate_chirp_sum([[Scatterer(range_m, azimuth, amp)]], cfg, ROWS, 0.0, [0])
    got = heatmaps_from_sums(summed, cfg, COLS)[0].values

    ld = np.longdouble
    nu = ld(2) * ld(range_m) * ld(cfg.slope) / ld(SPEED_OF_LIGHT) / ld(cfg.sample_rate)
    phi = ld(cfg.antenna_spacing) * np.sin(ld(azimuth)) / ld(cfg.wavelength)
    gain = cfg.n_chirps * amp * np.cos(ld(azimuth)) ** cfg.gain_taper_exp
    _, valid = angle_axis_for(cfg, COLS)
    bins = np.fft.fftshift(np.arange(COLS))[valid]
    want = (gain * _dirichlet(ROWS, nu - np.arange(ROWS) / ld(ROWS))[:, None]
            * _dirichlet(cfg.n_antennas, phi - bins / ld(COLS))[None, :])

    assert got.shape == want.shape == (ROWS, COLS)
    err = float(np.abs(got - want).max())
    assert err <= _point_heatmap_bound(cfg, float(nu), float(phi)) * float(gain)
