"""Forward simulator tests against closed-form signal arithmetic."""

import math

import numpy as np
import pytest

from radarplace.errors import ConfigError, DimensionError, RangeAliasingError
from radarplace.heatmap import generate_heatmap, heatmap_from_sum
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    Scatterer,
    _signal,
    scene_at_heading,
    simulate_chirp_sum,
    simulate_if_cube,
    simulate_platform_sweep,
    sweep_headings,
)

from conftest import chirp_sum_heatmap_bound, random_scene


def test_empty_scene_gives_zero_cube(small_cfg):
    cube = simulate_if_cube([], small_cfg)
    assert not np.any(cube.data)
    assert cube.dims == (64, 4, 8)


def test_boresight_scatterer_has_constant_antenna_phase(small_cfg):
    cube = simulate_if_cube([Scatterer(12.0, 0.0)], small_cfg)
    # zero phase progression: every antenna sees the same sample
    ref = cube.data[:, :, :1]
    assert np.allclose(cube.data, ref)


def test_beat_frequency_tone_at_10m():
    cfg = RadarConfig()
    # 2 d S / c with d = 10 m and S = 30e12 Hz/s is 2.001e6 Hz
    f_if = cfg.beat_frequency(10.0)
    assert f_if == pytest.approx(2.0e6, rel=1e-3)
    cube = simulate_if_cube([Scatterer(10.0, 0.0)], cfg)
    spectrum = np.abs(np.fft.fft(cube.data[:, 0, 0]))
    expected_bin = round(f_if * cfg.n_samples / cfg.sample_rate)
    assert expected_bin == 51
    assert int(np.argmax(spectrum)) == expected_bin


def test_simulation_is_linear_in_the_scene(small_cfg):
    a = [Scatterer(8.0, 0.2)]
    b = [Scatterer(20.0, -0.4, 1.5)]
    ab = simulate_if_cube(a + b, small_cfg)
    sep = simulate_if_cube(a, small_cfg).data + simulate_if_cube(b, small_cfg).data
    assert np.allclose(ab.data, sep)


def test_same_seed_reproduces_noise_exactly(small_cfg):
    scene = [Scatterer(15.0, 0.1)]
    c1 = simulate_if_cube(scene, small_cfg, noise_std=0.3, seed=42)
    c2 = simulate_if_cube(scene, small_cfg, noise_std=0.3, seed=42)
    assert np.array_equal(c1.data, c2.data)
    c3 = simulate_if_cube(scene, small_cfg, noise_std=0.3, seed=43)
    assert not np.array_equal(c1.data, c3.data)


def test_scatterer_beyond_unambiguous_range_rejected():
    cfg = RadarConfig()
    assert cfg.max_range == pytest.approx(49.965, abs=0.01)
    with pytest.raises(RangeAliasingError):
        simulate_if_cube([Scatterer(55.0, 0.0)], cfg)


def test_scatterer_outside_half_space_rejected(small_cfg):
    with pytest.raises(ConfigError):
        simulate_if_cube([Scatterer(10.0, math.pi / 2)], small_cfg)


def test_dominant_bin_tracks_range_over_a_sweep():
    cfg = RadarConfig(n_chirps=2, n_antennas=2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = float(rng.uniform(1.0, cfg.max_range * 0.95))
        cube = simulate_if_cube([Scatterer(d, 0.0)], cfg)
        spectrum = np.abs(np.fft.fft(cube.data[:, 0, 0]))
        expected = round(cfg.beat_frequency(d) * cfg.n_samples / cfg.sample_rate)
        assert int(np.argmax(spectrum)) == expected % cfg.n_samples


def test_config_validation():
    with pytest.raises(ConfigError):
        RadarConfig(slope=0.0)
    with pytest.raises(ConfigError):
        RadarConfig(n_samples=0)
    with pytest.raises(ConfigError):
        RadarConfig(fov_deg=200.0)
    with pytest.warns(UserWarning):
        RadarConfig(antenna_spacing=3.9e-3)  # full wavelength, ambiguous
    with pytest.raises(ConfigError):
        Scatterer(-1.0, 0.0)
    with pytest.raises(ConfigError):
        Scatterer(1.0, 0.0, amplitude=0.0)
    for fields in ((math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (10.0, math.nan, 1.0),
                   (10.0, -math.inf, 1.0), (10.0, 0.0, math.nan), (10.0, 0.0, math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            Scatterer(*fields)


def test_gain_taper_attenuates_off_boresight(small_cfg):
    cfg = RadarConfig(n_samples=64, n_chirps=4, n_antennas=8, gain_taper_exp=4.0)
    on = simulate_if_cube([Scatterer(10.0, 0.0)], cfg)
    off = simulate_if_cube([Scatterer(10.0, 1.0)], cfg)
    assert np.abs(off.data).max() < np.abs(on.data).max() * 0.2


def test_sweep_headings_nominal_step_and_reflection():
    pcfg = PlatformConfig()  # 150 deg/s at 10 Hz over 180 deg
    assert pcfg.nominal_step == pytest.approx(15.0)
    h = sweep_headings(pcfg, 16)
    assert np.allclose(h[:13], np.arange(13) * 15.0)
    # reflected leg walks back down from the 180 deg limit
    assert np.allclose(h[13:16], [165.0, 150.0, 135.0])


def test_single_frame_sweep_starts_at_zero():
    h = sweep_headings(PlatformConfig(), 1)
    assert h.shape == (1,) and h[0] == 0.0


def test_jittered_sweep_stays_within_limits():
    pcfg = PlatformConfig(jitter_std=3.0)
    h = sweep_headings(pcfg, 200, seed=9)
    assert np.all(h >= 0.0) and np.all(h <= 180.0)


def test_scene_at_heading_rotates_and_clips():
    cfg = RadarConfig()
    scene = [Scatterer(10.0, math.radians(90.0)), Scatterer(10.0, 0.0)]
    local = scene_at_heading(scene, 90.0, 300.0)
    # first scatterer lands on boresight; a wide FOV still sees the second
    assert len(local) == 2
    assert local[0].azimuth == pytest.approx(0.0)
    assert local[1].azimuth == pytest.approx(-math.pi / 2)
    local = scene_at_heading(scene, 90.0, 120.0)
    assert len(local) == 1


def test_platform_sweep_returns_true_headings(small_cfg):
    scene = random_scene(np.random.default_rng(0), 3)
    frames = simulate_platform_sweep(scene, small_cfg, PlatformConfig(), 5, seed=1)
    assert len(frames) == 5
    assert [h for _, h in frames] == [0.0, 15.0, 30.0, 45.0, 60.0]
    again = simulate_platform_sweep(scene, small_cfg, PlatformConfig(), 5, seed=1)
    for (c1, _), (c2, _) in zip(frames, again):
        assert np.array_equal(c1.data, c2.data)


def _simulate_reference(scene, cfg, noise_std=0.0, seed=0):
    """The earlier simulate_if_cube: every scatterer added into the 3-D cube."""
    n_s, n_c, n_r = cfg.n_samples, cfg.n_chirps, cfg.n_antennas
    cube = np.zeros((n_s, n_c, n_r), dtype=np.complex128)
    i = np.arange(n_s)
    k = np.arange(n_r)
    for sc in scene:
        amp = sc.amplitude
        if cfg.gain_taper_exp > 0:
            amp *= max(math.cos(sc.azimuth), 0.0) ** cfg.gain_taper_exp
        tone = np.exp(2j * math.pi * cfg.beat_frequency(sc.range) * i / cfg.sample_rate)
        steer = np.exp(1j * cfg.phase_step(sc.azimuth) * k)
        cube += amp * tone[:, None, None] * steer[None, None, :]
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = noise_std / math.sqrt(2.0)
        cube += scale * (rng.standard_normal(cube.shape) + 1j * rng.standard_normal(cube.shape))
    return cube


def _simulate_if_cube_reference(scene, cfg, noise_std=0.0, seed=0):
    """The earlier simulate_if_cube: its own scatterer loop over all samples, repeated."""
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    n_s, n_c, n_r = cfg.n_samples, cfg.n_chirps, cfg.n_antennas
    signal = np.zeros((n_s, n_r), dtype=np.complex128)
    i = np.arange(n_s)
    k = np.arange(n_r)
    for sc in scene:
        if sc.range >= cfg.max_range:
            raise RangeAliasingError("aliases")
        if abs(sc.azimuth) >= math.pi / 2:
            raise ConfigError("outside sensor half-space")
        amp = sc.amplitude
        if cfg.gain_taper_exp > 0:
            amp *= max(math.cos(sc.azimuth), 0.0) ** cfg.gain_taper_exp
        f_if = cfg.beat_frequency(sc.range)
        omega = cfg.phase_step(sc.azimuth)
        tone = np.exp(2j * math.pi * f_if * i / cfg.sample_rate)
        steer = np.exp(1j * omega * k)
        signal += amp * tone[:, None] * steer[None, :]
    cube = np.repeat(signal[:, None, :], n_c, axis=1)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = noise_std / math.sqrt(2.0)
        cube.real += scale * rng.standard_normal(cube.shape)
        cube.imag += scale * rng.standard_normal(cube.shape)
    return cube


def test_signal_built_once_matches_per_chirp_accumulation():
    rng = np.random.default_rng(8)
    configs = [
        RadarConfig(n_samples=64, n_chirps=1, n_antennas=8),
        RadarConfig(n_samples=64, n_chirps=4, n_antennas=8, gain_taper_exp=0.0),
        RadarConfig(n_samples=128, n_chirps=16, n_antennas=4, gain_taper_exp=2.0),
    ]
    for case in range(60):
        cfg = configs[case % 3]
        scene = random_scene(rng, case % 9, range_hi=30.0, az_limit_deg=80.0)
        for noise_std in (0.0, 0.3):
            got = simulate_if_cube(scene, cfg, noise_std=noise_std, seed=case)
            assert np.array_equal(got.data, _simulate_reference(scene, cfg, noise_std, case))
            want = _simulate_if_cube_reference(scene, cfg, noise_std, case)
            assert np.array_equal(got.data, want)


@pytest.mark.parametrize("scene, error", [
    ([Scatterer(55.0, 0.0)], RangeAliasingError),
    ([Scatterer(10.0, 0.1), Scatterer(10.0, -math.pi / 2)], ConfigError),
])
def test_cube_and_chirp_sum_reject_what_the_earlier_cube_rejected(scene, error):
    cfg = RadarConfig(n_chirps=4)
    for simulate in (_simulate_if_cube_reference, simulate_if_cube,
                     lambda sc, c, *a: simulate_chirp_sum(sc, c, 64, *a)):
        with pytest.raises(error):
            simulate(scene, cfg)
        with pytest.raises(ConfigError):
            simulate([Scatterer(10.0, 0.1)], cfg, -0.1)


def test_chirp_sum_rows_stay_within_the_chirp(small_cfg):
    scene = [Scatterer(10.0, 0.1)]
    assert simulate_chirp_sum(scene, small_cfg, 64).shape == (64, 8)
    assert simulate_chirp_sum(scene, small_cfg, 1).shape == (1, 8)
    for rows in (65, 0, -3):
        with pytest.raises(DimensionError):
            simulate_chirp_sum(scene, small_cfg, rows)


CHIRP_SUM_CASES = [
    # config, heatmap rows, heatmap cols
    (RadarConfig(), 64, 96),
    (RadarConfig(), 64, 192),
    (RadarConfig(), 256, 8),
    (RadarConfig(n_chirps=4), 64, 96),
    (RadarConfig(n_samples=128, n_chirps=16, n_antennas=4, gain_taper_exp=2.0), 32, 64),
]


@pytest.mark.parametrize("cfg, rows, cols", CHIRP_SUM_CASES)
def test_noise_free_chirp_sum_heatmap_matches_the_cube_path(cfg, rows, cols):
    """Oracle: the bound of ``chirp_sum_heatmap_bound``, derived in its docstring."""
    n = cfg.n_chirps
    u = 2.0**-53
    eps = u + (n - 1) * u / (1 - (n - 1) * u)
    bound = chirp_sum_heatmap_bound(n, rows, cfg.n_antennas, cols)
    rng = np.random.default_rng(rows + cols + n)
    for case in range(30):
        scene = random_scene(rng, 1 + case % 8, range_lo=1.0, range_hi=45.0,
                             az_limit_deg=80.0)
        x = _signal(scene, cfg, rows)
        # the premise of the bound: both paths see the same chirp-invariant signal
        assert np.array_equal(x, _signal(scene, cfg, cfg.n_samples)[:rows])
        summed = simulate_chirp_sum(scene, cfg, rows)
        cube_sum = simulate_if_cube(scene, cfg).data[:rows].sum(axis=1)
        s = n * np.abs(x.real), n * np.abs(x.imag)
        # eps (1 + 4u) covers rounding the right-hand side itself
        assert np.all(np.abs(summed.real - cube_sum.real) <= eps * (1 + 4 * u) * s[0])
        assert np.all(np.abs(summed.imag - cube_sum.imag) <= eps * (1 + 4 * u) * s[1])
        got = heatmap_from_sum(summed, cfg, cols)
        want = generate_heatmap(simulate_if_cube(scene, cfg), cfg, (rows, cols))
        assert got.values.shape == want.values.shape
        assert np.max(np.abs(got.values - want.values)) <= bound * np.max(want.values)
        assert got.range_bin_m == want.range_bin_m
        assert np.array_equal(got.angle_axis, want.angle_axis)


def test_noise_only_chirp_sums_follow_the_cube_paths_law():
    """Noise-only chirp sums: per-cell mean and variance against the cube path's.

    K = 2000 fixed seeds per path, one (rows, antennas) = (8, 4) sum each,
    real and imaginary parts taken as 64 cells.  Both paths should give
    every cell the law N(0, n_chirps * noise_std**2 / 2).  With that
    variance v, a two-sample difference of means has standard deviation
    sqrt(2 v / K), and one of sample variances about v sqrt(2 * 2 / (K - 1)).
    Every |z| must stay below 5, for each cell and for the 64 cells pooled;
    under the law, any of the 130 |z| reaches 5 with probability below 1e-4.
    Dropping ``sqrt(n_chirps)`` or the 1/sqrt(2), or scaling by n_chirps,
    moves the pooled variance z past 100; sqrt(n_chirps - 1) moves it past 10.
    """
    cfg = RadarConfig(n_samples=16, n_chirps=16, n_antennas=4)
    rows, noise_std, k = 8, 0.3, 2000
    fast = np.stack([simulate_chirp_sum([], cfg, rows, noise_std, seed) for seed in range(k)])
    cube = np.stack([
        simulate_if_cube([], cfg, noise_std, seed=10_000 + seed).data[:rows].sum(axis=1)
        for seed in range(k)
    ])
    fast = np.concatenate([fast.real, fast.imag], axis=2).reshape(k, -1)
    cube = np.concatenate([cube.real, cube.imag], axis=2).reshape(k, -1)
    var = cfg.n_chirps * noise_std**2 / 2
    z_mean = (fast.mean(axis=0) - cube.mean(axis=0)) / math.sqrt(2 * var / k)
    z_var = (fast.var(axis=0, ddof=1) - cube.var(axis=0, ddof=1)) / (var * math.sqrt(4 / (k - 1)))
    n = fast.size
    z_pooled = (fast.var() - cube.var()) / (var * math.sqrt(4 / (n - 1)))
    z_pooled_mean = (fast.mean() - cube.mean()) / math.sqrt(2 * var / n)
    assert np.max(np.abs(z_mean)) < 5 and np.max(np.abs(z_var)) < 5
    assert abs(z_pooled) < 5 and abs(z_pooled_mean) < 5
