"""Forward simulator tests against closed-form signal arithmetic."""

import math

import numpy as np
import pytest

from radarplace.errors import ConfigError, RangeAliasingError
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    Scatterer,
    scene_at_heading,
    simulate_if_cube,
    simulate_platform_sweep,
    sweep_headings,
)

from conftest import random_scene


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
