"""Synthetic-world rendering: sweep seeding and view selection."""

from dataclasses import replace

import numpy as np
import pytest

from radarplace import encoder as enc
from radarplace import synth
from radarplace.errors import ConfigError, DimensionError, RangeAliasingError
from radarplace.heatmap import angle_axis_for, generate_heatmap, heatmaps_from_sums
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    scene_at_heading,
    simulate_chirp_sum,
    simulate_if_cube,
    simulate_platform_sweep,
    sweep_headings,
    sweep_schedule,
)

from conftest import angle_sum_heatmap_bound, chirp_sum_heatmap_bound

CFG = RadarConfig(n_chirps=4)


def _world(seed, n_places=3):
    return synth.build_world(synth.WorldConfig(
        n_places=n_places, range_lo=9.0, heatmap_rows=64, heatmap_cols=96,
        mosaic_cols=256, seed=seed,
    ))


def _render_sweep_reference(world, place_idx, cfg, pcfg, n_frames,
                            body_heading_deg=0.0, lateral=(0.0, 0.0), seed=0):
    """render_sweep with its own SeedSequence split and frame loop."""
    wcfg = world.cfg
    scene = synth._scene_from(world.places[place_idx], lateral)
    headings = sweep_headings(pcfg, n_frames, seed=seed % (2**32))
    noise = np.random.SeedSequence(seed).spawn(2)[1]
    noise_seeds = [int(s.generate_state(1)[0]) for s in noise.spawn(n_frames)]
    frames = []
    for f in range(n_frames):
        local = scene_at_heading(scene, body_heading_deg + headings[f], cfg.fov_deg)
        summed = simulate_chirp_sum([local], cfg, wcfg.heatmap_rows, wcfg.noise_std,
                                    [noise_seeds[f]])
        frames.append(heatmaps_from_sums(summed, cfg, wcfg.heatmap_cols)[0])
    return frames


def _heatmap_from_sum_reference(summed, cfg, cols):
    """The earlier cascade: range FFT, zero-padded angle FFT, fftshift, magnitude, column mask."""
    spec = np.fft.fft(np.fft.fft(summed, axis=0), n=cols, axis=1)
    values = np.abs(np.fft.fftshift(spec, axes=1))
    axis, valid = angle_axis_for(cfg, cols)
    return values[:, valid], axis[valid]


def _render_view_reference(world, place_idx, cfg, heading_deg, lateral, seed):
    """render_view as the earlier per-frame path: rotate the scene, then simulate."""
    wcfg = world.cfg
    scene = synth._scene_from(world.places[place_idx], lateral)
    local = scene_at_heading(scene, heading_deg, cfg.fov_deg)
    summed = simulate_chirp_sum([local], cfg, wcfg.heatmap_rows, wcfg.noise_std, [seed])[0]
    return _heatmap_from_sum_reference(summed, cfg, wcfg.heatmap_cols)


CASES = [
    # world seed, place, platform, body heading, lateral, sweep seed
    (0, 0, PlatformConfig(), 0.0, (0.0, 0.0), 0),
    (1, 2, PlatformConfig(jitter_std=1.0), -17.5, (0.4, -0.3), 12),
    (2, 1, PlatformConfig(jitter_std=2.0, sweep_extent=90.0), 33.0, (-0.8, 0.1), 2**40 + 5),
]


@pytest.mark.parametrize("world_seed, place, pcfg, heading, lateral, seed", CASES)
def test_render_sweep_matches_own_seeding_loop(world_seed, place, pcfg, heading, lateral, seed):
    world = _world(world_seed)
    got = synth.render_sweep(world, place, CFG, pcfg, 14, heading, lateral, seed)
    want = _render_sweep_reference(world, place, CFG, pcfg, 14, heading, lateral, seed)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.angle_axis, w.angle_axis)
        assert g.range_bin_m == w.range_bin_m


VIEW_CONFIGS = [
    RadarConfig(n_chirps=4),
    RadarConfig(gain_taper_exp=0.0),
    RadarConfig(gain_taper_exp=2.5, fov_deg=90.0, n_antennas=4),
]


@pytest.mark.parametrize("case", range(6))
def test_render_view_matches_the_per_frame_path(case):
    rng = np.random.default_rng(700 + case)
    cfg = VIEW_CONFIGS[case % len(VIEW_CONFIGS)]
    world = synth.build_world(synth.WorldConfig(
        n_places=3, range_lo=float(rng.uniform(1.0, 9.0)), scatterers_per_place=12,
        heatmap_rows=int(rng.choice([16, 64])), heatmap_cols=int(rng.choice([8, 33, 96])),
        noise_std=float(rng.choice([0.0, 0.05, 0.3])), seed=case,
    ))
    bound = angle_sum_heatmap_bound(cfg.n_antennas, world.cfg.heatmap_cols)
    for _ in range(25):
        place = int(rng.integers(3))
        heading = float(rng.uniform(-400.0, 400.0))
        lateral = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        seed = int(rng.integers(2**63))
        got = synth.render_view(world, place, cfg, heading, lateral, seed)
        values, axis = _render_view_reference(world, place, cfg, heading, lateral, seed)
        assert got.values.shape == values.shape
        # the direct angle sum rounds apart from the FFT; no column is masked at these spacings
        assert np.max(np.abs(got.values - values)) <= bound * np.max(values)
        assert got.angle_axis.tobytes() == axis.tobytes()


@pytest.mark.parametrize("world_seed, place, pcfg, _, lateral, seed", CASES)
def test_platform_sweep_cubes_rebuild_render_sweep(world_seed, place, pcfg, _, lateral, seed):
    world = _world(world_seed)
    quiet = synth.World(replace(world.cfg, noise_std=0.0), world.places)
    wcfg = quiet.cfg
    scene = synth._scene_from(world.places[place], lateral)
    cubes = simulate_platform_sweep(scene, CFG, pcfg, 9, seed=seed)
    assert [h for _, h in cubes] == [h for h, _ in sweep_schedule(pcfg, 9, seed)]
    rebuilt = [generate_heatmap(c, CFG, (wcfg.heatmap_rows, wcfg.heatmap_cols)) for c, _ in cubes]
    frames = synth.render_sweep(quiet, place, CFG, pcfg, 9, 0.0, lateral, seed)
    bound = chirp_sum_heatmap_bound(CFG.n_chirps, wcfg.heatmap_rows, CFG.n_antennas)
    for r, f in zip(rebuilt, frames, strict=True):
        assert np.max(np.abs(r.values - f.values)) <= bound * np.max(r.values)


def _one_place_world(points, **wcfg):
    """One place at the origin with the given (x, y, amplitude) reflectors."""
    cfg = synth.WorldConfig(**{"n_places": 1, "heatmap_rows": 64, "heatmap_cols": 96, **wcfg})
    return synth.World(cfg, [synth.Place((0.0, 0.0), np.asarray(points, dtype=float))])


def _one_point_world(range_m, **wcfg):
    """One place with a single reflector straight ahead at ``range_m``."""
    return _one_place_world([[range_m, 0.0, 1.0]], **wcfg)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 5])
def test_every_frame_of_a_sweep_carries_its_own_noise(seed):
    pcfg = PlatformConfig(jitter_std=1.0)
    schedule = sweep_schedule(pcfg, 4, seed)
    noise_seeds = [s for _, s in schedule]
    assert len(set(noise_seeds)) == 4
    # the jitter stream has its own seed, not frame 0's noise seed
    headings = [h for h, _ in schedule]
    assert headings != list(sweep_headings(pcfg, 4, seed=noise_seeds[0]))
    frames = synth.render_sweep(_one_place_world(np.zeros((0, 3))), 0, CFG, pcfg, 4, seed=seed)
    cubes = simulate_platform_sweep([], CFG, pcfg, 4, noise_std=0.05, seed=seed)
    for f in range(1, 4):
        assert not np.array_equal(frames[0].values, frames[f].values)
        assert not np.array_equal(cubes[0][0].data, cubes[f][0].data)


def _assert_render_paths_raise(world, cfg, error):
    """render_view, render_sweep and the rotated cube path all raise ``error``."""
    with pytest.raises(error):
        synth.render_view(world, 0, cfg)
    with pytest.raises(error):
        synth.render_sweep(world, 0, cfg, PlatformConfig(), 3)
    scene = synth._scene_from(world.places[0], (0.0, 0.0))
    with pytest.raises(error):
        cube = simulate_if_cube(scene_at_heading(scene, 0.0, cfg.fov_deg), cfg,
                                world.cfg.noise_std)
        generate_heatmap(cube, cfg, (world.cfg.heatmap_rows, world.cfg.heatmap_cols))


@pytest.mark.parametrize("world, error", [
    (_one_point_world(10.0, heatmap_rows=257), DimensionError),
    (_one_point_world(10.0, heatmap_cols=7), DimensionError),
    (_one_point_world(55.0), RangeAliasingError),
    (_one_point_world(10.0, noise_std=-0.1), ConfigError),
    (_one_point_world(10.0, noise_std=np.inf), ConfigError),
])
def test_render_path_raises_what_the_cube_path_raised(world, error):
    cfg = RadarConfig(n_chirps=4)
    assert synth.render_view(_one_point_world(10.0), 0, cfg).values.shape == (64, 96)
    _assert_render_paths_raise(world, cfg, error)


@pytest.mark.parametrize("cfg, error", [
    (RadarConfig(n_chirps=4, n_samples=32), DimensionError),
    (RadarConfig(n_chirps=4, n_antennas=128), DimensionError),
    (RadarConfig(n_chirps=4, sample_rate=1.0e6), RangeAliasingError),
])
def test_render_paths_raise_alike_for_a_bad_radar_config(cfg, error):
    _assert_render_paths_raise(_one_point_world(10.0), cfg, error)


def test_reference_db_mode_selects_frame_or_mosaic():
    world = _world(4, n_places=2)
    pcfg = PlatformConfig(jitter_std=1.0)
    frame_w = enc.init_weights(enc.EncoderArch(input_shape=(64, 96)), 0)
    mosaic_w = enc.init_weights(enc.EncoderArch(input_shape=(64, 256)), 0)
    cases = (
        ("none", frame_w, lambda i: synth.render_view(world, i, CFG, seed=9 + i)),
        ("relpose", mosaic_w,
         lambda i: synth.mosaic_view(world, i, CFG, pcfg, mode="relpose", seed=9 + i)),
    )
    for mode, w, view in cases:
        db = synth.build_reference_db(world, CFG, w, seed=9, pcfg=pcfg, mode=mode)
        for i, rec in enumerate(db.records):
            want = enc.encode(view(i), w).values.astype(np.float32)
            assert np.array_equal(rec.descriptor, want)


@pytest.mark.parametrize("field", ["heatmap_rows", "heatmap_cols", "mosaic_cols"])
def test_world_config_rejects_sizes_below_1(field):
    for value in (0, -3):
        with pytest.raises(ConfigError):
            synth.WorldConfig(**{field: value})


def test_world_config_rejects_negative_scatterer_count():
    assert synth.WorldConfig(scatterers_per_place=0).scatterers_per_place == 0
    with pytest.raises(ConfigError):
        synth.WorldConfig(scatterers_per_place=-1)


def test_world_config_rejects_a_layout_that_overflows_float64():
    # place distances are squared on the way to a norm: (spacing * (n - 1))**2 must be finite
    assert synth.WorldConfig(spacing_m=1e150, n_places=6).spacing_m == 1e150
    assert synth.WorldConfig(spacing_m=1e308, n_places=1).n_places == 1
    for spacing in (1e308, 1e200, 1e155, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            synth.WorldConfig(spacing_m=spacing, n_places=6)


def test_evaluate_rejects_fewer_than_one_query_per_cell():
    world = _world(0)
    w = enc.init_weights(enc.EncoderArch(input_shape=(64, 96)), 0)
    for n in (0, -2):
        with pytest.raises(ConfigError):
            synth.evaluate(world, CFG, w, queries_per_cell=n)


def test_evaluate_rejects_an_unknown_concat_mode():
    w = enc.init_weights(enc.EncoderArch(input_shape=(64, 96)), 0)
    with pytest.raises(ConfigError, match="unknown concat mode 'mosaic'"):
        synth.evaluate(_world(0), CFG, w, concat_mode="mosaic")
