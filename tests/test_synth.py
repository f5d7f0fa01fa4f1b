"""Synthetic-world rendering: sweep seeding and view selection."""

from dataclasses import replace

import numpy as np
import pytest

from radarplace import encoder as enc
from radarplace import synth
from radarplace.errors import ConfigError, DimensionError, RangeAliasingError
from radarplace.heatmap import generate_heatmap, heatmap_from_sum
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    scene_at_heading,
    simulate_chirp_sum,
    simulate_platform_sweep,
    sweep_headings,
    sweep_schedule,
)

from conftest import chirp_sum_heatmap_bound

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
        summed = simulate_chirp_sum(local, cfg, wcfg.heatmap_rows, wcfg.noise_std, noise_seeds[f])
        frames.append(heatmap_from_sum(summed, cfg, wcfg.heatmap_cols))
    return frames


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
    bound = chirp_sum_heatmap_bound(CFG.n_chirps, wcfg.heatmap_rows, CFG.n_antennas,
                                    wcfg.heatmap_cols)
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


@pytest.mark.parametrize("world, error", [
    (_one_point_world(10.0, heatmap_rows=257), DimensionError),
    (_one_point_world(10.0, heatmap_cols=7), DimensionError),
    (_one_point_world(55.0), RangeAliasingError),
    (_one_point_world(10.0, noise_std=-0.1), ConfigError),
])
def test_render_path_raises_what_the_cube_path_raised(world, error):
    cfg = RadarConfig(n_chirps=4)
    assert synth.render_view(_one_point_world(10.0), 0, cfg).values.shape == (64, 96)
    with pytest.raises(error):
        synth.render_view(world, 0, cfg)
    with pytest.raises(error):
        synth.render_sweep(world, 0, cfg, PlatformConfig(), 3)


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


def test_evaluate_rejects_fewer_than_one_query_per_cell():
    world = _world(0)
    w = enc.init_weights(enc.EncoderArch(input_shape=(64, 96)), 0)
    for n in (0, -2):
        with pytest.raises(ConfigError):
            synth.evaluate(world, CFG, w, queries_per_cell=n)
