"""Synthetic-world rendering: sweep seeding and view selection."""

import numpy as np
import pytest

from radarplace import encoder as enc
from radarplace import synth
from radarplace.heatmap import generate_heatmap, resize_cube
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    scene_at_heading,
    simulate_if_cube,
    simulate_platform_sweep,
    sweep_headings,
)

CFG = RadarConfig(n_chirps=4)


def _world(seed, n_places=3):
    return synth.build_world(synth.WorldConfig(
        n_places=n_places, range_lo=9.0, heatmap_rows=64, heatmap_cols=96,
        mosaic_cols=256, seed=seed,
    ))


def _render_sweep_reference(world, place_idx, cfg, pcfg, n_frames,
                            body_heading_deg=0.0, lateral=(0.0, 0.0), seed=0):
    """render_sweep with its own SeedSequence split (the earlier code)."""
    wcfg = world.cfg
    scene = synth._scene_from(world.places[place_idx], lateral)
    ss = np.random.SeedSequence(seed)
    jitter, noise = ss.spawn(2)
    headings = sweep_headings(pcfg, n_frames, seed=jitter.entropy % (2**32))
    noise_seeds = [s.entropy % (2**32) for s in noise.spawn(n_frames)]
    frames = []
    for f in range(n_frames):
        local = scene_at_heading(scene, body_heading_deg + headings[f], cfg.fov_deg)
        cube = simulate_if_cube(local, cfg, noise_std=wcfg.noise_std, seed=noise_seeds[f])
        cube = resize_cube(cube, wcfg.heatmap_rows, wcfg.heatmap_cols)
        frames.append(generate_heatmap(cube, cfg))
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
    wcfg = world.cfg
    scene = synth._scene_from(world.places[place], lateral)
    cubes = simulate_platform_sweep(scene, CFG, pcfg, 9, noise_std=wcfg.noise_std, seed=seed)
    rebuilt = [
        generate_heatmap(resize_cube(c, wcfg.heatmap_rows, wcfg.heatmap_cols), CFG)
        for c, _ in cubes
    ]
    frames = synth.render_sweep(world, place, CFG, pcfg, 9, 0.0, lateral, seed)
    for r, f in zip(rebuilt, frames, strict=True):
        assert np.array_equal(r.values, f.values)


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
