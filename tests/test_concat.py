"""Registration, cycle detection, and mosaicking tests."""

import math

import numpy as np
import pytest

from radarplace.concat import (
    CycleSegment,
    PoseOffset,
    concat_fixed_step,
    concat_relative_pose,
    default_a_window,
    detect_cycles,
    estimate_offset,
    register_sequence,
    signs_consistent,
    translate,
)
from radarplace import synth
from radarplace.errors import AlignmentError, ConfigError, DimensionError, NoRotationError
from radarplace.heatmap import Heatmap, generate_heatmap, resize_cube
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    Scatterer,
    simulate_platform_sweep,
)

from conftest import random_heatmap_values, random_scene


def _hm(values):
    values = np.asarray(values, dtype=float)
    return Heatmap(values, 1.0, np.linspace(-1.0, 1.0, values.shape[1]))


def test_identity_registration():
    rng = np.random.default_rng(0)
    h = _hm(random_heatmap_values(rng, 16, 24))
    off = estimate_offset(h, h, 4, 6)
    assert (off.r_offset, off.a_offset) == (0, 0)
    assert off.score == pytest.approx(1.0)


def test_constructed_translation_is_recovered():
    rng = np.random.default_rng(1)
    vals = random_heatmap_values(rng, 20, 30)
    moved = translate(vals, 3, 5)
    off = estimate_offset(_hm(vals), _hm(moved), 6, 8)
    assert (off.r_offset, off.a_offset) == (3, 5)
    assert off.score == pytest.approx(1.0)


def test_registration_antisymmetry():
    rng = np.random.default_rng(2)
    a = _hm(random_heatmap_values(rng, 18, 26))
    b = _hm(translate(a.values, -2, 4))
    fwd = estimate_offset(a, b, 5, 7)
    rev = estimate_offset(b, a, 5, 7)
    assert (fwd.r_offset, fwd.a_offset) == (-2, 4)
    assert (rev.r_offset, rev.a_offset) == (2, -4)


def test_registration_shift_equivariance():
    rng = np.random.default_rng(3)
    base = random_heatmap_values(rng, 24, 32)
    a = _hm(translate(base, 1, 1))
    b = _hm(translate(base, 3, 6))
    off = estimate_offset(a, b, 5, 8)
    assert (off.r_offset, off.a_offset) == (2, 5)


def test_constant_map_ties_break_to_zero():
    h = _hm(np.ones((10, 12)))
    off = estimate_offset(h, h, 3, 3)
    assert (off.r_offset, off.a_offset) == (0, 0)


def test_all_zero_maps_raise():
    z = _hm(np.zeros((10, 12)))
    with pytest.raises(AlignmentError):
        estimate_offset(z, z, 3, 3)


def test_dim_mismatch_and_bad_windows():
    rng = np.random.default_rng(4)
    a = _hm(random_heatmap_values(rng, 10, 12))
    b = _hm(random_heatmap_values(rng, 10, 14))
    with pytest.raises(DimensionError):
        estimate_offset(a, b, 2, 2)
    with pytest.raises(ConfigError):
        estimate_offset(a, a, -1, 2)


def test_translate_zero_fills():
    vals = np.arange(12.0).reshape(3, 4)
    out = translate(vals, 1, 2)
    assert out[0].sum() == 0 and out[:, :2].sum() == 0
    assert out[1, 2] == vals[0, 0]


def test_detect_cycles_sign_runs():
    def po(a):
        return PoseOffset(0, a, 1.0)

    segs = detect_cycles([po(2), po(3), po(1), po(-2), po(-1), po(-3)])
    assert [(s.start_idx, s.end_idx, s.direction) for s in segs] == [
        (0, 2, 1),
        (3, 5, -1),
    ]
    # zeros are absorbed; leading zeros join the first run
    segs = detect_cycles([po(0), po(2), po(0), po(1), po(-1)])
    assert [(s.start_idx, s.end_idx, s.direction) for s in segs] == [
        (0, 3, 1),
        (4, 4, -1),
    ]
    with pytest.raises(NoRotationError):
        detect_cycles([po(0), po(0)])
    with pytest.raises(ConfigError):
        detect_cycles([])


def test_cycles_cover_and_are_disjoint():
    rng = np.random.default_rng(7)
    offs = [PoseOffset(0, int(rng.integers(-3, 4)), 1.0) for _ in range(40)]
    if not any(o.a_offset for o in offs):
        offs[0] = PoseOffset(0, 1, 1.0)
    segs = detect_cycles(offs)
    assert segs[0].start_idx == 0 and segs[-1].end_idx == len(offs) - 1
    for prev, nxt in zip(segs, segs[1:]):
        assert nxt.start_idx == prev.end_idx + 1
        assert nxt.direction == -prev.direction
    for seg in segs:
        assert signs_consistent(offs, seg)


def test_signs_consistent_flags_mixed_run():
    offs = [PoseOffset(0, 1, 1.0), PoseOffset(0, -1, 1.0)]
    assert not signs_consistent(offs, CycleSegment(0, 1, 1))
    assert signs_consistent(offs, CycleSegment(0, 0, 1))


def test_platform_sweep_produces_three_alternating_cycles():
    cfg = RadarConfig(n_samples=64, n_chirps=4, n_antennas=8)
    rng = np.random.default_rng(11)
    # scatterers cover the whole sweep span so no frame is empty
    scene = [
        Scatterer(float(rng.uniform(8.0, 40.0)), math.radians(az))
        for az in range(-45, 226, 15)
    ]
    frames = simulate_platform_sweep(scene, cfg, PlatformConfig(), 36, seed=2)
    maps = [
        generate_heatmap(resize_cube(c, 64, 96), cfg) for c, _ in frames
    ]
    aw = default_a_window(96)
    offsets = [PoseOffset(0, 0, 1.0)]
    for prev, cur in zip(maps, maps[1:]):
        offsets.append(estimate_offset(prev, cur, 2, aw))
    segs = detect_cycles(offsets[1:])
    assert len(segs) == 3
    for seg in segs:
        assert abs(len(seg) - 12) <= 1


def test_single_frame_concat_is_identity():
    rng = np.random.default_rng(8)
    h = _hm(random_heatmap_values(rng, 12, 16))
    out = concat_relative_pose([h], CycleSegment(0, 0, 1), [PoseOffset(0, 0, 1.0)])
    assert np.array_equal(out.values, h.values)
    assert np.array_equal(out.angle_axis, h.angle_axis)


def test_fixed_step_matches_relative_pose_on_constructed_frames():
    rng = np.random.default_rng(9)
    base = random_heatmap_values(rng, 16, 200)
    step = 10
    # each window slides left over the wide map, so the shared content is
    # displaced to the right (+step) in the newer frame
    frames = [_hm(base[:, 60 - i * step : 180 - i * step]) for i in range(4)]
    offsets = [PoseOffset(0, 0, 1.0)]
    for prev, cur in zip(frames, frames[1:]):
        offsets.append(estimate_offset(prev, cur, 2, 15))
    for o in offsets[1:]:
        assert (o.r_offset, o.a_offset) == (0, step)
    seg = CycleSegment(0, 3, 1)
    rel = concat_relative_pose(frames, seg, offsets)
    fix = concat_fixed_step(frames, seg, step)
    assert np.array_equal(rel.values, fix.values)
    assert rel.n_cols == 120 + 3 * step
    # the mosaic reproduces the underlying wide map on the covered span
    assert np.array_equal(rel.values, base[:, 30:180])


def test_concat_idempotent_on_repeated_frame():
    rng = np.random.default_rng(10)
    h = _hm(random_heatmap_values(rng, 10, 20))
    out = concat_fixed_step([h, h, h], CycleSegment(0, 2, 1), 4)
    assert out.values.max() == pytest.approx(h.values.max())


def test_canvas_limit_enforced():
    rng = np.random.default_rng(12)
    h = _hm(random_heatmap_values(rng, 8, 16))
    with pytest.raises(ConfigError):
        concat_fixed_step([h] * 5, CycleSegment(0, 4, 1), 10, max_canvas_cols=32)
    with pytest.raises(ConfigError):
        concat_fixed_step([h, h], CycleSegment(0, 1, 1), 0)


def test_segment_indices_validated():
    rng = np.random.default_rng(13)
    h = _hm(random_heatmap_values(rng, 8, 16))
    with pytest.raises(ConfigError):
        concat_fixed_step([h, h], CycleSegment(0, 2, 1), 4)
    with pytest.raises(ConfigError):
        concat_relative_pose([h, h], CycleSegment(0, 1, 1), [PoseOffset(0, 0, 1.0)])


def test_default_a_window_values():
    # 20 deg at 96 columns of 2/96 rad each -> ceil(0.349 * 48) = 17
    assert default_a_window(96) == math.ceil(math.radians(20.0) * 48)
    assert default_a_window(256, span_deg=10.0) == math.ceil(
        math.radians(10.0) * 128
    )


def _offsets_reference(frames, r_window, a_window):
    """The explicit pairwise loop that register_sequence replaces."""
    offsets = [PoseOffset(0, 0, 1.0)]
    for t in range(1, len(frames)):
        offsets.append(estimate_offset(frames[t - 1], frames[t], r_window, a_window))
    return offsets


def test_register_sequence_matches_explicit_loop():
    cfg = RadarConfig(n_chirps=4)
    pcfg = PlatformConfig(jitter_std=1.0)
    for world_seed, seed, heading in ((0, 1, 0.0), (1, 7, -12.0), (2, 30, 25.0)):
        world = synth.build_world(synth.WorldConfig(
            n_places=3, range_lo=9.0, heatmap_rows=64, heatmap_cols=96, seed=world_seed,
        ))
        frames = synth.render_sweep(world, world_seed, cfg, pcfg, 13,
                                    body_heading_deg=heading, seed=seed)
        for r_window, a_window in ((2, default_a_window(96, 23.0)), (0, 3)):
            got = register_sequence(frames, r_window, a_window)
            assert got == _offsets_reference(frames, r_window, a_window)
    assert register_sequence(frames[:1], 2, 3) == [PoseOffset(0, 0, 1.0)]
