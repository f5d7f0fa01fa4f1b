"""Registration, cycle detection, and mosaicking tests."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarplace import concat
from radarplace.concat import (
    DEFAULT_MIN_OVERLAP,
    MAX_CANVAS_COLS,
    CycleSegment,
    PoseOffset,
    concat_relative_pose,
    default_a_window,
    detect_cycles,
    estimate_offset,
    mosaic_cycles,
    register_sequence,
    signs_consistent,
    step_bins,
    translate,
)
from radarplace import synth
from radarplace.errors import AlignmentError, ConfigError, DimensionError, NoRotationError
from radarplace.heatmap import Heatmap, generate_heatmap
from radarplace.radar import (
    PlatformConfig,
    RadarConfig,
    Scatterer,
    scene_at_heading,
    simulate_if_cube,
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
        generate_heatmap(c, cfg, (64, 96)) for c, _ in frames
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
    fix = concat_relative_pose(frames, seg, [PoseOffset(0, step, 1.0)] * 4)
    assert np.array_equal(rel.values, fix.values)
    assert rel.n_cols == 120 + 3 * step
    # the mosaic reproduces the underlying wide map on the covered span
    assert np.array_equal(rel.values, base[:, 30:180])
    # a platform whose nominal step is `step` bins at boresight places them alike
    pcfg = PlatformConfig(angular_speed=10 * math.degrees(step / 60))
    assert step_bins(pcfg.nominal_step, 120) == step
    for mode in ("fixed", "relpose"):
        _, mosaics = mosaic_cycles(frames, pcfg, mode, 2)
        assert len(mosaics) == 1 and np.array_equal(mosaics[0].values, rel.values)


def test_concat_idempotent_on_repeated_frame():
    rng = np.random.default_rng(10)
    h = _hm(random_heatmap_values(rng, 10, 20))
    out = concat_relative_pose([h, h, h], CycleSegment(0, 2, 1), [PoseOffset(0, 4, 1.0)] * 3)
    assert out.values.max() == pytest.approx(h.values.max())


def test_canvas_limit_enforced():
    rng = np.random.default_rng(12)
    h = _hm(random_heatmap_values(rng, 8, 16))
    with pytest.raises(ConfigError):
        # five 16-column frames 2048 bins apart span 16 + 4 * 2048 > 8192 columns
        concat_relative_pose([h] * 5, CycleSegment(0, 4, 1),
                             [PoseOffset(0, MAX_CANVAS_COLS // 4, 1.0)] * 5)


def test_fixed_mode_rejects_a_nominal_step_of_zero_bins():
    rng = np.random.default_rng(9)
    base = random_heatmap_values(rng, 16, 200)
    frames = [_hm(base[:, 60 - i * 5 : 180 - i * 5]) for i in range(4)]
    slow = PlatformConfig(angular_speed=1.0)  # 0.1 deg per frame: 0 bins at 120 columns
    assert step_bins(slow.nominal_step, 120) == 0
    _, mosaics = mosaic_cycles(frames, slow, "relpose")
    assert mosaics[0].n_cols == 120 + 3 * 5
    with pytest.raises(ConfigError):
        mosaic_cycles(frames, slow, "fixed")


def test_segment_indices_validated():
    rng = np.random.default_rng(13)
    h = _hm(random_heatmap_values(rng, 8, 16))
    with pytest.raises(ConfigError):
        concat_relative_pose([h, h], CycleSegment(0, 2, 1), [PoseOffset(0, 4, 1.0)] * 2)
    with pytest.raises(ConfigError):
        concat_relative_pose([h, h], CycleSegment(0, 1, 1), [PoseOffset(0, 0, 1.0)])


def test_default_a_window_values():
    # 20 deg at 96 columns of 2/96 rad each -> ceil(0.349 * 48) = 17
    assert default_a_window(96) == math.ceil(math.radians(20.0) * 48)
    assert default_a_window(256, span_deg=10.0) == math.ceil(
        math.radians(10.0) * 128
    )


# -- mosaics on frame 0's rows against the growing canvas they replace --------

def _concat_at_offsets_reference(frames, per_pair):
    """The canvas that grew by every range placement, r_min at its row 0."""
    base = frames[0]
    rows, cols = base.values.shape
    cum = [(0, 0)]
    for dr, da in per_pair:
        cum.append((cum[-1][0] - dr, cum[-1][1] - da))
    rs = [c[0] for c in cum]
    as_ = [c[1] for c in cum]
    r_min, r_max = min(rs), max(rs)
    a_min, a_max = min(as_), max(as_)
    canvas = np.zeros((rows + (r_max - r_min), cols + (a_max - a_min)))
    for frame, (cr, ca) in zip(frames, cum):
        region = canvas[cr - r_min : cr - r_min + rows, ca - a_min : ca - a_min + cols]
        np.maximum(region, frame.values, out=region)
    left = -a_min if a_min < 0 else 0
    right = a_max if a_max > 0 else 0
    axis = concat._extend_angle_axis(base.angle_axis, left, right)
    return Heatmap(canvas, base.range_bin_m, axis), r_min


def test_mosaic_is_the_reference_canvas_on_frame_0_rows():
    rng = np.random.default_rng(21)
    for _ in range(60):
        rows, cols, n = int(rng.integers(4, 12)), int(rng.integers(4, 20)), int(rng.integers(1, 7))
        frames = [_hm(random_heatmap_values(rng, rows, cols)) for _ in range(n)]
        per_pair = [(int(rng.integers(-3, 4)), int(rng.integers(-cols, cols + 1)))
                    for _ in range(n - 1)]
        want, r_min = _concat_at_offsets_reference(frames, per_pair)
        got = concat._concat_at_offsets(frames, per_pair)
        assert np.array_equal(got.values, want.values[-r_min : -r_min + rows])
        assert np.array_equal(got.angle_axis, want.angle_axis)
        assert got.range_bin_m == want.range_bin_m
        # with no range placement the canvas is the reference outright
        flat = [(0, da) for _, da in per_pair]
        want_flat, _ = _concat_at_offsets_reference(frames, flat)
        got_flat = concat._concat_at_offsets(frames, flat)
        assert np.array_equal(got_flat.values, want_flat.values)
        assert np.array_equal(got_flat.angle_axis, want_flat.angle_axis)


def test_frame_placed_above_frame_0_keeps_frame_0_rows():
    rng = np.random.default_rng(22)
    rows = 16
    base = random_heatmap_values(rng, rows + 2, 200)
    # frame 1 looks 2 rows nearer and 10 columns further left than frame 0
    frames = [_hm(base[2 : 2 + rows, 60:180]), _hm(base[0:rows, 50:170])]
    offsets = register_sequence(frames, 3, 15)
    assert (offsets[1].r_offset, offsets[1].a_offset) == (2, 10)
    mosaic = concat_relative_pose(frames, CycleSegment(0, 1, 1), offsets)
    assert mosaic.values.shape == (rows, 130)
    # frame 0 is at row 0; frame 1's two nearest rows fall outside its grid
    want = base[2 : 2 + rows, 50:180].copy()
    want[rows - 2 :, :10] = 0.0
    assert np.array_equal(mosaic.values, want)


def test_mosaic_cycles_runs_the_recipe_once_per_cycle():
    frames = _sweep(0, 0, 1)
    pcfg = PlatformConfig(jitter_std=1.0)
    a_window = default_a_window(96, pcfg.nominal_step + concat.A_WINDOW_MARGIN_DEG)
    offsets = register_sequence(frames, 2, a_window)
    segments = detect_cycles(offsets)
    got_offsets, relpose = mosaic_cycles(frames, pcfg, "relpose", 2)
    assert got_offsets == offsets
    assert len(relpose) == len(segments)
    for seg, mosaic in zip(segments, relpose):
        assert np.array_equal(mosaic.values,
                              concat_relative_pose(frames, seg, offsets).values)
    _, fixed = mosaic_cycles(frames, pcfg, "fixed", 2)
    step = step_bins(pcfg.nominal_step, 96)
    for seg, mosaic in zip(segments, fixed):
        nominal = [PoseOffset(0, seg.direction * step, 1.0)] * len(frames)
        assert np.array_equal(mosaic.values, concat_relative_pose(frames, seg, nominal).values)
    # angle-only by default
    assert mosaic_cycles(frames, pcfg, "relpose")[0] == register_sequence(frames, 0, a_window)
    for mode in ("none", "RELPOSE"):
        with pytest.raises(ConfigError):
            mosaic_cycles(frames, pcfg, mode, 2)
    with pytest.raises(ConfigError):
        mosaic_cycles([], pcfg, "relpose", 2)


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


def test_register_sequence_rejects_no_frames():
    with pytest.raises(ConfigError):
        register_sequence([], 2, 3)


def test_estimate_offset_is_the_two_frame_sequence():
    frames = _sweep(0, 0, 1)
    a = _hm(random_heatmap_values(np.random.default_rng(16), 64, 96))
    for prev, cur in [(frames[0], frames[1]), (frames[5], frames[4]), (a, frames[2]), (a, a)]:
        for r_window, a_window in ((0, 3), (2, default_a_window(96, 23.0)), (70, 200)):
            got = estimate_offset(prev, cur, r_window, a_window)
            want = register_sequence([prev, cur], r_window, a_window)[1]
            assert got == want and repr(got) == repr(want)


# -- the vectorised search against the direct loop it replaces ----------------

def _estimate_offset_reference(h_prev, h_cur, r_window, a_window):
    """The direct candidate loop that estimate_offset replaces."""
    A = h_prev.values
    B = h_cur.values
    area = A.size
    best = None  # (-score, |a|, |r|, r, a)
    for r in range(-r_window, r_window + 1):
        for a in range(-a_window, a_window + 1):
            sl = concat._overlap_slices(A.shape, r, a)
            if sl is None:
                continue
            ref, mov = sl
            x = A[mov]
            y = B[ref]
            if x.size < DEFAULT_MIN_OVERLAP * area:
                continue
            xf = x.ravel()
            yf = y.ravel()
            nx = np.dot(xf, xf)
            ny = np.dot(yf, yf)
            if nx <= 0.0 or ny <= 0.0:
                continue  # zero-norm overlap scores -inf
            score = float(np.dot(xf, yf) / math.sqrt(nx * ny))
            key = (-score, abs(a), abs(r), r, a)
            if best is None or key < best:
                best = key
    if best is None:
        raise AlignmentError("no candidate shift")
    return PoseOffset(r_offset=best[3], a_offset=best[4], score=-best[0])


def _same_offset(h_prev, h_cur, r_window, a_window):
    """estimate_offset equals the reference, score bits included, or both raise."""
    try:
        want = _estimate_offset_reference(h_prev, h_cur, r_window, a_window)
    except AlignmentError:
        with pytest.raises(AlignmentError):
            estimate_offset(h_prev, h_cur, r_window, a_window)
        return
    got = estimate_offset(h_prev, h_cur, r_window, a_window)
    assert got == want and repr(got) == repr(want)
    assert type(got.r_offset) is int and type(got.a_offset) is int


def _sweep(world_seed, place, seed):
    world = synth.build_world(synth.WorldConfig(
        n_places=3, range_lo=9.0, heatmap_rows=64, heatmap_cols=96, seed=world_seed,
    ))
    return synth.render_sweep(world, place, RadarConfig(n_chirps=4),
                              PlatformConfig(jitter_std=1.0), 13, seed=seed)


def test_matches_reference_on_criterion_2_pairs():
    # the 400 pairs of acceptance criterion 2, registered in both directions
    rng = np.random.default_rng(2)
    axis = np.linspace(-1.0, 1.0, 48)
    for _ in range(200):
        vals = random_heatmap_values(rng, 32, 48)
        r = int(rng.integers(-3, 4))
        a = int(rng.integers(-8, 9))
        h_prev, h_cur = Heatmap(vals, 1.0, axis), Heatmap(translate(vals, r, a), 1.0, axis)
        _same_offset(h_prev, h_cur, 4, 10)
        _same_offset(h_cur, h_prev, 4, 10)
    cfg = RadarConfig(n_samples=64, n_chirps=4, n_antennas=8, gain_taper_exp=8.0)
    for i in range(200):
        prng = np.random.default_rng(2000 + i)
        scene = [
            Scatterer(
                float(prng.uniform(8.0, 40.0)),
                math.radians(float(prng.uniform(-20.0, 20.0))),
                float(prng.uniform(0.5, 2.0)),
            )
            for _ in range(6)
        ]
        step = 15.0 + float(prng.uniform(-2.0, 2.0))
        h_a, h_b = (
            generate_heatmap(simulate_if_cube(scene_at_heading(scene, heading, cfg.fov_deg), cfg,
                                              noise_std=0.05, seed=seed), cfg, (64, 192))
            for heading, seed in ((0.0, 2 * i), (step, 2 * i + 1))
        )
        _same_offset(h_a, h_b, 2, 39)
        _same_offset(h_b, h_a, 2, 39)


def test_matches_reference_on_mosaic_sweeps():
    a_window = default_a_window(96, 23.0)
    for world_seed, place, seed in ((0, 0, 1), (1, 1, 7), (2, 2, 30), (3, 0, 901), (4, 1, 902)):
        frames = _sweep(world_seed, place, seed)
        for prev, cur in zip(frames, frames[1:]):
            _same_offset(prev, cur, 2, a_window)


def _frame(draw, rows, cols):
    kind = draw(st.sampled_from(["random", "constant", "periodic", "zero edges",
                                 "spike", "subnormal", "huge"]))
    if kind == "constant":
        return np.full((rows, cols), draw(st.sampled_from([0.1, 1.0, 3.0])))
    if kind == "periodic":
        # equal columns one period apart give exactly tied direct scores
        period = draw(st.integers(1, cols))
        base = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]),
                             min_size=rows * period, max_size=rows * period))
        return np.tile(np.reshape(base, (rows, period)), (1, cols // period + 1))[:, :cols]
    values = np.abs(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                    .standard_normal((rows, cols)))
    if kind == "zero edges":
        values[: draw(st.integers(0, rows)), :] = 0.0
        values[:, cols - draw(st.integers(0, cols)) :] = 0.0
    elif kind == "spike":
        # one bright column: a norm taken as a difference of running sums
        # would lose the rest of the frame to cancellation
        values[:, draw(st.integers(0, cols - 1))] *= 1e12
    elif kind == "subnormal":
        values *= draw(st.sampled_from([1e-160, 1e-310, 5e-324]))
    elif kind == "huge":
        values *= 1e150
    return values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/huge input on purpose
@given(data=st.data())
def test_estimate_offset_property_matches_reference(data):
    draw = data.draw
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    h_prev = _hm(_frame(draw, rows, cols))
    h_cur = h_prev if draw(st.booleans()) else _hm(_frame(draw, rows, cols))
    _same_offset(h_prev, h_cur, draw(st.integers(0, rows + 2)), draw(st.integers(0, cols + 2)))


def test_register_sequence_raises_at_the_first_failing_pair():
    rng = np.random.default_rng(18)
    ok = [_hm(random_heatmap_values(rng, 6, 8)) for _ in range(2)]
    zero, wide = _hm(np.zeros((6, 8))), _hm(random_heatmap_values(rng, 6, 9))
    for frames, error in (([ok[0], zero, ok[1], wide], AlignmentError),
                          ([ok[0], ok[1], wide, zero], DimensionError),
                          ([wide, ok[0], zero], DimensionError)):
        with pytest.raises(error):
            register_sequence(frames, 1, 2)
    with pytest.raises(DimensionError):  # the dims are checked before the windows
        register_sequence([ok[0], wide], -1, 2)
    with pytest.raises(ConfigError):
        register_sequence(ok + [wide], 1, -1)
    assert register_sequence([zero], -1, -1) == [PoseOffset(0, 0, 1.0)]


def _rescore_margin_reference(area, nx, ny, fast):
    """The scalar margin of one pair's scored candidates that the per-pair margin replaces."""
    u = 2.0**-53
    e = (area + 1) * u / (1.0 - (area + 1) * u)
    norms = np.concatenate([nx, ny])
    if not ((area + 1) * u <= 2.0**-21 and norms.min() >= 2.0**-500
            and norms.max() <= 2.0**500 and np.isfinite(fast).all()):
        return math.inf
    ev = e + (area + 1) * 2.0**-573
    big_u = 2.0 * ev + 3.0 * u
    p = big_u / (1.0 - big_u)
    d1 = p + ev * (1.0 + p) + 2.0**-1075
    return (2.0 * d1 + u) * (1.0 + 2.0**-20)


def test_rescore_margin_per_pair_reads_only_its_scored_candidates():
    rng = np.random.default_rng(19)
    special = [2.0**-520, 2.0**-480, 2.0**520, 2.0**480, math.inf, math.nan]
    for _ in range(300):
        pairs, shifts, cands = (int(k) for k in rng.integers(1, 5, size=3))
        nx, ny = rng.uniform(0.1, 10.0, size=(2, pairs, shifts, cands))
        fast = rng.uniform(-1.0, 1.0, size=(pairs, shifts, cands))
        for arr in (nx, ny, fast):
            hit = rng.random(arr.shape) < 0.1
            arr[hit] = rng.choice(special, size=hit.sum())
        valid = rng.random((pairs, shifts, cands)) < 0.7
        area = int(rng.choice([6, 2**31 - 1, 2**40]))
        got = concat._rescore_margin(area, nx, ny, fast, valid)
        for p in range(pairs):
            v = valid[p]
            want = (_rescore_margin_reference(area, nx[p][v], ny[p][v], fast[p][v]) if v.any()
                    else got[p])  # a pair with no scored candidate raises before its margin is read
            assert got[p] == want


def _sequence_reference(frames, r_window, a_window):
    """The pairwise direct loop: offsets up to the first failing pair, and its error type."""
    offsets = [PoseOffset(0, 0, 1.0)]
    for prev, cur in zip(frames, frames[1:]):
        try:
            if prev.values.shape != cur.values.shape:
                raise DimensionError("frames must have equal dims for registration")
            if r_window < 0 or a_window < 0:
                raise ConfigError("search windows must be >= 0")
            offsets.append(_estimate_offset_reference(prev, cur, r_window, a_window))
        except (AlignmentError, DimensionError, ConfigError) as exc:
            return offsets, type(exc)
    return offsets, None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/huge input on purpose
@given(data=st.data())
def test_register_sequence_property_matches_reference(data):
    draw = data.draw
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    frames = []
    for _ in range(draw(st.integers(2, 5))):
        if frames and draw(st.booleans()):
            frames.append(frames[-1])
            continue
        # now and then a frame of another shape, for the dims check
        shape = (rows, cols) if draw(st.integers(0, 7)) else (draw(st.integers(1, 7)),
                                                              draw(st.integers(1, 9)))
        frames.append(_hm(_frame(draw, *shape)))
    r_window, a_window = draw(st.integers(-1, rows + 2)), draw(st.integers(-1, cols + 2))
    want, error = _sequence_reference(frames, r_window, a_window)
    if error is not None:
        # the pairs before the first failing one register as the loop does, and
        # that pair raises what the loop raised, with or without the frames after it
        for tail in (frames[len(want) + 1 :], []):
            with pytest.raises(error) as info:
                register_sequence(frames[: len(want) + 1] + tail, r_window, a_window)
            assert type(info.value) is error
        frames = frames[: len(want)]
    got = register_sequence(frames, r_window, a_window)
    assert got == want and repr(got) == repr(want)
    assert all(type(o.r_offset) is int and type(o.a_offset) is int for o in got)


@pytest.mark.parametrize("zero_prev, zero_cur", [(True, True), (True, False), (False, True)])
def test_all_zero_map_raises_alignment_error(zero_prev, zero_cur):
    # the (0, 0) shift always overlaps fully, so only an all-zero map leaves
    # no candidate with a nonzero norm
    rng = np.random.default_rng(14)
    z = np.zeros((10, 12))
    h_prev = _hm(z if zero_prev else random_heatmap_values(rng, 10, 12))
    h_cur = _hm(z if zero_cur else random_heatmap_values(rng, 10, 12))
    for r_window, a_window in ((0, 0), (3, 3), (20, 30)):
        with pytest.raises(AlignmentError):
            _estimate_offset_reference(h_prev, h_cur, r_window, a_window)
        with pytest.raises(AlignmentError):
            estimate_offset(h_prev, h_cur, r_window, a_window)


def test_huge_windows_cost_a_full_frame_search():
    rng = np.random.default_rng(15)
    a = _hm(random_heatmap_values(rng, 16, 24))
    b = _hm(translate(a.values, 2, -5))
    start = time.perf_counter()
    got = estimate_offset(a, b, 10**6, 10**6)
    assert time.perf_counter() - start < 10.0
    assert got == estimate_offset(a, b, 15, 23)
    assert (got.r_offset, got.a_offset) == (2, -5)


def test_rescore_margin_is_needed_on_a_near_tie(monkeypatch):
    # shifts 0 and -2 of this 2-periodic row both score exactly 1.0 directly,
    # and the tie breaks to a = 0; the fast score of a = 0 rounds below that
    # of a = -2, so without the margin a = 0 is never re-scored
    h = _hm([[0.1, 0.2, 0.1, 0.2]])
    assert estimate_offset(h, h, 0, 3) == PoseOffset(0, 0, 1.0)
    _same_offset(h, h, 0, 3)
    monkeypatch.setattr(concat, "_rescore_margin", lambda *args: 0.0)
    assert estimate_offset(h, h, 0, 3) == PoseOffset(0, -2, 1.0)


def test_a_wide_pair_holds_one_padded_gram_at_a_time():
    rng = np.random.default_rng(17)
    a = _hm(random_heatmap_values(rng, 128, 2048))
    b = _hm(translate(a.values, 0, 37))
    a_window = default_a_window(2048, 23.0)
    tracemalloc.start()
    try:
        got = estimate_offset(a, b, 2, a_window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.r_offset, got.a_offset) == (0, 37)
    # the padded Gram buffer, the size of two frames and some slack; a separate
    # (cols, cols) Gram temporary would add 33.5 MB
    pad = 2048 * (2048 + 2 * a_window) * 8
    assert peak < pad + 2 * a.values.nbytes + 4e6


def test_a_warm_sweep_registration_takes_few_page_faults():
    # one padded Gram buffer serves every pair, so a warm call reuses freed
    # memory instead of faulting in fresh pages
    resource = pytest.importorskip("resource")
    frames = _sweep(0, 0, 1)
    a_window = default_a_window(96, 23.0)
    register_sequence(frames, 0, a_window)
    tracemalloc.start()
    try:
        register_sequence(frames, 0, a_window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffer, and less than its size again for the column sums and the
    # (pairs, 1, 2W + 1) scores; a buffer per pair would hold 12 of them
    pad = 96 * (96 + 2 * a_window) * 8
    assert peak < 2 * pad
    for r_window in (0, 2):
        for _ in range(3):
            register_sequence(frames, r_window, a_window)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            register_sequence(frames, r_window, a_window)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 50 < 20


@pytest.mark.parametrize("fields, message", [((0, 2, 0), "direction must be +1 or -1"),
                                             ((3, 2, 1), "end_idx must be >= start_idx")])
def test_cycle_segment_validation_names_the_value(fields, message):
    with pytest.raises(ConfigError) as err:
        CycleSegment(*fields)
    assert str(err.value) == message


def test_relative_pose_mosaic_refuses_frames_of_different_sizes():
    axis = np.linspace(-1.0, 1.0, 8)
    frames = [Heatmap(np.ones((4, 8)), 1.0, axis),
              Heatmap(np.ones((5, 8)), 1.0, axis)]
    offsets = [PoseOffset(0, 0, 1.0), PoseOffset(0, 2, 1.0)]
    with pytest.raises(DimensionError) as err:
        concat_relative_pose(frames, CycleSegment(0, 1, 1), offsets)
    assert str(err.value) == "all frames in a segment must share dims"
