"""Heatmap FFT cascade and axis calibration tests."""

import math

import numpy as np
import pytest

from radarplace.errors import ConfigError, DimensionError, RadarPlaceError
from radarplace.heatmap import (
    Heatmap,
    _columns,
    angle_axis_for,
    angle_to_col,
    generate_heatmap,
    heatmaps_from_sums,
    range_from_frequency,
    range_to_row,
)
from radarplace.radar import SPEED_OF_LIGHT, IFCube, RadarConfig, Scatterer, simulate_if_cube

from conftest import angle_sum_heatmap_bound, random_scene


def test_range_from_frequency_values():
    cfg = RadarConfig()
    assert range_from_frequency(0.0, cfg) == 0.0
    assert range_from_frequency(2.0e6, cfg) == pytest.approx(9.993, abs=0.01)
    # linear in frequency
    assert range_from_frequency(4.0e6, cfg) == pytest.approx(
        2 * range_from_frequency(2.0e6, cfg)
    )
    with pytest.raises(ConfigError):
        range_from_frequency(-1.0, cfg)


def test_range_bin_is_range_from_frequency_of_the_bin_spacing_bit_for_bit():
    # the inline d = f c / (2 S) that heatmaps_from_sums used, in its order of operations
    rng = np.random.default_rng(11)
    for _ in range(200):
        cfg = RadarConfig(slope=float(rng.uniform(1e12, 1e14)),
                          sample_rate=float(rng.uniform(1e6, 5e7)),
                          n_samples=512, n_chirps=1, n_antennas=2)
        rows = int(rng.integers(1, 513))
        summed = np.ones((1, rows, 2), dtype=np.complex128)
        got = heatmaps_from_sums(summed, cfg, 2)[0].range_bin_m
        assert got == cfg.sample_rate / rows * SPEED_OF_LIGHT / (2.0 * cfg.slope)
        assert got == range_from_frequency(cfg.sample_rate / rows, cfg)


def test_angle_axis_is_the_arcsine_of_the_phase_step():
    cfg = RadarConfig()  # half-wavelength spacing
    axis, valid = angle_axis_for(cfg, 4)  # phase steps -pi, -pi/2, 0, pi/2
    assert valid.all()
    assert axis[2] == 0.0
    assert axis[0] == pytest.approx(-math.pi / 2)
    assert axis[1] == pytest.approx(math.asin(-0.5))
    assert axis[3] == pytest.approx(math.asin(0.5))
    # a phase step outside the arcsine domain masks its column instead of raising
    wide = RadarConfig(antenna_spacing=1.0e-3)
    axis, valid = angle_axis_for(wide, 4)
    assert valid.tolist() == [False, True, True, True]
    assert axis[1] == pytest.approx(math.asin(-wide.wavelength / (4 * wide.antenna_spacing)))


def test_heatmap_size_sets_the_fft_lengths(small_cfg):
    cube = simulate_if_cube([Scatterer(10.0, 0.3)], small_cfg)
    native = generate_heatmap(cube, small_cfg)
    same = generate_heatmap(cube, small_cfg, (64, 8))
    assert np.array_equal(same.values, native.values)
    big = generate_heatmap(cube, small_cfg, (32, 768))
    assert big.values.shape == (32, 768)
    assert big.range_bin_m == pytest.approx(2 * native.range_bin_m)


def test_heatmap_size_rejections(small_cfg):
    cube = simulate_if_cube([], small_cfg)
    with pytest.raises(DimensionError):
        generate_heatmap(cube, small_cfg, (128, 8))  # cannot extend fast time
    with pytest.raises(DimensionError):
        generate_heatmap(cube, small_cfg, (64, 4))   # cannot drop antennas
    for size in [(0, 8), (-5, 8), (64, 0)]:
        with pytest.raises(DimensionError):
            generate_heatmap(cube, small_cfg, size)


def test_zero_padding_interpolates_the_angle_spectrum(small_cfg):
    """Peak of the padded antenna FFT must match a dense DFT evaluation."""
    cube = simulate_if_cube([Scatterer(10.0, 0.35)], small_cfg)
    row_sig = cube.data[0, 0, :]  # 8 antennas
    fine = 768
    padded = np.fft.fft(np.pad(row_sig, (0, fine - 8)))
    # independent oracle: evaluate the DFT sum directly on a dense grid
    k = np.arange(8)
    dense = np.array(
        [np.sum(row_sig * np.exp(-2j * math.pi * f * k / fine)) for f in range(fine)]
    )
    assert np.allclose(padded, dense)
    coarse_peak = int(np.argmax(np.abs(np.fft.fft(row_sig))))
    fine_peak = int(np.argmax(np.abs(padded)))
    assert abs(fine_peak - coarse_peak * (fine // 8)) <= fine // 8 // 2


def test_zero_cube_gives_zero_heatmap(small_cfg):
    cube = simulate_if_cube([], small_cfg)
    hm = generate_heatmap(cube, small_cfg)
    assert not np.any(hm.values)


def test_single_scatterer_peak_cell():
    cfg = RadarConfig()
    sc = Scatterer(10.0, 0.0)
    hm = generate_heatmap(simulate_if_cube([sc], cfg), cfg)
    row, col = np.unravel_index(np.argmax(hm.values), hm.values.shape)
    assert row == range_to_row(sc.range, cfg, cfg.n_samples) == 51
    assert col == angle_to_col(sc.azimuth, cfg, cfg.n_antennas)


def test_two_scatterers_appear_at_predicted_cells():
    cfg = RadarConfig()
    scene = [Scatterer(10.0, 0.5), Scatterer(30.0, -0.5, 1.5)]
    hm = generate_heatmap(simulate_if_cube(scene, cfg), cfg)
    for sc in scene:
        r = range_to_row(sc.range, cfg, cfg.n_samples)
        c = angle_to_col(sc.azimuth, cfg, cfg.n_antennas)
        window = hm.values[max(0, r - 1) : r + 2, max(0, c - 1) : c + 2]
        assert window.max() > 0.5 * hm.values.max()


def test_heatmap_scales_linearly_with_amplitude(small_cfg):
    h1 = generate_heatmap(simulate_if_cube([Scatterer(10.0, 0.2)], small_cfg), small_cfg)
    h2 = generate_heatmap(
        simulate_if_cube([Scatterer(10.0, 0.2, amplitude=2.0)], small_cfg), small_cfg
    )
    assert np.allclose(h2.values, 2.0 * h1.values)


def test_duplicating_chirps_doubles_every_value():
    cfg4 = RadarConfig(n_samples=64, n_chirps=4, n_antennas=8)
    cfg8 = RadarConfig(n_samples=64, n_chirps=8, n_antennas=8)
    scene = [Scatterer(12.0, 0.3)]
    h4 = generate_heatmap(simulate_if_cube(scene, cfg4), cfg4)
    h8 = generate_heatmap(simulate_if_cube(scene, cfg8), cfg8)
    assert np.allclose(h8.values, 2.0 * h4.values)


def test_peak_angle_invariant_under_antenna_padding(small_cfg):
    sc = Scatterer(10.0, 0.4)
    cube = simulate_if_cube([sc], small_cfg)
    coarse = generate_heatmap(cube, small_cfg)
    fine = generate_heatmap(cube, small_cfg, (64, 256))
    _, c8 = np.unravel_index(np.argmax(coarse.values), coarse.values.shape)
    _, c256 = np.unravel_index(np.argmax(fine.values), fine.values.shape)
    bin_width = fine.angle_axis[128] - fine.angle_axis[127]
    assert abs(fine.angle_axis[c256] - sc.azimuth) <= 20 * bin_width
    assert abs(fine.angle_axis[c256] - coarse.angle_axis[c8]) <= np.pi / 8


def test_angle_axis_is_strictly_increasing(small_cfg):
    hm = generate_heatmap(simulate_if_cube([], small_cfg), small_cfg)
    assert np.all(np.diff(hm.angle_axis) > 0)
    axis, valid = angle_axis_for(small_cfg, 64)
    assert np.all(valid)  # half-wavelength spacing resolves every column


def test_max_range_crop_and_hann_window(small_cfg):
    cube = simulate_if_cube([Scatterer(10.0, 0.0)], small_cfg)
    full = generate_heatmap(cube, small_cfg)
    cropped = generate_heatmap(cube, small_cfg, max_range_m=20.0)
    assert cropped.n_rows < full.n_rows
    assert cropped.n_rows == int(20.0 / full.range_bin_m) + 1
    windowed = generate_heatmap(cube, small_cfg, window="hann")
    assert windowed.values.shape == full.values.shape
    with pytest.raises(ConfigError):
        generate_heatmap(cube, small_cfg, window="flattop")
    for bad in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ConfigError):
            generate_heatmap(cube, small_cfg, max_range_m=bad)


def test_heatmap_invariant_validation():
    with pytest.raises(DimensionError):
        Heatmap(np.zeros(5), 1.0, np.zeros(5))
    with pytest.raises(DimensionError):
        Heatmap(np.zeros((4, 5)), 1.0, np.zeros(4))
    with pytest.raises(ConfigError):
        Heatmap(-np.ones((2, 2)), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        Heatmap(np.ones((2, 2)), 1.0, np.array([1.0, 0.0]))
    for bad in (math.nan, math.inf, -math.inf, -1e-300):
        values = np.ones((3, 4))
        values[2, 1] = bad
        with pytest.raises(ConfigError):
            Heatmap(values, 1.0, np.arange(4.0))
    with pytest.raises(ConfigError):
        Heatmap(np.ones((2, 3)), 1.0, np.array([0.0, 1.0, 1.0]))
    for empty, axis in (((0, 3), np.arange(3.0)), ((2, 0), np.zeros(0))):
        with pytest.raises(DimensionError):
            Heatmap(np.zeros(empty), 1.0, axis)
    assert Heatmap(np.zeros((2, 1)), 1.0, np.zeros(1)).n_cols == 1


def test_random_single_scatterer_peaks_match_prediction():
    cfg = RadarConfig(n_chirps=4)
    rng = np.random.default_rng(12)
    for _ in range(15):
        (sc,) = random_scene(rng, 1, range_lo=3.0, range_hi=45.0)
        hm = generate_heatmap(simulate_if_cube([sc], cfg), cfg)
        row, col = np.unravel_index(np.argmax(hm.values), hm.values.shape)
        assert abs(row - range_to_row(sc.range, cfg, cfg.n_samples)) <= 1
        assert abs(col - angle_to_col(sc.azimuth, cfg, cfg.n_antennas)) <= 1


def _calibrated(values, cfg, max_range_m):
    """Resolvable columns, range bin and max-range crop of a shifted magnitude map."""
    n_rows, n_cols = values.shape
    axis, valid = angle_axis_for(cfg, n_cols)
    range_bin_m = cfg.sample_rate / n_rows * SPEED_OF_LIGHT / (2.0 * cfg.slope)
    keep = n_rows
    if max_range_m is not None:
        keep = max(1, min(int(math.floor(max_range_m / range_bin_m)) + 1, n_rows))
    return values[:keep, valid], range_bin_m, axis[valid]


def _resize_cube_reference(cube, rows, cols):
    """The earlier resize_cube: a copy cropped to ``rows`` samples, antennas padded to ``cols``."""
    out = np.zeros((rows, cube.dims[1], cols), dtype=np.complex128)
    out[:, :, : cube.dims[2]] = cube.data[:rows]
    return IFCube(out)


def _heatmap_reference(cube, cfg, max_range_m=None, window="rect"):
    """The earlier generate_heatmap: chirp sum and both FFTs over the whole resized cube."""
    summed = cube.data.sum(axis=1)
    if window == "hann":
        summed = summed * np.hanning(summed.shape[0])[:, None]
    spec = np.fft.fft(np.fft.fft(summed, axis=0), axis=1)
    return _calibrated(np.abs(np.fft.fftshift(spec, axes=1)), cfg, max_range_m)


@pytest.fixture(scope="module")
def noisy_cubes():
    cfg = RadarConfig()
    rng = np.random.default_rng(5)
    cubes = [
        simulate_if_cube(random_scene(rng, 1 + i % 6), cfg, noise_std=0.2, seed=i)
        for i in range(20)
    ]
    return cfg, cubes


@pytest.mark.parametrize(
    "rows, cols", [(64, 96), (64, 768), (256, 8), (1, 8), (256, 192), (37, 33), (128, 64)]
)
def test_fft_lengths_match_resize_then_transform(noisy_cubes, rows, cols):
    cfg, cubes = noisy_cubes
    assert angle_axis_for(cfg, cols)[1].all()  # the bound needs every column
    bound = angle_sum_heatmap_bound(cfg.n_antennas, cols)
    for cube in cubes:
        padded = _resize_cube_reference(cube, rows, cols)
        for window in ("rect", "hann"):
            for max_range_m in (None, 20.0):
                hm = generate_heatmap(cube, cfg, (rows, cols), max_range_m, window)
                values, range_bin_m, axis = _heatmap_reference(padded, cfg, max_range_m, window)
                assert hm.values.shape == values.shape
                assert np.max(np.abs(hm.values - values)) <= bound * np.max(values)
                assert hm.range_bin_m == range_bin_m
                assert np.array_equal(hm.angle_axis, axis)


def _fft_then_sum_reference(cube, cfg, max_range_m=None, window="rect"):
    """The earlier cascade: both FFTs over every chirp, then the chirp sum."""
    data = cube.data
    if window == "hann":
        data = data * np.hanning(data.shape[0])[:, None, None]
    spec = np.fft.fftshift(np.fft.fft(np.fft.fft(data, axis=0), axis=2), axes=2)
    return _calibrated(np.abs(spec.sum(axis=1)), cfg, max_range_m)


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize(
    "rows, cols, max_range_m",
    [(128, 8, None), (128, 64, None), (64, 96, 20.0), (100, 12, None), (37, 33, 30.0)],
)
def test_chirp_sum_first_matches_fft_then_sum(window, rows, cols, max_range_m):
    cfg = RadarConfig(n_samples=128, n_chirps=16, n_antennas=8)
    scene = random_scene(np.random.default_rng(rows + cols), 5, range_hi=30.0)
    cube = _resize_cube_reference(simulate_if_cube(scene, cfg, noise_std=0.3, seed=rows), rows, cols)
    hm = generate_heatmap(cube, cfg, max_range_m=max_range_m, window=window)
    values, range_bin_m, axis = _fft_then_sum_reference(cube, cfg, max_range_m, window)
    assert hm.values.shape == values.shape
    assert np.max(np.abs(hm.values - values)) <= 1e-12 * np.max(values)
    assert hm.range_bin_m == range_bin_m
    assert np.array_equal(hm.angle_axis, axis)


def _generate_heatmap_reference(cube, cfg, size=None, max_range_m=None, window="rect"):
    """The earlier generate_heatmap: checks, chirp sum and cascade in one function."""
    n_s, _, n_r = cube.dims
    rows, cols = size or (n_s, n_r)
    if rows > n_s:
        raise DimensionError("cannot extend fast-time axis")
    if rows < 1 or cols < 1:
        raise DimensionError("heatmap dims must be >= 1")
    if cols < n_r:
        raise DimensionError("cannot drop antennas")
    if max_range_m is not None and not (math.isfinite(max_range_m) and max_range_m > 0):
        raise ConfigError("max_range_m must be finite and > 0")
    summed = cube.data[:rows].sum(axis=1)
    if not np.all(np.isfinite(summed)):
        raise ConfigError("IF cube contains non-finite values")
    if window == "hann":
        summed = summed * np.hanning(rows)[:, None]
    elif window != "rect":
        raise ConfigError("unknown window")
    spec = np.fft.fft(summed, axis=0)
    spec = np.fft.fft(spec, n=cols, axis=1)
    values = np.abs(np.fft.fftshift(spec, axes=1))
    axis, valid = angle_axis_for(cfg, cols)
    values = values[:, valid]
    axis = axis[valid]
    range_bin_m = cfg.sample_rate / rows * SPEED_OF_LIGHT / (2.0 * cfg.slope)
    if max_range_m is not None:
        keep = int(math.floor(max_range_m / range_bin_m)) + 1
        values = values[:keep, :]
    return Heatmap(values, range_bin_m, axis)


@pytest.mark.parametrize(
    "size", [None, (64, 96), (64, 192), (256, 8), (1, 8), (37, 33), (128, 64), (200, 1000)]
)
def test_split_cascade_matches_the_one_piece_heatmap(noisy_cubes, size):
    cfg, cubes = noisy_cubes
    narrow = RadarConfig(antenna_spacing=1.5e-3)  # below half a wavelength: masks outer columns
    cols = size[1] if size else cubes[0].dims[2]
    assert not angle_axis_for(narrow, cols)[1].all() and angle_axis_for(cfg, cols)[1].all()
    bound = angle_sum_heatmap_bound(cubes[0].dims[2], cols)
    for cube in cubes[:6]:
        for window in ("rect", "hann"):
            for max_range_m in (None, 20.0, 1e-3, 1e6):
                # the bound scales with the largest value over every column: cfg's map
                scale = np.max(_generate_heatmap_reference(cube, cfg, size, max_range_m,
                                                           window).values)
                for c in (cfg, narrow):
                    got = generate_heatmap(cube, c, size, max_range_m, window)
                    want = _generate_heatmap_reference(cube, c, size, max_range_m, window)
                    assert got.values.shape == want.values.shape
                    assert np.max(np.abs(got.values - want.values)) <= bound * scale
                    assert got.range_bin_m == want.range_bin_m
                    assert np.array_equal(got.angle_axis, want.angle_axis)


@pytest.mark.parametrize("size, max_range_m, window", [
    ((257, 8), None, "rect"), ((0, 8), None, "rect"), ((-5, 8), None, "rect"),
    ((64, 0), None, "rect"), ((64, 7), None, "rect"), ((64, 7), math.nan, "flattop"),
    ((-1, 7), -1.0, "rect"), ((64, 8), math.inf, "rect"), ((64, 8), None, "flattop"),
])
def test_split_cascade_raises_what_the_one_piece_heatmap_raised(noisy_cubes, size,
                                                                 max_range_m, window):
    cfg, cubes = noisy_cubes
    with pytest.raises(RadarPlaceError) as want:
        _generate_heatmap_reference(cubes[0], cfg, size, max_range_m, window)
    with pytest.raises(type(want.value)):
        generate_heatmap(cubes[0], cfg, size, max_range_m, window)


def test_heatmap_from_sum_rejects_bad_input(small_cfg):
    summed = np.ones((16, 8), dtype=np.complex128)
    assert heatmaps_from_sums(summed[None], small_cfg, 8)[0].values.shape == (16, 8)
    for cols in (0, 7):
        with pytest.raises(DimensionError):
            heatmaps_from_sums(summed[None], small_cfg, cols)
    summed[3, 2] = np.inf
    with pytest.raises(ConfigError):
        heatmaps_from_sums(summed[None], small_cfg, 8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the product overflows on purpose
def test_a_finite_sum_whose_angle_product_overflows_is_refused(small_cfg):
    # one range row of the second frame: its range FFT is finite, its antenna sum is not
    summed = np.ones((3, 8, small_cfg.n_antennas), dtype=np.complex128)
    summed[1, 0] = 1e308
    assert np.isfinite(np.fft.fft(summed, axis=1)).all()
    with pytest.raises(ConfigError, match="heatmap values must be finite and >= 0"):
        heatmaps_from_sums(summed, small_cfg, 8)
    assert heatmaps_from_sums(summed[::2], small_cfg, 8)[1].values.shape == (8, 8)


def test_a_stack_of_sums_gives_each_frame_s_heatmap(noisy_cubes):
    cfg, cubes = noisy_cubes
    narrow = RadarConfig(antenna_spacing=1.5e-3)  # below half a wavelength: masks outer columns
    for rows, cols in ((64, 96), (37, 33), (1, 8)):
        assert not angle_axis_for(narrow, cols)[1].all()
        stack = np.stack([cube.data[:rows].sum(axis=1) for cube in cubes[:7]])
        for c in (cfg, narrow):
            for window in ("rect", "hann"):
                for max_range_m in (None, 20.0, 1e-3, 1e6):
                    got = heatmaps_from_sums(stack, c, cols, max_range_m, window)
                    assert len(got) == len(stack)
                    for g, summed in zip(got, stack):
                        want = heatmaps_from_sums(summed[None], c, cols, max_range_m,
                                                  window)[0]
                        assert g.values.tobytes() == want.values.tobytes()
                        assert g.values.shape == want.values.shape
                        assert g.range_bin_m == want.range_bin_m
                        assert g.angle_axis.tobytes() == want.angle_axis.tobytes()
    # every frame owns its arrays
    a, b = heatmaps_from_sums(stack[:2], cfg, 8)
    assert not np.shares_memory(a.angle_axis, b.angle_axis)
    assert not np.shares_memory(a.values, b.values)


def test_per_size_columns_stay_per_config_and_size():
    # below half a wavelength, outer phase bins fall outside the arcsine's domain
    narrow = RadarConfig(antenna_spacing=1.5e-3)
    cfgs = (RadarConfig(), narrow)
    rng = np.random.default_rng(5)
    for _ in range(2):  # the second round reads built constants
        for cols in (24, 40):
            for cfg in cfgs:
                for n_r in (8, 16):  # the steering matrix follows the input, not the config
                    summed = rng.standard_normal((1, 32, n_r)) + 0j
                    axis, valid = angle_axis_for(cfg, cols)
                    hm = heatmaps_from_sums(summed, cfg, cols)[0]
                    assert hm.angle_axis.tobytes() == axis[valid].tobytes()
                    assert hm.n_cols == valid.sum()
                    assert hm.range_bin_m == range_from_frequency(cfg.sample_rate / 32, cfg)
                    _, kept, steer = _columns(cfg, 32, n_r, cols)
                    assert _columns(cfg, 32, n_r, cols)[2] is steer
                    assert steer.shape == (n_r, valid.sum())
                    assert not (steer.flags.writeable or kept.flags.writeable)
                    # each steering column is its bin of the zero-padded antenna DFT: a
                    # unit vector's spectrum, within the bound for one antenna
                    dft = np.fft.fftshift(np.fft.fft(np.eye(n_r), n=cols, axis=1), axes=1)
                    assert (np.max(np.abs(steer - dft[:, valid]))
                            <= angle_sum_heatmap_bound(1, cols))
    # rows set the range bin, not the steering
    short, tall = _columns(cfgs[0], 32, 8, 24), _columns(cfgs[0], 64, 8, 24)
    assert tall[0] == range_from_frequency(cfgs[0].sample_rate / 64, cfgs[0]) != short[0]
    assert tall[2].tobytes() == short[2].tobytes()
    assert angle_axis_for(cfgs[0], 24)[1].all() and not angle_axis_for(narrow, 24)[1].all()
    # a heatmap's axis is its own: writing into it leaves the next call's as built
    first = heatmaps_from_sums(summed, narrow, 24)[0]
    first.angle_axis[:] = 0.0
    axis, valid = angle_axis_for(narrow, 24)
    assert heatmaps_from_sums(summed, narrow, 24)[0].angle_axis.tobytes() == axis[valid].tobytes()


def test_a_cube_with_more_antennas_than_its_config_gets_their_steering():
    # a 16-antenna cube under an 8-antenna config, at full and masked columns
    scene = random_scene(np.random.default_rng(16), 4)
    cube = simulate_if_cube(scene, RadarConfig(n_antennas=16, n_chirps=4), noise_std=0.2, seed=3)
    full, narrow = RadarConfig(n_chirps=4), RadarConfig(n_chirps=4, antenna_spacing=1.5e-3)
    assert full.n_antennas == 8
    for size in ((64, 16), (64, 40), (256, 96)):
        assert angle_axis_for(full, size[1])[1].all()
        assert not angle_axis_for(narrow, size[1])[1].all()
        bound = angle_sum_heatmap_bound(16, size[1])
        scale = np.max(_generate_heatmap_reference(cube, full, size).values)
        for cfg in (full, narrow):
            got = generate_heatmap(cube, cfg, size)
            want = _generate_heatmap_reference(cube, cfg, size)
            assert got.values.shape == want.values.shape
            assert np.max(np.abs(got.values - want.values)) <= bound * scale
            assert got.angle_axis.tobytes() == want.angle_axis.tobytes()
