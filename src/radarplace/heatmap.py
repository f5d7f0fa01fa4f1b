"""Range-azimuth heatmap generation.

An IF signal is reduced to a real power matrix by a coherent sum over
chirps, an FFT over fast time (range), an FFT over the antenna axis (angle)
and a final magnitude.  Both FFTs are linear, so integrating the chirps
first gives the same map as transforming every chirp and summing after.
:func:`heatmaps_from_sums` runs the cascade on a (frames, rows, antennas)
stack of chirp sums, such as one drawn directly by
``radar.simulate_chirp_sum`` for the headings of a sweep, with one range
FFT for the whole stack; :func:`generate_heatmap` sums the chirps of an IF
cube and passes it on as a one-frame stack.
The heatmap size sets the FFT lengths: the range FFT runs over the first
``rows`` fast-time samples, and the angle FFT has length ``cols``, which
zero-pads the antennas and interpolates the angle spectrum without moving
its peaks.  The angle axis is FFT-shifted and calibrated through the
arcsine phase-to-angle map so columns run over monotonically increasing
azimuth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .radar import SPEED_OF_LIGHT, IFCube, RadarConfig, _check_rows


def range_from_frequency(f_if: float, cfg: RadarConfig) -> float:
    """Reflector range for a beat frequency: d = f_IF * c / (2 * slope)."""
    if f_if < 0:
        raise ConfigError(f"beat frequency must be >= 0, got {f_if}")
    return f_if * SPEED_OF_LIGHT / (2.0 * cfg.slope)


@dataclass
class Heatmap:
    """Real range-azimuth power matrix with axis calibration."""

    values: np.ndarray      # (rows, cols), linear magnitude, >= 0
    range_bin_m: float      # metres per range row
    angle_axis: np.ndarray  # per-column azimuth, rad, strictly increasing

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.angle_axis = np.asarray(self.angle_axis, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError(f"heatmap must be 2-D, got {self.values.shape}")
        if self.angle_axis.shape != (self.values.shape[1],):
            raise DimensionError("angle_axis length must equal column count")
        # min and max carry a NaN through, and fail both comparisons with it
        v = self.values
        if v.size and not (v.min() >= 0 and v.max() < math.inf):
            raise ConfigError("heatmap values must be finite and >= 0")
        a = self.angle_axis
        if not (a[1:] > a[:-1]).all():
            raise ConfigError("angle_axis must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _shifted_phase_bins(n_cols: int) -> np.ndarray:
    """Wrapped per-column phase steps omega in [-pi, pi), ascending."""
    return 2.0 * math.pi * (np.arange(n_cols) - n_cols // 2) / n_cols


def angle_axis_for(cfg: RadarConfig, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth per angle column plus the mask of resolvable columns.

    A column's azimuth is arcsin(lambda * omega / (2 * pi * l)) of its
    wrapped per-antenna phase step omega.  Columns whose phase maps outside
    the arcsine domain (spacing wider than half a wavelength) are masked out.
    """
    omega = _shifted_phase_bins(n_cols)
    arg = cfg.wavelength * omega / (2.0 * math.pi * cfg.antenna_spacing)
    valid = np.abs(arg) <= 1.0
    axis = np.arcsin(np.clip(arg, -1.0, 1.0))
    return axis, valid


def angle_to_col(azimuth_rad: float, cfg: RadarConfig, n_cols: int) -> int:
    """Nearest angle column for a target azimuth."""
    axis, valid = angle_axis_for(cfg, n_cols)
    idx = np.flatnonzero(valid)
    return int(idx[np.argmin(np.abs(axis[idx] - azimuth_rad))])


def range_to_row(range_m: float, cfg: RadarConfig, n_rows: int) -> int:
    """Nearest range row for a target range (beat-frequency bin)."""
    f_if = cfg.beat_frequency(range_m)
    return int(round(f_if * n_rows / cfg.sample_rate)) % n_rows


def generate_heatmap(
    cube: IFCube, cfg: RadarConfig, size: tuple[int, int] | None = None,
    max_range_m: float | None = None, window: str = "rect",
) -> Heatmap:
    """FFT cascade from IF cube to range-azimuth heatmap.

    ``size`` is the (rows, cols) of the transform, by default the cube's
    (samples, antennas).  The chirps of the first ``rows`` fast-time samples
    are summed (coherent integration) and :func:`heatmaps_from_sums` turns
    that sum into the heatmap; see there for ``max_range_m`` and ``window``.
    """
    n_s, _, n_r = cube.dims
    rows, cols = size or (n_s, n_r)
    _check_rows(rows, n_s)
    summed = cube.data[:rows].sum(axis=1)
    return heatmaps_from_sums(summed[None], cfg, cols, max_range_m, window)[0]


def heatmaps_from_sums(
    summed: np.ndarray, cfg: RadarConfig, cols: int,
    max_range_m: float | None = None, window: str = "rect",
) -> list[Heatmap]:
    """One heatmap per frame of a (frames, rows, n_antennas) stack of chirp sums.

    FFT over fast time, FFT over antennas zero-padded to ``cols``,
    magnitude.  ``window`` may be "rect" (default) or "hann" applied over
    fast time.  Rows beyond ``max_range_m``, a finite positive range, are
    discarded when given.  The range FFT runs once over the stack; the
    angle FFT runs per frame, since a (frames, rows, cols) complex stack
    would be freshly mapped memory on every call.  The range bin, the
    angle axis and the column order are built once per (cfg, rows, cols),
    and each heatmap gets its own copy of the axis.
    """
    _, rows, n_r = summed.shape
    if cols < 1:
        raise DimensionError("heatmap dims must be >= 1")
    if cols < n_r:
        raise DimensionError(f"cannot drop antennas: {cols} cols < {n_r} antennas")
    if max_range_m is not None and not (math.isfinite(max_range_m) and max_range_m > 0):
        raise ConfigError(f"max_range_m must be finite and > 0, got {max_range_m}")
    if not np.all(np.isfinite(summed)):
        raise ConfigError("chirp sum contains non-finite values")
    if window == "hann":
        summed = summed * np.hanning(rows)[:, None]
    elif window != "rect":
        raise ConfigError(f"unknown window {window!r}")

    spec = np.fft.fft(summed, axis=1)  # fast time -> range
    range_bin_m, axis, order = _columns(cfg, rows, cols)
    keep = rows
    if max_range_m is not None:
        keep = int(math.floor(max_range_m / range_bin_m)) + 1
    return [
        Heatmap(np.abs(np.fft.fft(frame[:keep], n=cols, axis=1)[:, order]),  # antennas -> angle
                range_bin_m, axis.copy())
        for frame in spec
    ]


@functools.lru_cache(maxsize=16)
def _columns(cfg: RadarConfig, rows: int, cols: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(range bin in metres, azimuth of each resolvable column, its FFT column) for one size.

    Built once per (config, rows, cols); the arrays are read-only, since
    every heatmap of that size shares them.  Range bins are spaced by the
    cropped fast-time length, and the columns run in ascending wrapped phase.
    """
    axis, valid = angle_axis_for(cfg, cols)
    axis, order = axis[valid], np.fft.fftshift(np.arange(cols))[valid]
    axis.flags.writeable = order.flags.writeable = False
    return range_from_frequency(cfg.sample_rate / rows, cfg), axis, order
