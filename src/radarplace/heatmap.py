"""Range-azimuth heatmap generation.

An IF signal is reduced to a real power matrix by a coherent sum over
chirps, an FFT over fast time (range), a DFT over the antenna axis (angle)
and a final magnitude.  Both transforms are linear, so integrating the
chirps first gives the same map as transforming every chirp and summing
after.  :func:`heatmaps_from_sums` runs the cascade on a (frames, rows,
antennas) stack of chirp sums, such as one drawn directly by
``radar.simulate_chirp_sum`` for the headings of a sweep, with one range
FFT for the whole stack; :func:`generate_heatmap` sums the chirps of an IF
cube and passes it on as a one-frame stack.
The heatmap size sets the transform lengths: the range FFT runs over the
first ``rows`` fast-time samples, and the angle spectrum is the antennas'
array factor at ``cols`` phase steps 2*pi*m/cols, which interpolates the
antenna DFT without moving its peaks.  The angle axis runs in ascending
wrapped phase and is calibrated through the arcsine phase-to-angle map so
columns run over monotonically increasing azimuth.
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

    FFT over fast time, angle spectrum at ``cols`` phase steps, magnitude.
    ``window`` may be "rect" (default) or "hann" applied over fast time.
    Rows beyond ``max_range_m``, a finite positive range, are discarded
    when given.  The range FFT runs once over the stack; each frame's
    angle spectrum is its own product with the steering matrix that
    :func:`_columns` builds once per size, with the range bin and the
    angle axis.  Each heatmap gets its own copy of the axis.
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
    range_bin_m, axis, steer = _columns(cfg, rows, n_r, cols)
    keep = rows
    if max_range_m is not None:
        keep = int(math.floor(max_range_m / range_bin_m)) + 1
    return [Heatmap(np.abs(frame[:keep] @ steer), range_bin_m, axis.copy())  # antennas -> angle
            for frame in spec]


@functools.lru_cache(maxsize=16)
def _columns(cfg: RadarConfig, rows: int, n_antennas: int,
             cols: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(range bin in metres, azimuth of each resolvable column, steering matrix) for one size.

    Built once per (config, rows, antennas, cols); the arrays are read-only,
    since every heatmap of that size shares them.  Range bins are spaced by
    the cropped fast-time length.  Column j reads bin m_j of the antennas'
    DFT zero-padded to ``cols``, in ascending wrapped phase, so its steering
    column is ``exp(-2*pi*i * (k * m_j mod cols) / cols)`` over antennas k.
    """
    axis, valid = angle_axis_for(cfg, cols)
    axis, bins = axis[valid], np.fft.fftshift(np.arange(cols))[valid]
    steer = np.exp((-2j * math.pi / cols) * (np.outer(np.arange(n_antennas), bins) % cols))
    axis.flags.writeable = steer.flags.writeable = False
    return range_from_frequency(cfg.sample_rate / rows, cfg), axis, steer
