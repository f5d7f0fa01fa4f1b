"""Range-azimuth heatmaps: an IF signal reduced to a real power matrix.

Entry points: :func:`generate_heatmap` for an IF cube,
:func:`heatmaps_from_sums` for a stack of chirp sums, :class:`Heatmap`, and
the cell arithmetic of :func:`range_to_row`, :func:`angle_to_col` and
:func:`angle_axis_for`.
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
        if 0 in self.values.shape:
            raise DimensionError(f"heatmap needs a row and a column, got {self.values.shape}")
        if self.angle_axis.shape != (self.values.shape[1],):
            raise DimensionError("angle_axis length must equal column count")
        _check_values(self.values)
        _check_axis(self.angle_axis)

    @classmethod
    def _checked(cls, values: np.ndarray, range_bin_m: float,
                 angle_axis: np.ndarray) -> "Heatmap":
        """A heatmap of arrays that already pass ``__post_init__``'s checks, not run again."""
        h = object.__new__(cls)
        h.values, h.range_bin_m, h.angle_axis = values, range_bin_m, angle_axis
        return h

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _check_values(v: np.ndarray) -> None:
    """Refuse heatmap values, of any shape, that hold a negative, NaN or inf."""
    # min and max carry a NaN through, and fail both comparisons with it
    if not (v.min(initial=0.0) >= 0 and v.max(initial=0.0) < math.inf):  # a stack may be empty
        raise ConfigError("heatmap values must be finite and >= 0")


def _check_axis(a: np.ndarray) -> None:
    if not (a[1:] > a[:-1]).all():
        raise ConfigError("angle_axis must be strictly increasing")


def _shifted_phase_bins(n_cols: int) -> np.ndarray:
    """Wrapped per-column phase steps omega in [-pi, pi), ascending."""
    return 2.0 * math.pi * (np.arange(n_cols) - n_cols // 2) / n_cols


def angle_axis_for(cfg: RadarConfig, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth per angle column plus the mask of resolvable columns.

    A column's azimuth is arcsin(lambda * omega / (2 * pi * l)) of its
    wrapped per-antenna phase step omega, so columns run over increasing
    azimuth.  Columns whose phase maps outside the arcsine domain (spacing
    wider than half a wavelength) are masked out.
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
    (samples, antennas).  The transforms are linear, so the chirps of the
    first ``rows`` fast-time samples are summed first (coherent integration)
    and :func:`heatmaps_from_sums` transforms that sum; see there for
    ``max_range_m`` and ``window``.
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

    One range FFT over fast time for the whole stack, then per frame the
    angle spectrum, a product with the steering matrix of :func:`_columns`,
    and its magnitude.  ``window`` may be "rect" (default) or "hann" over
    fast time.  Rows beyond ``max_range_m``, a finite positive range, are
    discarded when given.  The magnitudes are checked once for the stack,
    so each heatmap, a view of its frame with its own copy of the axis,
    skips ``Heatmap``'s checks.
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
    mags = np.empty((len(spec), min(keep, rows), len(axis)))
    for frame, out in zip(spec, mags):
        np.abs(frame[:keep] @ steer, out=out)  # antennas -> angle
    _check_values(mags)  # a finite sum can still overflow the product
    return [Heatmap._checked(values, range_bin_m, axis.copy()) for values in mags]


@functools.lru_cache(maxsize=16)
def _columns(cfg: RadarConfig, rows: int, n_antennas: int,
             cols: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(range bin in metres, azimuth of each resolvable column, steering matrix) for one size.

    Built once per (config, rows, antennas, cols); the arrays are read-only,
    since every heatmap of that size shares them.  Range bins are spaced by
    the cropped fast-time length.  Column j reads bin m_j of the antennas'
    DFT zero-padded to ``cols``, in ascending wrapped phase, so its steering
    column is ``exp(-2*pi*i * (k * m_j mod cols) / cols)`` over antennas k:
    it interpolates the antenna DFT without moving its peaks.
    """
    axis, valid = angle_axis_for(cfg, cols)
    axis, bins = axis[valid], np.fft.fftshift(np.arange(cols))[valid]
    _check_axis(axis)  # once here, for every heatmap that shares it
    steer = np.exp((-2j * math.pi / cols) * (np.outer(np.arange(n_antennas), bins) % cols))
    axis.flags.writeable = steer.flags.writeable = False
    return range_from_frequency(cfg.sample_rate / rows, cfg), axis, steer
