"""FMCW radar forward model.

Point-scatterer scenes are turned into complex IF signals with known ground
truth, so every downstream stage can be checked against arithmetic on the
scene instead of recorded data.  Entry points: :func:`simulate_if_cube`,
:func:`simulate_chirp_sum`, :func:`simulate_platform_sweep` and
:func:`scene_at_heading`, the one map from a world-frame scene to the
sensor frame at a heading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, RangeAliasingError

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class RadarConfig:
    """Chirp and antenna-array parameters of the sensor.

    Defaults are engineering choices for a desk-scale 77 GHz-class device;
    the exact production part's chirp profile is not public.
    """

    slope: float = 30.0e12            # chirp slope, Hz/s
    wavelength: float = 3.9e-3        # carrier wavelength, m
    antenna_spacing: float = 1.95e-3  # receive element spacing, m
    sample_rate: float = 1.0e7        # ADC rate, Hz
    n_samples: int = 256              # fast-time samples per chirp
    n_chirps: int = 64
    n_antennas: int = 8               # virtual receive channels
    fov_deg: float = 120.0            # usable azimuth field of view
    gain_taper_exp: float = 1.0       # cosine-power antenna taper; 0 disables

    def __post_init__(self):
        if self.slope <= 0 or self.wavelength <= 0 or self.antenna_spacing <= 0:
            raise ConfigError("slope, wavelength and antenna_spacing must be positive")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if min(self.n_samples, self.n_chirps, self.n_antennas) < 1:
            raise ConfigError("n_samples, n_chirps, n_antennas must be >= 1")
        if not (0 < self.fov_deg <= 180.0):
            raise ConfigError("fov_deg must be in (0, 180]")
        if self.gain_taper_exp < 0:
            raise ConfigError("gain_taper_exp must be >= 0")
        if self.antenna_spacing > self.wavelength / 2 + 1e-15:
            warnings.warn(
                "antenna_spacing > wavelength/2: angle estimates are ambiguous",
                stacklevel=2,
            )

    @property
    def max_range(self) -> float:
        """Unambiguous range: beat frequencies above sample_rate alias."""
        return self.sample_rate * SPEED_OF_LIGHT / (2.0 * self.slope)

    def beat_frequency(self, range_m: float) -> float:
        """Beat (IF) frequency of a reflector at the given range."""
        return 2.0 * range_m * self.slope / SPEED_OF_LIGHT

    def phase_step(self, azimuth_rad: float) -> float:
        """Per-antenna phase progression of a reflector at the given azimuth."""
        return 2.0 * math.pi * self.antenna_spacing * math.sin(azimuth_rad) / self.wavelength


@dataclass(frozen=True)
class Scatterer:
    """One ideal point reflector, polar coordinates about the sensor."""

    range: float          # m
    azimuth: float        # rad; world azimuth may exceed the sensor FOV
    amplitude: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.range, self.azimuth, self.amplitude))):
            raise ConfigError(f"scatterer values must be finite, got {self}")
        if self.range < 0:
            raise ConfigError(f"scatterer range must be >= 0, got {self.range}")
        if self.amplitude <= 0:
            raise ConfigError(f"scatterer amplitude must be > 0, got {self.amplitude}")


@dataclass
class IFCube:
    """Complex ADC samples, indexed (sample i, chirp j, antenna k)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ConfigError(f"IF cube must be 3-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("IF cube contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class PlatformConfig:
    """Rotating-platform sweep parameters."""

    angular_speed: float = 150.0  # deg/s
    frame_rate: float = 10.0      # Hz
    sweep_extent: float = 180.0   # deg, swept back and forth
    jitter_std: float = 0.0       # deg, per-frame step perturbation

    def __post_init__(self):
        fields = (self.angular_speed, self.frame_rate, self.sweep_extent, self.jitter_std)
        if not all(map(math.isfinite, fields)):
            raise ConfigError(f"platform values must be finite, got {self}")
        if self.angular_speed <= 0:
            raise ConfigError("angular_speed must be > 0")
        if self.frame_rate <= 0:
            raise ConfigError("frame_rate must be > 0")
        if self.sweep_extent <= 0:
            raise ConfigError("sweep_extent must be > 0")
        if self.jitter_std < 0:
            raise ConfigError("jitter_std must be >= 0")
        if not 0 < self.nominal_step < math.inf:
            raise ConfigError(
                f"angular_speed / frame_rate must be finite and > 0, got {self.nominal_step}"
            )

    @property
    def nominal_step(self) -> float:
        """Nominal heading increment per frame, deg."""
        return self.angular_speed / self.frame_rate


def _check_rows(rows: int, n_samples: int) -> None:
    """Reject a fast-time crop outside [1, n_samples]: a chirp is never extended."""
    if rows > n_samples:
        raise DimensionError(f"cannot extend fast-time axis: {rows} > {n_samples} samples")
    if rows < 1:
        raise DimensionError("heatmap dims must be >= 1")


def _signal(scenes: list[list[Scatterer]], cfg: RadarConfig, rows: int) -> np.ndarray:
    """Chirp-invariant (frames, rows, n_antennas) signal of the first ``rows`` fast-time samples.

    The one scatterer loop, for the IF cube and the chirp sum alike.  Frame
    f is the signal of the sensor-frame scene ``scenes[f]``.  Each
    scatterer contributes a fast-time tone at its beat frequency and a
    linear phase progression across antennas.  The antenna taper attenuates
    off-boresight reflectors by cos(azimuth)**gain_taper_exp.  Chirps are
    identical (static scene, zero Doppler), so one matrix is every chirp's
    signal.  A tone depends on range only, so frames share it.
    """
    signal = np.zeros((len(scenes), rows, cfg.n_antennas), dtype=np.complex128)
    i = np.arange(rows)
    k = np.arange(cfg.n_antennas)
    tones: dict[float, np.ndarray] = {}
    for out, scene in zip(signal, scenes):
        for sc in scene:
            if sc.range >= cfg.max_range:
                raise RangeAliasingError(
                    f"scatterer at {sc.range:.2f} m aliases: unambiguous range is "
                    f"{cfg.max_range:.2f} m"
                )
            if abs(sc.azimuth) >= math.pi / 2:
                raise ConfigError(
                    f"scatterer azimuth {sc.azimuth:.3f} rad outside sensor half-space"
                )
            amp = sc.amplitude
            if cfg.gain_taper_exp > 0:
                amp *= max(math.cos(sc.azimuth), 0.0) ** cfg.gain_taper_exp
            tone = tones.get(sc.range)
            if tone is None:
                f_if = cfg.beat_frequency(sc.range)
                tone = tones[sc.range] = np.exp(2j * math.pi * f_if * i / cfg.sample_rate)
            steer = np.exp(1j * cfg.phase_step(sc.azimuth) * k)
            out += amp * tone[:, None] * steer[None, :]
    return signal


def _add_noise(data: np.ndarray, scale: float, seed: int) -> None:
    """Add circular complex Gaussian noise, ``scale`` per component, in place.

    One draw for the real parts, then one for the imaginary parts; adding
    them per component allocates no complex temporary of the data's size.
    """
    rng = np.random.default_rng(seed)
    data.real += scale * rng.standard_normal(data.shape)
    data.imag += scale * rng.standard_normal(data.shape)


def simulate_if_cube(
    scene: list[Scatterer],
    cfg: RadarConfig,
    noise_std: float = 0.0,
    seed: int = 0,
) -> IFCube:
    """Forward-simulate the full IF cube of a static sensor-frame scene.

    The signal of :func:`_signal` is repeated over the chirps.  Noise is
    circularly symmetric complex Gaussian with total standard deviation
    ``noise_std`` per element.  A heatmap reads only the chirp sum of the
    first rows, which :func:`simulate_chirp_sum` draws directly; this cube
    is for writing IFC1 files and for cube-reading tools.
    """
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    signal = _signal([scene], cfg, cfg.n_samples)[0]
    cube = np.repeat(signal[:, None, :], cfg.n_chirps, axis=1)
    if noise_std > 0:
        _add_noise(cube, noise_std / math.sqrt(2.0), seed)
    return IFCube(cube)


def simulate_chirp_sum(
    scenes: list[list[Scatterer]],
    cfg: RadarConfig,
    rows: int,
    noise_std: float,
    seeds: list[int],
) -> np.ndarray:
    """Coherent chirp sums of the first ``rows`` fast-time samples, (frames, rows, n_antennas).

    Frame f is what a heatmap of ``rows`` range bins reads from the IF cube
    of ``scenes[f]`` (:func:`simulate_if_cube`), drawn with ``seeds[f]``
    and without building the cube.  The signal adds ``n_chirps`` times.
    The noise of n iid chirps, each N(0, s**2) per component, sums to
    N(0, n * s**2), so one draw per element with ``sqrt(n_chirps)`` times
    the cube's per-component scale has exactly the distribution of the
    cube's chirp sum, though not the same draw for the same seed.
    """
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    _check_rows(rows, cfg.n_samples)
    summed = _signal(scenes, cfg, rows)
    summed *= cfg.n_chirps
    if noise_std > 0:
        scale = math.sqrt(cfg.n_chirps) * noise_std / math.sqrt(2.0)
        for frame, seed in zip(summed, seeds, strict=True):
            _add_noise(frame, scale, seed)
    return summed


def sweep_headings(pcfg: PlatformConfig, n_frames: int, seed: int = 0) -> np.ndarray:
    """Triangle-wave heading trajectory over [0, sweep_extent], deg.

    Frame 0 is at heading 0; each subsequent frame advances by the nominal
    step plus Gaussian jitter (clamped to a non-negative step), reflecting
    at the sweep limits.  The triangle wave has period 2 * sweep_extent, so
    a step longer than the extent folds back in one remainder.
    """
    if n_frames < 1:
        raise ConfigError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    headings = np.empty(n_frames)
    extent = pcfg.sweep_extent
    pos, direction = 0.0, 1.0
    for f in range(n_frames):
        headings[f] = pos
        step = pcfg.nominal_step
        if pcfg.jitter_std > 0:
            step = max(0.0, step + rng.normal(0.0, pcfg.jitter_std))
        pos += direction * step
        if pos < 0.0:
            pos, direction = -pos, -direction
        if pos > extent:
            pos %= 2 * extent
            if pos > extent:
                pos, direction = 2 * extent - pos, -direction
    return headings


def scene_at_heading(
    scene: list[Scatterer], heading_deg: float, fov_deg: float
) -> list[Scatterer]:
    """Re-express world-frame scatterers in the sensor frame at ``heading_deg``.

    Azimuths wrap into [-pi, pi); scatterers outside the field of view at
    this heading are dropped.
    """
    out = []
    half_fov = math.radians(fov_deg) / 2.0
    h = math.radians(heading_deg)
    for sc in scene:
        az = (sc.azimuth - h + math.pi) % (2 * math.pi) - math.pi
        if abs(az) < half_fov:
            out.append(Scatterer(sc.range, az, sc.amplitude))
    return out


def sweep_schedule(pcfg: PlatformConfig, n_frames: int, seed: int = 0) -> list[tuple[float, int]]:
    """Per-frame (heading deg, noise seed) of a sweep; both streams derive from ``seed``.

    The heading jitter draws from ``seed % 2**32``.  Each frame's noise seed
    is the first word of the state of its own child spawned from ``seed``,
    so every frame carries its own noise, drawn apart from the jitter.
    """
    _, noise_seq = np.random.SeedSequence(seed).spawn(2)
    headings = sweep_headings(pcfg, n_frames, seed=seed % (2**32))
    noise_seeds = [int(s.generate_state(1)[0]) for s in noise_seq.spawn(n_frames)]
    return [(float(h), s) for h, s in zip(headings, noise_seeds)]


def simulate_platform_sweep(
    scene: list[Scatterer],
    cfg: RadarConfig,
    pcfg: PlatformConfig,
    n_frames: int,
    noise_std: float = 0.0,
    seed: int = 0,
) -> list[tuple[IFCube, float]]:
    """Simulate a rotating-platform capture; returns (cube, true heading) pairs.

    Scene azimuths are world-frame; each frame sees the scene rotated by its
    heading, clipped to the sensor FOV.  All randomness (jitter and noise)
    derives from ``seed`` through :func:`sweep_schedule`.
    """
    return [
        (simulate_if_cube(scene_at_heading(scene, heading, cfg.fov_deg), cfg,
                          noise_std=noise_std, seed=noise_seed), heading)
        for heading, noise_seed in sweep_schedule(pcfg, n_frames, seed)
    ]
