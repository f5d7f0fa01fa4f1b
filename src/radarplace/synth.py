"""Synthetic multi-place world and the end-to-end evaluation pipeline.

Places are laid out with known ground-truth positions and random point
reflectors, so retrieval metrics can be computed against exact truth.  The
evaluation mirrors the structural studies of the pipeline: recall under
small variation, degradation across rotation/lateral buckets, and the
fixed-step versus relative-pose mosaicking comparison.  Entry points:
:func:`build_world`, :func:`render_view`, :func:`render_sweep`,
:func:`mosaic_view`, :func:`training_dataset` and :func:`evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import concat as cc
from . import encoder as enc
from .errors import ConfigError
from .heatmap import Heatmap, heatmaps_from_sums
from .placedb import PlaceDB, PlaceRecord, max_f1, recall_at_n
from .radar import (
    PlatformConfig,
    RadarConfig,
    Scatterer,
    scene_at_heading,
    simulate_chirp_sum,
    sweep_schedule,
)

ROTATION_BUCKETS = ((0.0, 5.0), (5.0, 10.0), (10.0, 20.0), (20.0, 40.0))
LATERAL_BUCKETS = ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0))
RANGE_HI_M = 40.0  # farthest reflector of a place, m
AMP_LO, AMP_HI = 0.5, 2.0  # reflector amplitude range


@dataclass(frozen=True)
class WorldConfig:
    """Synthetic world layout and per-view simulation parameters."""

    n_places: int = 60
    spacing_m: float = 20.0
    scatterers_per_place: int = 8
    range_lo: float = 6.0
    noise_std: float = 0.05
    heatmap_rows: int = 64
    heatmap_cols: int = 192
    mosaic_cols: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.n_places < 1:
            raise ConfigError("n_places must be >= 1")
        if self.spacing_m <= 0:
            raise ConfigError("spacing_m must be > 0")
        # distances between places are squared on the way to a norm
        extent = self.spacing_m * (self.n_places - 1)
        if not math.isfinite(extent * extent):
            raise ConfigError(
                f"spacing_m = {self.spacing_m} over {self.n_places} places overflows float64")
        if self.scatterers_per_place < 0:
            raise ConfigError("scatterers_per_place must be >= 0")
        if min(self.heatmap_rows, self.heatmap_cols, self.mosaic_cols) < 1:
            raise ConfigError("heatmap_rows, heatmap_cols and mosaic_cols must be >= 1")


@dataclass
class Place:
    position: tuple[float, float]
    points: np.ndarray  # (k, 3): x, y (m, relative to position), amplitude


@dataclass
class World:
    cfg: WorldConfig
    places: list[Place]


def build_world(cfg: WorldConfig) -> World:
    """Place centres on a line, each with its own random reflector cloud."""
    rng = np.random.default_rng(cfg.seed)
    places = []
    for i in range(cfg.n_places):
        k = cfg.scatterers_per_place
        ranges = rng.uniform(cfg.range_lo, RANGE_HI_M, size=k)
        azimuths = rng.uniform(-math.pi, math.pi, size=k)
        amps = rng.uniform(AMP_LO, AMP_HI, size=k)
        points = np.stack(
            [ranges * np.cos(azimuths), ranges * np.sin(azimuths), amps], axis=1
        )
        places.append(Place((i * cfg.spacing_m, 0.0), points))
    return World(cfg, places)


def _scene_from(place: Place, lateral: tuple[float, float]) -> list[Scatterer]:
    """World-frame polar scene as seen from the (offset) sensor position."""
    out = []
    for x, y, amp in place.points:
        rel_x, rel_y = x - lateral[0], y - lateral[1]
        rng = math.hypot(rel_x, rel_y)
        az = math.atan2(rel_y, rel_x)
        if rng > 0:
            out.append(Scatterer(rng, az, amp))
    return out


def _render(
    scene: list[Scatterer], cfg: RadarConfig, wcfg: WorldConfig,
    headings_deg: list[float], seeds: list[int],
) -> list[Heatmap]:
    """Heatmaps of a world-frame scene at each heading, frame f drawn with ``seeds[f]``.

    One pass for all headings: only the chirp sums of the first
    ``heatmap_rows`` samples are simulated, since that is all a heatmap
    reads, and no IF cube is built.
    """
    scenes = [scene_at_heading(scene, h, cfg.fov_deg) for h in headings_deg]
    summed = simulate_chirp_sum(scenes, cfg, wcfg.heatmap_rows, wcfg.noise_std, seeds)
    return heatmaps_from_sums(summed, cfg, wcfg.heatmap_cols)


def render_view(
    world: World,
    place_idx: int,
    cfg: RadarConfig,
    heading_deg: float = 0.0,
    lateral: tuple[float, float] = (0.0, 0.0),
    seed: int = 0,
) -> Heatmap:
    """Single-frame heatmap of one place from a perturbed pose."""
    scene = _scene_from(world.places[place_idx], lateral)
    return _render(scene, cfg, world.cfg, [heading_deg], [seed])[0]


def render_sweep(
    world: World,
    place_idx: int,
    cfg: RadarConfig,
    pcfg: PlatformConfig,
    n_frames: int,
    body_heading_deg: float = 0.0,
    lateral: tuple[float, float] = (0.0, 0.0),
    seed: int = 0,
) -> list[Heatmap]:
    """Rotating-platform heatmap sequence from one pose; seeds from :func:`sweep_schedule`."""
    scene = _scene_from(world.places[place_idx], lateral)
    schedule = sweep_schedule(pcfg, n_frames, seed)
    return _render(scene, cfg, world.cfg, [body_heading_deg + h for h, _ in schedule],
                   [s for _, s in schedule])


def standardize_mosaic(mosaic: Heatmap, target_cols: int) -> Heatmap:
    """Center-crop or zero-pad a mosaic to a fixed column count."""
    vals = mosaic.values
    rows, cols = vals.shape
    if cols >= target_cols:
        start = (cols - target_cols) // 2
        out = vals[:, start : start + target_cols]
        axis = mosaic.angle_axis[start : start + target_cols]
    else:
        pad_left = (target_cols - cols) // 2
        pad_right = target_cols - cols - pad_left
        out = np.pad(vals, ((0, 0), (pad_left, pad_right)))
        axis = cc._extend_angle_axis(mosaic.angle_axis, pad_left, pad_right)
    return Heatmap(out, mosaic.range_bin_m, axis)


def mosaic_view(
    world: World,
    place_idx: int,
    cfg: RadarConfig,
    pcfg: PlatformConfig,
    mode: str = "relpose",
    body_heading_deg: float = 0.0,
    lateral: tuple[float, float] = (0.0, 0.0),
    seed: int = 0,
) -> Heatmap:
    """First-cycle mosaic (frame 0's rows, standardized columns) from one pose."""
    n_frames = int(round(pcfg.sweep_extent / pcfg.nominal_step)) + 1
    frames = render_sweep(world, place_idx, cfg, pcfg, n_frames, body_heading_deg, lateral, seed)
    # jitter can reflect off the sweep limit a frame early; keep the first
    # constant-sign run only
    _, mosaics = cc.mosaic_cycles(frames, pcfg, mode)
    return standardize_mosaic(mosaics[0], world.cfg.mosaic_cols)


def _view(world: World, place_idx: int, cfg: RadarConfig, pcfg: PlatformConfig | None,
          mode: str, heading_deg: float = 0.0,
          lateral: tuple[float, float] = (0.0, 0.0), seed: int = 0) -> Heatmap:
    """A single frame for mode "none", else a one-cycle mosaic in that mode."""
    if mode == "none":
        return render_view(world, place_idx, cfg, heading_deg=heading_deg,
                           lateral=lateral, seed=seed)
    return mosaic_view(world, place_idx, cfg, pcfg or PlatformConfig(), mode=mode,
                       body_heading_deg=heading_deg, lateral=lateral, seed=seed)


def training_dataset(
    world: World, cfg: RadarConfig, max_rot_deg: float = 8.0, max_lat_m: float = 0.8,
    passes: int = 2, seed: int = 100, pcfg: PlatformConfig | None = None, mode: str = "none",
):
    """(view, position) pairs, place-major: a reference view plus perturbed revisits.

    Views are made by :func:`_view` in ``mode``, so they are single frames
    for "none" and one-cycle mosaics otherwise.
    """
    rng = np.random.default_rng(seed)
    dataset = []
    for i, place in enumerate(world.places):
        dataset.append((_view(world, i, cfg, pcfg, mode, seed=seed + i), place.position))
        for p in range(1, passes):
            rot = rng.uniform(-max_rot_deg, max_rot_deg)
            ang = rng.uniform(0, 2 * math.pi)
            lat_m = rng.uniform(0, max_lat_m)
            lateral = (lat_m * math.cos(ang), lat_m * math.sin(ang))
            pos = (place.position[0] + lateral[0], place.position[1] + lateral[1])
            hm = _view(world, i, cfg, pcfg, mode, heading_deg=rot, lateral=lateral,
                       seed=seed + 1000 * p + i)
            dataset.append((hm, pos))
    return dataset


def build_reference_db(world: World, cfg: RadarConfig, weights, seed: int = 0,
                       pcfg: PlatformConfig | None = None,
                       mode: str = "none") -> PlaceDB:
    """Reference-traversal database: one record per place at the base pose."""
    db = PlaceDB()
    for i, place in enumerate(world.places):
        hm = _view(world, i, cfg, pcfg, mode, seed=seed + i)
        desc = enc.encode(hm, weights)
        db.add(PlaceRecord(i, desc.values, place.position, 0.0, "reference"))
    return db


def _sample_pose(rng, rot_bucket, lat_bucket):
    rot = rng.uniform(*rot_bucket) * rng.choice([-1.0, 1.0])
    lat_m = rng.uniform(*lat_bucket)
    ang = rng.uniform(0, 2 * math.pi)
    return rot, (lat_m * math.cos(ang), lat_m * math.sin(ang))


def evaluate(
    world: World,
    cfg: RadarConfig,
    weights,
    queries_per_cell: int = 4,
    seed: int = 7,
    concat_mode: str = "none",
    pcfg: PlatformConfig | None = None,
) -> dict:
    """Full retrieval evaluation with the 4x4 rotation/lateral bucket grid.

    Returns a JSON-serializable report: overall recall@1/5/10 and maxF1
    plus per-bucket recall@1.
    """
    if concat_mode not in ("none", "fixed", "relpose"):
        raise ConfigError(f"unknown concat mode {concat_mode!r}")
    if queries_per_cell < 1:
        raise ConfigError(f"queries_per_cell must be >= 1, got {queries_per_cell}")
    db = build_reference_db(world, cfg, weights, seed=seed, pcfg=pcfg, mode=concat_mode)

    rng = np.random.default_rng(seed + 1)
    results = []
    grid = [[None] * len(LATERAL_BUCKETS) for _ in ROTATION_BUCKETS]
    n_places = len(world.places)
    for ri, rot_bucket in enumerate(ROTATION_BUCKETS):
        for li, lat_bucket in enumerate(LATERAL_BUCKETS):
            cell_results = []
            for qn in range(queries_per_cell):
                place = int(rng.integers(n_places))
                rot, lateral = _sample_pose(rng, rot_bucket, lat_bucket)
                qpos = (
                    world.places[place].position[0] + lateral[0],
                    world.places[place].position[1] + lateral[1],
                )
                view_seed = seed + 10_000 + ri * 1000 + li * 100 + qn
                hm = _view(world, place, cfg, pcfg, concat_mode, heading_deg=rot,
                           lateral=lateral, seed=view_seed)
                desc = enc.encode(hm, weights)
                res = db.query(desc.values, k=10, query_position=qpos)
                cell_results.append(res)
            kept = [r for r in cell_results if r.has_match]
            grid[ri][li] = round(recall_at_n(kept, 1), 6) if kept else None
            results.extend(cell_results)

    kept = [r for r in results if r.has_match]
    dropped = len(results) - len(kept)
    f1, tau = max_f1(kept)
    report = {
        "n_queries": len(results),
        "n_dropped_no_match": dropped,
        "recall_at_1": round(recall_at_n(kept, 1), 6),
        "recall_at_5": round(recall_at_n(kept, 5), 6),
        "recall_at_10": round(recall_at_n(kept, 10), 6),
        "max_f1": round(f1, 6),
        "max_f1_threshold": round(tau, 6),
        "rotation_buckets_deg": [list(b) for b in ROTATION_BUCKETS],
        "lateral_buckets_m": [list(b) for b in LATERAL_BUCKETS],
        "recall1_grid": grid,
        "concat_mode": concat_mode,
    }
    return report


def format_report(report: dict) -> str:
    """Human-readable report table (deterministic; no timestamps)."""
    lines = []
    lines.append(f"queries: {report['n_queries']} "
                 f"(dropped without ground-truth match: {report['n_dropped_no_match']})")
    lines.append(f"concat mode: {report['concat_mode']}")
    lines.append(
        "recall@1/5/10: "
        f"{report['recall_at_1']:.4f}/{report['recall_at_5']:.4f}/{report['recall_at_10']:.4f}"
    )
    lines.append(
        f"maxF1: {report['max_f1']:.4f} at threshold {report['max_f1_threshold']:.4f}"
    )
    lines.append("")
    lines.append("recall@1 by rotation (rows, deg) x lateral (cols, m):")
    header = "rot\\lat   " + "  ".join(f"{lo:.1f}-{hi:.1f}" for lo, hi in LATERAL_BUCKETS)
    lines.append(header)
    for (lo, hi), row in zip(ROTATION_BUCKETS, report["recall1_grid"]):
        cells = "   ".join("  -- " if v is None else f"{v:.3f}" for v in row)
        lines.append(f"{lo:>2.0f}-{hi:<4.0f}  {cells}")
    return "\n".join(lines) + "\n"
