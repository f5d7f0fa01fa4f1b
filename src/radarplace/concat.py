"""Heatmap alignment and rotation-cycle mosaicking.

Neighbouring frames from the rotating platform are registered by an
exhaustive integer-translation search maximizing cosine similarity of the
overlap, rotation cycles are detected from the sign of the angle offsets,
and each cycle's frames are united onto a wide-FOV canvas at their
cumulative offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError, NoRotationError
from .heatmap import Heatmap

DEFAULT_MIN_OVERLAP = 0.25


@dataclass(frozen=True)
class PoseOffset:
    """Estimated integer (range, angle) translation between two frames."""

    r_offset: int
    a_offset: int
    score: float  # cosine similarity of the best alignment, in [-1, 1]


@dataclass(frozen=True)
class CycleSegment:
    """Maximal run of frames sharing one rotation direction."""

    start_idx: int
    end_idx: int   # inclusive
    direction: int  # +1 or -1

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ConfigError("direction must be +1 or -1")
        if self.end_idx < self.start_idx:
            raise ConfigError("end_idx must be >= start_idx")

    def __len__(self) -> int:
        return self.end_idx - self.start_idx + 1


def _overlap_slices(shape, r: int, a: int):
    """Index ranges of the overlap of a map and its (r, a)-translated copy.

    Translating by (r, a) moves content down/right; the overlap in the
    reference map is returned first, the matching region of the moving map
    second.
    """
    rows, cols = shape
    r0, r1 = max(0, r), rows + min(0, r)
    c0, c1 = max(0, a), cols + min(0, a)
    if r1 <= r0 or c1 <= c0:
        return None
    ref = (slice(r0, r1), slice(c0, c1))
    mov = (slice(r0 - r, r1 - r), slice(c0 - a, c1 - a))
    return ref, mov


def translate(values: np.ndarray, r: int, a: int) -> np.ndarray:
    """Non-circular integer translation; vacated cells are zero-filled."""
    out = np.zeros_like(values)
    sl = _overlap_slices(values.shape, r, a)
    if sl is not None:
        ref, mov = sl
        out[ref] = values[mov]
    return out


def estimate_offset(
    h_prev: Heatmap,
    h_cur: Heatmap,
    r_window: int,
    a_window: int,
    min_overlap: float = DEFAULT_MIN_OVERLAP,
) -> PoseOffset:
    """Exhaustive integer-translation registration of h_cur against h_prev.

    The returned (r, a) is the displacement of h_cur's content relative to
    h_prev: on the overlap, h_cur matches h_prev translated by (r, a).
    Every candidate in [-r_window, r_window] x [-a_window, a_window] is
    scored by the cosine similarity of the rectangular overlap; the
    best-scoring displacement wins.  Ties break towards smaller |a|, then
    smaller |r|, then lexicographic (r, a).  Candidates whose overlap is
    below ``min_overlap`` of the frame area are skipped.
    """
    if h_prev.values.shape != h_cur.values.shape:
        raise DimensionError("frames must have equal dims for registration")
    if r_window < 0 or a_window < 0:
        raise ConfigError("search windows must be >= 0")
    A = h_prev.values
    B = h_cur.values
    area = A.size
    best = None  # (-score, |a|, |r|, r, a)
    for r in range(-r_window, r_window + 1):
        for a in range(-a_window, a_window + 1):
            sl = _overlap_slices(A.shape, r, a)
            if sl is None:
                continue
            ref, mov = sl
            # displacement candidate: h_prev translated by (r, a) vs h_cur
            x = A[mov]
            y = B[ref]
            if x.size < min_overlap * area:
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
        raise AlignmentError(
            f"no candidate shift reaches {min_overlap:.0%} overlap "
            f"(windows r={r_window}, a={a_window})"
        )
    return PoseOffset(r_offset=best[3], a_offset=best[4], score=-best[0])


def register_sequence(frames: list[Heatmap], r_window: int, a_window: int) -> list[PoseOffset]:
    """Per-frame offsets, identity first: ``offsets[t]`` registers frame t on t-1."""
    return [PoseOffset(0, 0, 1.0)] + [
        estimate_offset(prev, cur, r_window, a_window) for prev, cur in zip(frames, frames[1:])
    ]


def detect_cycles(offsets: list[PoseOffset]) -> list[CycleSegment]:
    """Partition a frame sequence into maximal constant-sign rotation runs.

    Zero angle offsets are absorbed into the surrounding run (leading zeros
    join the first run).  Raises if every angle offset is zero.
    """
    if not offsets:
        raise ConfigError("offsets must be nonempty")
    signs = [int(np.sign(o.a_offset)) for o in offsets]
    if not any(signs):
        raise NoRotationError("all angle offsets are zero; no rotation detected")

    segments: list[CycleSegment] = []
    start = 0
    cur_dir = 0
    for i, s in enumerate(signs):
        if s == 0:
            continue
        if cur_dir == 0:
            cur_dir = s
        elif s != cur_dir:
            segments.append(CycleSegment(start, i - 1, cur_dir))
            start, cur_dir = i, s
    segments.append(CycleSegment(start, len(signs) - 1, cur_dir))
    return segments


def signs_consistent(offsets: list[PoseOffset], segment: CycleSegment) -> bool:
    """Chained sign-equality check over a segment (zeros excluded)."""
    signs = {
        int(np.sign(o.a_offset))
        for o in offsets[segment.start_idx : segment.end_idx + 1]
        if o.a_offset != 0
    }
    return len(signs) <= 1


def _extend_angle_axis(axis: np.ndarray, left: int, right: int) -> np.ndarray:
    """Extend a strictly-increasing axis by uniform boresight-spacing steps."""
    n = axis.size
    mid = n // 2
    spacing = axis[mid] - axis[mid - 1] if n > 1 else 1.0
    lo = axis[0] - spacing * np.arange(left, 0, -1)
    hi = axis[-1] + spacing * np.arange(1, right + 1)
    return np.concatenate([lo, axis, hi])


def _concat_at_offsets(
    frames: list[Heatmap],
    per_pair: list[tuple[int, int]],
    max_canvas_cols: int,
) -> Heatmap:
    """Union frames on a canvas at cumulative (range, angle) placements.

    ``per_pair`` holds content displacements of frame t relative to frame
    t-1; undoing a displacement places the frame at the negated cumulative
    sum in frame-0 coordinates.
    """
    base = frames[0]
    rows, cols = base.values.shape
    cum = [(0, 0)]
    for dr, da in per_pair:
        cum.append((cum[-1][0] - dr, cum[-1][1] - da))

    rs = [c[0] for c in cum]
    as_ = [c[1] for c in cum]
    r_min, r_max = min(rs), max(rs)
    a_min, a_max = min(as_), max(as_)
    canvas_rows = rows + (r_max - r_min)
    canvas_cols = cols + (a_max - a_min)
    if canvas_cols > max_canvas_cols:
        raise ConfigError(
            f"cumulative offsets span {canvas_cols} columns, above the "
            f"canvas limit {max_canvas_cols}"
        )
    canvas = np.zeros((canvas_rows, canvas_cols))
    for frame, (cr, ca) in zip(frames, cum):
        if frame.values.shape != (rows, cols):
            raise DimensionError("all frames in a segment must share dims")
        r0 = cr - r_min
        c0 = ca - a_min
        region = canvas[r0 : r0 + rows, c0 : c0 + cols]
        np.maximum(region, frame.values, out=region)

    # canvas columns extend the first frame's axis on both sides
    left = -a_min if a_min < 0 else 0
    right = a_max if a_max > 0 else 0
    axis = _extend_angle_axis(base.angle_axis, left, right)
    return Heatmap(canvas, base.range_bin_m, axis)


def concat_relative_pose(
    frames: list[Heatmap],
    segment: CycleSegment,
    offsets: list[PoseOffset],
    max_canvas_cols: int = 8192,
) -> Heatmap:
    """Mosaic one rotation cycle using estimated pairwise offsets.

    ``offsets[t]`` relates frame t-1 to frame t; the segment's frames are
    placed at their cumulative offsets and united by elementwise maximum.
    The output always runs over increasing azimuth regardless of rotation
    direction.
    """
    lo, hi = segment.start_idx, segment.end_idx
    if lo < 0 or hi >= len(frames) or hi >= len(offsets):
        raise ConfigError("segment indices out of range")
    seg_frames = frames[lo : hi + 1]
    per_pair = [(offsets[t].r_offset, offsets[t].a_offset) for t in range(lo + 1, hi + 1)]
    return _concat_at_offsets(seg_frames, per_pair, max_canvas_cols)


def concat_fixed_step(
    frames: list[Heatmap],
    segment: CycleSegment,
    step_bins: int,
    max_canvas_cols: int = 8192,
) -> Heatmap:
    """Mosaic one rotation cycle at a fixed nominal angle step (baseline)."""
    if step_bins <= 0:
        raise ConfigError("step_bins must be > 0")
    lo, hi = segment.start_idx, segment.end_idx
    if lo < 0 or hi >= len(frames):
        raise ConfigError("segment indices out of range")
    seg_frames = frames[lo : hi + 1]
    per_pair = [(0, segment.direction * step_bins) for _ in range(len(seg_frames) - 1)]
    return _concat_at_offsets(seg_frames, per_pair, max_canvas_cols)


def default_a_window(n_cols: int, span_deg: float = 20.0) -> int:
    """Angle search window, in bins, spanning span_deg at boresight.

    Column spacing at boresight is 2/n_cols rad for half-wavelength element
    spacing; callers with other geometries can pass an explicit window.
    """
    bins_per_rad = n_cols / 2.0
    return int(math.ceil(math.radians(span_deg) * bins_per_rad))
