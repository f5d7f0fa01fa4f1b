"""Heatmap alignment and rotation-cycle mosaicking.

Neighbouring frames from the rotating platform are registered by the
integer translation that maximizes the cosine similarity of their overlap
(:func:`register_sequence`, :func:`estimate_offset`), rotation cycles are
found from the signs of the angle offsets (:func:`detect_cycles`), and each
cycle is united onto a wide-FOV canvas (:func:`concat_relative_pose`).
:func:`mosaic_cycles` is the one recipe chaining them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError, NoRotationError
from .heatmap import Heatmap
from .radar import PlatformConfig

DEFAULT_MIN_OVERLAP = 0.25
MAX_CANVAS_COLS = 8192
A_WINDOW_MARGIN_DEG = 8.0  # angle search beyond the platform's nominal step, deg


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
) -> PoseOffset:
    """Exhaustive integer-translation registration of h_cur against h_prev.

    The returned (r, a) is the displacement of h_cur's content relative to
    h_prev: on the overlap, h_cur matches h_prev translated by (r, a).
    Every candidate in [-r_window, r_window] x [-a_window, a_window] is
    scored by the cosine similarity of the rectangular overlap; the
    best-scoring displacement wins.  Ties break towards smaller |a|, then
    smaller |r|, then lexicographic (r, a).  Candidates whose overlap is
    below DEFAULT_MIN_OVERLAP of the frame area, or has zero norm, are
    skipped.  This is :func:`register_sequence` on the two frames.
    """
    return register_sequence([h_prev, h_cur], r_window, a_window)[1]


def register_sequence(frames: list[Heatmap], r_window: int, a_window: int) -> list[PoseOffset]:
    """Per-frame offsets, identity first: ``offsets[t]`` registers frame t on t-1.

    Each offset is that of :func:`estimate_offset` on frames t-1 and t, and
    a failing pair raises what that pair raises, the first failing pair
    first.  ``_fast_scores`` scores the whole sequence in one pass; those
    scores differ from the direct formula only by rounding, by at most
    ``_rescore_margin``.  Every candidate within twice that margin of its
    pair's best fast score is re-scored with the direct formula, and the
    tie-break picks among them, so the result is bit-identical to scoring
    every candidate of every pair directly.  Windows beyond the frame are
    clamped, since such shifts leave no overlap.
    """
    if not frames:
        raise ConfigError("frames must be nonempty")
    offsets = [PoseOffset(0, 0, 1.0)]
    if len(frames) == 1:
        return offsets
    shape = frames[0].values.shape
    n = next((t for t, f in enumerate(frames) if f.values.shape != shape), len(frames))
    if n == 1:
        raise DimensionError("frames must have equal dims for registration")
    if r_window < 0 or a_window < 0:
        raise ConfigError("search windows must be >= 0")
    values = [f.values for f in frames[:n]]
    rows, cols = shape
    R, W = min(int(r_window), rows - 1), min(int(a_window), cols - 1)
    num, nx, ny = _fast_scores(values, R, W)
    cells = np.outer(rows - np.abs(np.arange(-R, R + 1)), cols - np.abs(np.arange(-W, W + 1)))
    valid = ~(cells < DEFAULT_MIN_OVERLAP * rows * cols) & (nx > 0.0) & (ny > 0.0)
    with np.errstate(all="ignore"):  # the margin is infinite on any non-finite score
        fast = num / np.sqrt(nx * ny)
        delta = _rescore_margin(rows * cols, nx, ny, fast, valid)
        best = np.where(valid, fast, -np.inf).max(axis=(1, 2))
        # "not below" keeps every candidate when the margin is infinite or a score is NaN
        keep = valid & ~(fast < (best - 2.0 * delta)[:, None, None])
    for p in range(n - 1):
        if not valid[p].any():
            raise AlignmentError(
                f"no candidate shift reaches {DEFAULT_MIN_OVERLAP:.0%} overlap "
                f"(windows r={r_window}, a={a_window})"
            )
        i, j = np.nonzero(keep[p])
        key = min(_direct_key(values[p], values[p + 1], r - R, a - W)
                  for r, a in zip(i.tolist(), j.tolist()))
        offsets.append(PoseOffset(r_offset=key[3], a_offset=key[4], score=-key[0]))
    if n < len(frames):
        raise DimensionError("frames must have equal dims for registration")
    return offsets


def _direct_key(A: np.ndarray, B: np.ndarray, r: int, a: int) -> tuple:
    """Tie-break key (-score, |a|, |r|, r, a) of shift (r, a), its score computed directly."""
    ref, mov = _overlap_slices(A.shape, r, a)
    # displacement candidate: h_prev translated by (r, a) vs h_cur
    xf = A[mov].ravel()
    yf = B[ref].ravel()
    score = float(np.dot(xf, yf) / math.sqrt(np.dot(xf, xf) * np.dot(yf, yf)))
    return (-score, abs(a), abs(r), r, a)


def _fast_scores(frames: list[np.ndarray], R: int, W: int):
    """Numerator and the two squared norms of every shift of every frame pair.

    After Lewis, "Fast Normalized Cross-Correlation", 1995, with the
    overlap masks of Padfield, IEEE TIP 2012.  Each is a (pairs, 2R + 1,
    2W + 1) array indexed by (p, r + R, a + W), pair p registering frame
    p + 1 (B) on frame p (A).  For a range shift r the overlap rows give
    one Gram matrix G = A[mov].T @ B[ref]; the numerator of shift (r, a) is
    the sum of its diagonal a, sum_c G[c - a, c].  The moving rows of shift
    r are the reference rows of shift -r, so one table of per-column sums
    of squares, per frame and reference rows, serves a frame both as B of
    one pair and as A of the next.  The overlap columns of the moving map
    are a prefix of A for a >= 0 and a suffix for a < 0, and the reverse
    for B, so each norm is a left or a right running sum of those column
    sums, never a difference of sums: every sum here adds non-negative
    terms.  Only the column sums and the results grow with the sweep; every
    pair writes its Gram matrices into the same padded buffer, so a sweep
    of small frames needs no allocation large enough to map fresh pages.
    """
    rows, cols = frames[0].shape
    shifts = range(-R, R + 1)
    # sq[f, r + R, c] sums frame f's squares in column c over the reference rows of shift r
    sq = np.empty((len(frames), len(shifts), cols))
    for f, x in enumerate(frames):
        for i, r in enumerate(shifts):
            ref = x[max(0, r) : rows + min(0, r)]
            np.einsum("ij,ij->j", ref, ref, out=sq[f, i])
    num = np.empty((len(frames) - 1, len(shifts), 2 * W + 1))
    # pad[c, c + a + W] = G[c, c + a], and 0 where c + a leaves the frame
    pad = np.zeros((cols, cols + 2 * W))
    gram = pad[:, W : W + cols]
    st = pad.strides
    diagonals = np.lib.stride_tricks.as_strided(pad, (cols, 2 * W + 1), (st[0] + st[1], st[1]))
    for p, (A, B) in enumerate(zip(frames, frames[1:])):
        for i, r in enumerate(shifts):
            np.matmul(A[max(0, -r) : rows - max(0, r)].T, B[max(0, r) : rows + min(0, r)], out=gram)
            diagonals.sum(axis=0, out=num[p, i])
    left, right = _running_sums(sq)
    pos = np.arange(W + 1)  # a = 0 .. W
    neg = np.arange(W, 0, -1)  # -a for a = -W .. -1
    # pair p reads frame p at shift -r as A and frame p + 1 at shift r as B
    left_x, right_x = left[:-1, ::-1], right[:-1, ::-1]
    left_y, right_y = left[1:], right[1:]
    nx = np.concatenate([right_x[..., neg], left_x[..., cols - pos]], axis=-1)
    ny = np.concatenate([left_y[..., cols - neg], right_y[..., pos]], axis=-1)
    return num, nx, ny


def _running_sums(s: np.ndarray):
    """``left[..., k]`` sums ``s[..., :k]`` and ``right[..., k]`` sums ``s[..., k:]``, k = 0 .. cols."""
    shape = s.shape[:-1] + (s.shape[-1] + 1,)
    left, right = np.zeros(shape), np.zeros(shape)
    np.cumsum(s, axis=-1, out=left[..., 1:])
    np.cumsum(s[..., ::-1], axis=-1, out=right[..., -2::-1])
    return left, right


_U = 2.0**-53  # unit roundoff of float64


def _rescore_margin(area: int, nx: np.ndarray, ny: np.ndarray, fast: np.ndarray,
                    valid: np.ndarray) -> np.ndarray:
    """Per pair, a bound delta >= |fast score - direct score| over its scored candidates.

    The arrays are indexed (pair, r + R, a + W) as in ``_fast_scores``, and
    ``valid`` marks the scored candidates; each pair's bound depends on its
    own scored candidates only.

    Notation: the frames hold m = ``area`` finite values >= 0; for one
    shift, c, X, Y are the exact numerator and squared norms and
    s = c / sqrt(XY) the exact score, 0 <= s <= 1 (Cauchy-Schwarz);
    u = 2^-53; gamma_n = n u / (1 - n u).

    Each of c, X, Y is a sum of at most m products of non-negative
    floats.  Both paths take every product through at most one rounding
    and at most m - 1 additions (the fast numerator through a Gram entry
    and a diagonal sum, each fast norm through a column sum and a running
    sum, each direct one through one dot product), so for any summation
    order (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., §3.1) the computed value S' of an exact sum S of non-negative
    terms has |S' - S| <= e S + eta, with e = gamma_{m+1} and, under
    gradual underflow, eta = (m + 1) 2^-1074 (each product adds at most
    2^-1075, grown by at most 1 + e <= 2; additions are exact when they
    underflow).

    Require 2^-500 <= X', Y' <= 2^500 for every computed fast norm,
    (m + 1) u <= 2^-21 (so e <= 2^-20) and every fast score finite.  Then X, Y >= 2^-501, so
    |X' - X| <= (e + v) X with v = (m + 1) 2^-573, and the same holds for
    the direct norms, which therefore also lie in [2^-502, 2^502]: no
    product XY, square root or quotient overflows or underflows, except a
    quotient that underflows with absolute error <= 2^-1075.  The computed
    score of either path is then
        s' = (s + d) f + h,  |d| <= e s + v,  |h| <= 2^-1075,
    where f collects the norm errors (e + v each, counted whole for the
    square roots) and the roundings of the product, square root and
    quotient (u each): |f - 1| <= p = U / (1 - U), U = 2(e + v) + 3u
    (Higham, Lemma 3.1).  With s <= 1,
        |s' - s| <= d1 = p + (e + v)(1 + p) + 2^-1075,
    and delta = 2 d1 bounds |fast - direct|.  The returned value adds u,
    since the threshold (best fast score - 2 delta) <= 2 is itself rounded,
    and is scaled by 1 + 2^-20 to cover this function's own roundings.

    A candidate left out has fast < best - 2 delta, so its direct score is
    below the direct score of the best fast candidate, and it cannot win or
    tie.  The margin is infinite, so every candidate is re-scored, when a
    requirement fails.
    """
    if (area + 1) * _U > 2.0**-21:
        return np.full(len(valid), math.inf)
    lo = np.where(valid, np.minimum(nx, ny), math.inf).min(axis=(1, 2))  # NaN if a norm is NaN
    hi = np.where(valid, np.maximum(nx, ny), 0.0).max(axis=(1, 2))
    finite = (np.isfinite(fast) | ~valid).all(axis=(1, 2))
    e = (area + 1) * _U / (1.0 - (area + 1) * _U)
    ev = e + (area + 1) * 2.0**-573
    big_u = 2.0 * ev + 3.0 * _U
    p = big_u / (1.0 - big_u)
    d1 = p + ev * (1.0 + p) + 2.0**-1075
    ok = (lo >= 2.0**-500) & (hi <= 2.0**500) & finite
    return np.where(ok, (2.0 * d1 + _U) * (1.0 + 2.0**-20), math.inf)


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
) -> Heatmap:
    """Union frames on frame 0's range grid at cumulative (range, angle) placements.

    ``per_pair`` holds content displacements of frame t relative to frame
    t-1; undoing a displacement places the frame at the negated cumulative
    sum in frame-0 coordinates.  The canvas keeps frame 0's rows, so each
    frame adds only the rows that its range placement leaves inside them;
    it grows in columns only.
    """
    base = frames[0]
    rows, cols = base.values.shape
    cum = [(0, 0)]
    for dr, da in per_pair:
        cum.append((cum[-1][0] - dr, cum[-1][1] - da))

    # frame 0 sits at placement 0, so a_min <= 0 <= a_max
    a_min, a_max = min(a for _, a in cum), max(a for _, a in cum)
    canvas_cols = cols + (a_max - a_min)
    if canvas_cols > MAX_CANVAS_COLS:
        raise ConfigError(
            f"cumulative offsets span {canvas_cols} columns, above the "
            f"canvas limit {MAX_CANVAS_COLS}"
        )
    canvas = np.zeros((rows, canvas_cols))
    for frame, (cr, ca) in zip(frames, cum):
        if frame.values.shape != (rows, cols):
            raise DimensionError("all frames in a segment must share dims")
        sl = _overlap_slices((rows, cols), cr, 0)
        if sl is None:
            continue
        (ref_rows, _), (mov_rows, _) = sl
        region = canvas[ref_rows, ca - a_min : ca - a_min + cols]
        np.maximum(region, frame.values[mov_rows], out=region)

    axis = _extend_angle_axis(base.angle_axis, -a_min, a_max)
    return Heatmap(canvas, base.range_bin_m, axis)


def concat_relative_pose(
    frames: list[Heatmap],
    segment: CycleSegment,
    offsets: list[PoseOffset],
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
    return _concat_at_offsets(seg_frames, per_pair)


def default_a_window(n_cols: int, span_deg: float = 20.0) -> int:
    """Angle search window, in bins, spanning span_deg at boresight.

    Column spacing at boresight is 2/n_cols rad for half-wavelength element
    spacing; callers with other geometries can pass an explicit window.
    """
    bins_per_rad = n_cols / 2.0
    return int(math.ceil(math.radians(span_deg) * bins_per_rad))


def step_bins(step_deg: float, n_cols: int) -> int:
    """Nearest whole number of angle bins for a heading step of step_deg at boresight."""
    return int(round(math.radians(step_deg) * n_cols / 2.0))


def mosaic_cycles(frames: list[Heatmap], pcfg: PlatformConfig, mode: str, r_window: int = 0,
                  ) -> tuple[list[PoseOffset], list[Heatmap]]:
    """Register a rotating-platform sequence and mosaic each of its rotation cycles.

    ``mode`` is "relpose" (estimated offsets) or "fixed" (the platform's
    nominal step in bins per frame).  The angle search spans the nominal
    step plus A_WINDOW_MARGIN_DEG at boresight.  Registration is angle-only
    unless ``r_window`` asks for range shifts: a platform that turns about
    the sensor keeps every reflector's range.  Returns the per-frame offsets
    of :func:`register_sequence` and one mosaic per cycle of
    :func:`detect_cycles`, each on the range grid of its first frame.
    """
    if mode not in ("relpose", "fixed"):
        raise ConfigError(f"unknown mosaic mode {mode!r}")
    if not frames:
        raise ConfigError("frames must be nonempty")
    cols = frames[0].n_cols
    a_window = default_a_window(cols, pcfg.nominal_step + A_WINDOW_MARGIN_DEG)
    offsets = register_sequence(frames, r_window, a_window)
    segments = detect_cycles(offsets)
    if mode == "relpose":
        return offsets, [concat_relative_pose(frames, seg, offsets) for seg in segments]
    step = step_bins(pcfg.nominal_step, cols)
    if step <= 0:
        raise ConfigError(f"the nominal step of {pcfg.nominal_step:g} deg is 0 angle bins "
                          f"at {cols} columns")
    # each frame one nominal step on from the one before, in its cycle's direction
    return offsets, [
        concat_relative_pose(frames, seg, [PoseOffset(0, seg.direction * step, 1.0)] * len(frames))
        for seg in segments
    ]
