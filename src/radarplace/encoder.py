"""Convolutional spatial encoder and its triplet-margin training loop.

The network is small enough to run on plain numpy: stacked 3x3 convolutions
with rectifier activations, non-overlapping max pools after the first three
layers, and an L2-normalized flatten as the descriptor head.  Forward and
backward passes are hand-written so the gradient can be checked against
central finite differences.  Entry points: :func:`encode`, :func:`train`
with :class:`TrainConfig`, :func:`init_weights`, :func:`backward` and
:func:`mine_triplets`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError, EmptyResultError, FormatError
from .heatmap import Heatmap
from .placedb import MATCH_RADIUS_M

_DEGENERATE_EPS = 1e-12

# Training constants of the reproduction preset.
BATCH_SIZE = 16
LR = 0.01
MOMENTUM = 0.9
WEIGHT_DECAY = 0.001
LR_DECAY = 0.5        # learning-rate factor applied every LR_DECAY_EVERY epochs
LR_DECAY_EVERY = 5
N_NEG = 10            # negatives per mined triplet
NEG_RADIUS_M = 18.0   # negatives lie at least this far from the query


@dataclass(frozen=True)
class EncoderArch:
    """Layer plan: channel widths, pooling plan and expected input size."""

    input_shape: tuple[int, int] = (64, 768)
    channels: tuple[int, ...] = (1, 8, 16, 32, 32)
    pools: tuple[tuple[int, int] | None, ...] = ((4, 2), (4, 2), (4, 2), None)

    def __post_init__(self):
        if len(self.pools) != self.n_layers:
            raise ConfigError("one pool entry (or None) required per conv layer")
        h, w = self.input_shape
        for pool in self.pools:
            if pool is None:
                continue
            ph, pw = pool
            if ph < 1 or pw < 1 or h % ph or w % pw:
                raise ConfigError(
                    f"pool {pool} does not divide feature map {h}x{w}"
                )
            h, w = h // ph, w // pw

    @property
    def n_layers(self) -> int:
        return len(self.channels) - 1

    @property
    def descriptor_dim(self) -> int:
        h, w = self.input_shape
        for pool in self.pools:
            if pool is not None:
                h, w = h // pool[0], w // pool[1]
        return self.channels[-1] * h * w


@dataclass
class EncoderWeights:
    """Per-layer 3x3 kernels and biases plus the architecture they fit."""

    arch: EncoderArch
    kernels: list[np.ndarray]  # (out_ch, in_ch, 3, 3) each
    biases: list[np.ndarray]   # (out_ch,) each
    seed: int = 0

    def copy(self) -> "EncoderWeights":
        return EncoderWeights(
            self.arch,
            [k.copy() for k in self.kernels],
            [b.copy() for b in self.biases],
            self.seed,
        )


def init_weights(arch: EncoderArch, seed: int = 0) -> EncoderWeights:
    """Uniform init in +-fan_in**-0.5, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    kernels, biases = [], []
    for l in range(arch.n_layers):
        c_in, c_out = arch.channels[l], arch.channels[l + 1]
        bound = 1.0 / math.sqrt(c_in * 9)
        kernels.append(rng.uniform(-bound, bound, size=(c_out, c_in, 3, 3)))
        biases.append(rng.uniform(-bound, bound, size=c_out))
    return EncoderWeights(arch, kernels, biases, seed)


@dataclass
class Descriptor:
    """Unit-norm place descriptor."""

    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.values.size


def _dtype(w: EncoderWeights) -> type:
    """The forward's dtype: float32 if every kernel and bias is float32, else float64."""
    if all(a.dtype == np.float32 for a in (*w.kernels, *w.biases)):
        return np.float32
    return np.float64


def _as_array(x) -> np.ndarray:
    """Values of a Heatmap or Descriptor; anything else as a float64 array."""
    if isinstance(x, (Heatmap, Descriptor)):
        return x.values
    return np.asarray(x, dtype=np.float64)


_workspaces = threading.local()


def _workspace(key, make):
    """This thread's tuple of buffers under ``key``, built by ``make()`` on first use.

    The forward reuses them on every call: fresh arrays of these sizes
    would be freshly mapped, zero-filled pages each time.  They live as
    long as the thread, one set per (layer, shape, dtype) it has encoded.
    """
    bufs = getattr(_workspaces, "bufs", None)
    if bufs is None:
        bufs = _workspaces.bufs = {}
    entry = bufs.get(key)
    if entry is None:
        entry = bufs[key] = make()
    return entry


def _layer_input(layer: int, shape: tuple[int, int, int], dtype=np.float64):
    """(interior, windows) of one layer's ``dtype`` input buffer for a (C, H, W) input.

    The input lives in the interior of a zero-bordered (C, H+2, W+2)
    buffer whose border nothing writes: it is the zero padding of the 3x3
    convolution.  ``windows`` is a read-only (C, 3, 3, H, W) view of every
    window, [c, di, dj, i, j] = input[c, i+di-1, j+dj-1], so one copy of it
    is the (C*9, H*W) patch matrix.
    """
    def make():
        c, h, w = shape
        padded = np.zeros((c, h + 2, w + 2), dtype)
        s_c, s_h, s_w = padded.strides
        windows = as_strided(padded, (c, 3, 3, h, w), (s_c, s_h, s_w, s_h, s_w),
                             writeable=False)
        return padded[:, 1:-1, 1:-1], windows
    return _workspace((layer, shape, dtype), make)


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Adjoint of the patch copy: scatter-add patch gradients back to the input."""
    c, h, w = shape
    dpadded = np.zeros((c, h + 2, w + 2))
    dcols = dcols.reshape(c, 9, h, w)
    for di in range(3):
        for dj in range(3):
            dpadded[:, di : di + h, dj : dj + w] += dcols[:, di * 3 + dj]
    return dpadded[:, 1:-1, 1:-1]


def _max_of(parts, out: np.ndarray) -> np.ndarray:
    """Elementwise maximum of the same-shape arrays ``parts``, written into ``out``."""
    if len(parts) == 1:
        np.copyto(out, parts[0])
    else:
        np.maximum(parts[0], parts[1], out=out)
    for part in parts[2:]:
        np.maximum(out, part, out=out)
    return out


def _max_pool(act: np.ndarray, out: np.ndarray, ph: int, pw: int, spare: np.ndarray):
    """Non-overlapping (ph, pw) max pool of a (C, H, W) ``act`` into ``out``.

    The pw columns of each window go first into the head of the flat
    ``spare`` buffer (not used when pw is 1): those are 1-D strided runs over
    the flat map.  Then the ph rows of each window go from there into ``out``.
    """
    if pw > 1:
        c, h, w = act.shape
        flat = act.reshape(-1)
        act = _max_of([flat[j::pw] for j in range(pw)], spare[: flat.size // pw])
        act = act.reshape(c, h, w // pw)
    _max_of([act[:, i::ph] for i in range(ph)], out)


def _argmax_pool(act: np.ndarray, out: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Max pool of ``act`` into ``out`` as a running maximum over its ph*pw strided slices.

    Returns each window's flat in-window index i*pw + j of its first
    maximum (the one argmax picks): a strict ``>`` in row-major window
    order moves it only past ties.
    """
    np.copyto(out, act[:, ::ph, ::pw])
    idx = np.zeros(out.shape, dtype=np.intp)
    for i in range(ph):
        for j in range(pw):
            if i or j:
                win = act[:, i::ph, j::pw]
                np.copyto(idx, i * pw + j, where=win > out)
                np.maximum(out, win, out=out)
    return idx


def _forward(x: np.ndarray, w: EncoderWeights, keep: bool = False):
    """Run the conv stack in the weights' dtype; returns (flat pre-norm descriptor, cache).

    Each layer's input sits in its ``_layer_input`` buffer, where
    ``_normalize_input`` writes layer 0's, and each layer writes its
    rectified, pooled output into the next layer's; the last layer's
    rectifier writes a fresh float64 array (exact from float32), so no
    returned array shares memory with a workspace.

    The lean pass (``keep`` false) copies the patch matrix into the
    workspace and pools the matmul output before bias and ReLU.  Rounding
    and the rectifier are monotone, max(fl(a + b), fl(c + b)) =
    fl(max(a, c) + b), so the bits are those of bias, ReLU, pool, with
    bias and ReLU on 1/(ph*pw) of the cells.  With ``keep``, the backward
    cache (patch matrices, rectifier masks, pool argmax indices) is built
    in fresh arrays that outlive the call, in bias, ReLU, pool order: the
    kept index is the first maximum of the rectified map, where rounding
    can tie values that differed before the bias.  Otherwise the cache is
    None.
    """
    arch, dtype = w.arch, _dtype(w)
    cache = [] if keep else None
    cur = x[None] if x.ndim == 2 else x
    inner, windows = _layer_input(0, cur.shape, dtype)
    if not np.may_share_memory(cur, inner):  # else _normalize_input wrote it there
        np.copyto(inner, cur)
    for l in range(arch.n_layers):
        c_out, pool = arch.channels[l + 1], arch.pools[l]
        in_shape = c, h, wid = inner.shape
        ph, pw = pool or (1, 1)
        out_shape = (c_out, h // ph, wid // pw)
        # the lean patch matrix is spent after the matmul: the pool reuses it
        patch_buf, pre, pooled = _workspace((l, in_shape, c_out, ph, pw, dtype), lambda: (
            np.empty(max(9 * c * h * wid, c_out * h * wid // pw), dtype),
            np.empty((c_out, h * wid), dtype), np.empty(out_shape, dtype)))
        if keep:
            cols = windows.copy().reshape(c * 9, h * wid)
        else:
            cols = patch_buf[: 9 * c * h * wid].reshape(c * 9, h * wid)
            np.copyto(cols.reshape(windows.shape), windows)
        np.matmul(w.kernels[l].reshape(c_out, -1), cols, out=pre)
        pre = pre.reshape(c_out, h, wid)
        bias = w.biases[l][:, None, None]
        last = l + 1 == arch.n_layers
        if keep:
            pre += bias
            cache.append({"in_shape": in_shape, "cols": cols, "mask": pre > 0})
            np.maximum(pre, 0.0, out=pre)
            if pool is None:
                np.copyto(pooled, pre)
            else:
                cache[-1]["pool_idx"] = _argmax_pool(pre, pooled, ph, pw)
                cache[-1]["pool_in_shape"] = (c_out, h, wid)
        else:
            _max_pool(pre, pooled, ph, pw, patch_buf)
            pooled += bias
        if last:
            inner = np.empty(out_shape)
        else:
            inner, windows = _layer_input(l + 1, out_shape, dtype)
        # the ReLU; on the keep pass's rectified values it only copies
        np.maximum(pooled, 0.0, out=inner)
    return inner.ravel(), cache


def _backward(dflat: np.ndarray, cache, w: EncoderWeights, grads):
    """Backprop a descriptor gradient through the stack; accumulates grads.

    Nothing reads the heatmap's own gradient, so layer 0 stops at its weights.
    """
    arch = w.arch
    dcur = dflat
    for l in reversed(range(arch.n_layers)):
        entry = cache[l]
        pool = arch.pools[l]
        if pool is not None:
            ph, pw = pool
            idx = entry["pool_idx"]
            dout = dcur.reshape(idx.shape)
            dcur = np.empty(entry["pool_in_shape"])
            for i in range(ph):
                for j in range(pw):
                    dcur[:, i::ph, j::pw] = np.where(idx == i * pw + j, dout, 0.0)
        else:
            c_in, h, wid = entry["in_shape"]
            dcur = dcur.reshape(arch.channels[l + 1], h, wid)
        dpre = dcur.reshape(arch.channels[l + 1], -1) * entry["mask"].reshape(
            arch.channels[l + 1], -1
        )
        grads[l][0] += (dpre @ entry["cols"].T).reshape(w.kernels[l].shape)
        grads[l][1] += dpre.sum(axis=1)
        if l:
            k2d = w.kernels[l].reshape(arch.channels[l + 1], -1)
            dcur = _col2im(k2d.T @ dpre, entry["in_shape"])


def _normalize_input(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Zero-mean / unit-variance standardization of the raw heatmap.

    ``encode``, ``backward`` and ``train`` all pass through here, so a NaN
    or infinite cell is rejected before it can turn the descriptor into NaN.
    The statistics are float64; the result is written as ``dtype`` into
    layer 0's input buffer (see _layer_input) and returned as an (H, W)
    view of it, which this thread's next call at that size and dtype
    overwrites.  The deviation is ``np.std``'s own arithmetic on the
    centred values it already has, so it has the same bits.
    """
    if not np.isfinite(x).all():
        raise FormatError("heatmap holds a non-finite value")
    centred = x - x.mean()
    sd = math.sqrt(np.add.reduce(centred * centred, axis=None) / centred.size)
    out = _layer_input(0, (1, *x.shape), dtype)[0][0]
    if sd > 0:
        np.divide(centred, sd, out=out)
    else:
        np.copyto(out, centred)
    return out


def _describe(x: np.ndarray, w: EncoderWeights, keep: bool = False):
    """Standardize, run the stack and unit-normalize: (descriptor, pre-norm norm, cache).

    The cache is None unless ``keep`` asks for it (see _forward).  A
    pre-norm vector shorter than _DEGENERATE_EPS has no direction; it maps
    to the first basis vector, flagged degenerate, and passes no gradient.
    """
    flat, cache = _forward(_normalize_input(x, _dtype(w)), w, keep)
    norm = np.linalg.norm(flat)
    if norm < _DEGENERATE_EPS:
        canonical = np.zeros(flat.size)
        canonical[0] = 1.0
        return Descriptor(canonical, degenerate=True), norm, cache
    return Descriptor(flat / norm), norm, cache


def _checked_input(h, arch: EncoderArch) -> np.ndarray:
    """The heatmap as an array, or DimensionError if it is not the architecture's input shape."""
    x = _as_array(h)
    if x.shape != arch.input_shape:
        raise DimensionError(f"input {x.shape} does not match encoder input {arch.input_shape}")
    return x


def encode(h, w: EncoderWeights) -> Descriptor:
    """Map a heatmap to its float64 unit-norm descriptor, computed in the weights' dtype."""
    return _describe(_checked_input(h, w.arch), w)[0]


def triplet_loss(dq, dps, dns, alpha: float) -> float:
    """Hinge triplet margin loss with the closest positive.

    sum_j max(min_i ||q - p_i|| - ||q - n_j|| + alpha, 0)
    """
    if not 0.0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    q = _as_array(dq)
    ps = [_as_array(p) for p in dps]
    ns = [_as_array(n) for n in dns]
    if not ps or not ns:
        raise ConfigError("positives and negatives must be nonempty")
    return float(_loss_and_descriptor_grads(q, ps, ns, alpha)[0])


def _loss_and_descriptor_grads(q, ps, ns, alpha):
    """Loss value and gradients w.r.t. each descriptor, in [q, *ps, *ns] order.

    Subgradient conventions: zero at hinge kinks, first index on positive
    ties, zero for coincident (zero-distance) pairs.
    """
    d_ps = [np.linalg.norm(q - p) for p in ps]
    i_star = int(np.argmin(d_ps))
    d_pos = d_ps[i_star]
    p_star = ps[i_star]

    grads = [np.zeros_like(x) for x in [q, *ps, *ns]]
    loss = 0.0
    if d_pos > 0:
        u_pos = (q - p_star) / d_pos
    else:
        u_pos = np.zeros_like(q)
    for j, n in enumerate(ns):
        d_n = np.linalg.norm(q - n)
        margin = d_pos - d_n + alpha
        if margin <= 0:
            continue
        loss += margin
        u_neg = (q - n) / d_n if d_n > 0 else np.zeros_like(q)
        grads[0] += u_pos - u_neg
        grads[1 + i_star] -= u_pos
        grads[1 + len(ps) + j] += u_neg
    return loss, grads


def _norm_backward(desc: Descriptor, norm: float, dnorm: np.ndarray) -> np.ndarray:
    """Gradient through y = x / ||x||, given y and ||x||."""
    if desc.degenerate:
        return np.zeros_like(dnorm)
    y = desc.values
    return (dnorm - y * np.dot(y, dnorm)) / norm


@dataclass
class TripletBatch:
    """One mined triplet: a query with its positives and negatives.

    Samples are referenced by index into the sample sequence that
    ``backward`` is given.
    """

    query_idx: int
    positive_idxs: list[int]
    negative_idxs: list[int]


def _zero_grads(w: EncoderWeights) -> list[list[np.ndarray]]:
    """Zeros shaped like the weights, as a list of [kernel, bias] pairs."""
    return [[np.zeros_like(k), np.zeros_like(b)] for k, b in zip(w.kernels, w.biases)]


def backward(triplets, samples, w: EncoderWeights, margin: float):
    """Summed weight gradients and per-triplet hinge losses at ``margin``.

    ``triplets`` index into ``samples``.  Each sample is described once,
    its descriptor gradients are summed over the triplets that use it, and
    it is backpropagated once in first-use order by re-running its forward
    pass, the only pass that keeps a cache: one cache is alive at a time.
    Returns (grads, losses), grads as [dkernel, dbias] pairs.
    """
    grads = _zero_grads(w)
    uses = [[t.query_idx, *t.positive_idxs, *t.negative_idxs] for t in triplets]
    first_use = dict.fromkeys(i for idxs in uses for i in idxs)
    described = {i: _describe(_as_array(samples[i]), w)[:2] for i in first_use}
    dnorms = {i: np.zeros(desc.dim) for i, (desc, _) in described.items()}
    losses = []
    for t, idxs in zip(triplets, uses):
        descs = [described[i][0].values for i in idxs]
        end = 1 + len(t.positive_idxs)
        loss, dgrads = _loss_and_descriptor_grads(descs[0], descs[1:end], descs[end:], margin)
        losses.append(loss)
        for i, g in zip(idxs, dgrads):
            dnorms[i] += g
    for i, (desc, norm) in described.items():
        if np.any(dnorms[i]):
            cache = _describe(_as_array(samples[i]), w, keep=True)[2]
            _backward(_norm_backward(desc, norm, dnorms[i]), cache, w, grads)
    return grads, losses


def mine_triplets(records, seed: int = 0) -> tuple[list[TripletBatch], int]:
    """Sample one triplet per eligible query by the distance rule.

    ``records`` is a sequence of (item, position) pairs with 2-D positions.
    A query needs a positive within MATCH_RADIUS_M and N_NEG negatives at
    NEG_RADIUS_M or more; the others are skipped, and the skip count is
    returned alongside the batches.
    """
    positions = np.array([pos for _, pos in records], dtype=np.float64)
    n = len(positions)
    rng = np.random.default_rng(seed)
    batches: list[TripletBatch] = []
    skipped = 0
    for qi in range(n):
        # one row at a time: the full distance matrix grows as n^2
        dists = np.linalg.norm(positions - positions[qi], axis=1)
        pos_cand = np.flatnonzero((dists <= MATCH_RADIUS_M) & (np.arange(n) != qi))
        neg_cand = np.flatnonzero(dists >= NEG_RADIUS_M)
        if not pos_cand.size or neg_cand.size < N_NEG:
            skipped += 1
            continue
        ps = rng.choice(pos_cand, size=1, replace=False)
        nss = rng.choice(neg_cand, size=N_NEG, replace=False)
        batches.append(TripletBatch(qi, [int(ps[0])], sorted(int(i) for i in nss)))
    return batches, skipped


@dataclass(frozen=True)
class TrainConfig:
    """The training values a caller chooses; the rest are module constants."""

    max_epochs: int = 50
    margin: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not self.max_epochs >= 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.margin < math.inf:
            raise ConfigError(f"margin must be finite and >= 0, got {self.margin}")


def lr_at(epoch: int) -> float:
    """Learning rate for a zero-based epoch index."""
    return LR * LR_DECAY ** (epoch // LR_DECAY_EVERY)


@dataclass
class TrainResult:
    weights: EncoderWeights
    history: list[dict]  # per epoch: epoch, mean_loss, lr, triplets_skipped


def train(dataset, cfg: TrainConfig, arch: EncoderArch | None = None) -> TrainResult:
    """Triplet-margin SGD training of the spatial encoder.

    ``dataset`` is a list of (heatmap, position) pairs; a heatmap whose
    shape differs from the architecture's input (by default the first
    heatmap's) raises DimensionError before the first epoch.  Triplets are
    re-mined every epoch from the run seed by ``mine_triplets``'s distance
    rule, over every record.  Training computes in float64 and returns the
    weights of its last epoch rounded to float32, the precision that MMW1
    stores, so the returned model encodes as its saved file does.  No
    epoch is scored or selected.  Fully deterministic for a fixed
    (dataset, cfg, arch).
    """
    if not dataset:
        raise EmptyResultError("no training samples")
    if arch is None:
        arch = EncoderArch(input_shape=_as_array(dataset[0][0]).shape)
    heatmaps = [_checked_input(h, arch) for h, _ in dataset]
    weights = init_weights(arch, cfg.seed)
    velocity = _zero_grads(weights)

    history = []
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.max_epochs):
        rate = lr_at(epoch)
        batches, skipped = mine_triplets(dataset, seed=cfg.seed + epoch)
        # eligibility depends on positions only: epoch 0 decides for all
        if not batches:
            raise EmptyResultError(
                "dataset yields no valid triplets under the positive/negative radii"
            )
        order = rng.permutation(len(batches))
        losses = []
        for start in range(0, len(order), BATCH_SIZE):
            chunk = [batches[i] for i in order[start : start + BATCH_SIZE]]
            grads, chunk_losses = backward(chunk, heatmaps, weights, cfg.margin)
            losses.extend(chunk_losses)
            inv = 1.0 / len(chunk)
            for l, (gk, gb) in enumerate(grads):
                gk = gk * inv + WEIGHT_DECAY * weights.kernels[l]
                gb = gb * inv + WEIGHT_DECAY * weights.biases[l]
                velocity[l][0] = MOMENTUM * velocity[l][0] - rate * gk
                velocity[l][1] = MOMENTUM * velocity[l][1] - rate * gb
                weights.kernels[l] += velocity[l][0]
                weights.biases[l] += velocity[l][1]
        history.append({"epoch": epoch, "mean_loss": float(np.mean(losses)), "lr": rate,
                        "triplets_skipped": skipped})
    rounded = EncoderWeights(arch, [k.astype(np.float32) for k in weights.kernels],
                             [b.astype(np.float32) for b in weights.biases], weights.seed)
    return TrainResult(rounded, history)
