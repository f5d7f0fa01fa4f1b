"""Convolutional spatial encoder and its triplet-margin training loop.

The network is small enough to run on plain numpy: stacked 3x3 convolutions
with rectifier activations, non-overlapping max pools after the first three
layers, and an L2-normalized flatten as the descriptor head.  Forward and
backward passes are hand-written so the gradient can be checked against
central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptyResultError
from .heatmap import Heatmap
from .placedb import MATCH_RADIUS_M, PlaceDB, PlaceRecord, recall_at_n

_DEGENERATE_EPS = 1e-12
HOLDOUT_STRIDE = 5


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

    def checksum(self) -> int:
        import zlib

        crc = 0
        for k, b in zip(self.kernels, self.biases):
            crc = zlib.crc32(k.tobytes(), crc)
            crc = zlib.crc32(b.tobytes(), crc)
        return crc


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


def _as_array(x) -> np.ndarray:
    """Values of a Heatmap or Descriptor; anything else as a float64 array."""
    if isinstance(x, (Heatmap, Descriptor)):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _im2col(x: np.ndarray) -> np.ndarray:
    """(C, H, W) -> (C*9, H*W) patch matrix for a padded 3x3 convolution."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 9, h * w))
    for di in range(3):
        for dj in range(3):
            cols[:, di * 3 + dj, :] = padded[:, di : di + h, dj : dj + w].reshape(c, -1)
    return cols.reshape(c * 9, h * w)


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients back to the input."""
    c, h, w = shape
    dpadded = np.zeros((c, h + 2, w + 2))
    dcols = dcols.reshape(c, 9, h, w)
    for di in range(3):
        for dj in range(3):
            dpadded[:, di : di + h, dj : dj + w] += dcols[:, di * 3 + dj]
    return dpadded[:, 1:-1, 1:-1]


def _forward(x: np.ndarray, w: EncoderWeights):
    """Run the conv stack; returns (flat pre-norm descriptor, cache)."""
    arch = w.arch
    cache = []
    cur = x[None] if x.ndim == 2 else x
    for l in range(arch.n_layers):
        cols = _im2col(cur)
        k2d = w.kernels[l].reshape(arch.channels[l + 1], -1)
        pre = (k2d @ cols + w.biases[l][:, None]).reshape(
            arch.channels[l + 1], cur.shape[1], cur.shape[2]
        )
        act = np.maximum(pre, 0.0)
        entry = {"in_shape": cur.shape, "cols": cols, "mask": pre > 0}
        cur = act
        pool = arch.pools[l]
        if pool is not None:
            ph, pw = pool
            c, h, wid = cur.shape
            ho, wo = h // ph, wid // pw
            windows = cur.reshape(c, ho, ph, wo, pw).transpose(0, 1, 3, 2, 4)
            flat = windows.reshape(c, ho, wo, ph * pw)
            idx = flat.argmax(axis=3)
            cur = np.take_along_axis(flat, idx[..., None], axis=3)[..., 0]
            entry["pool_idx"] = idx
            entry["pool_in_shape"] = (c, h, wid)
        cache.append(entry)
    return cur.ravel(), cache


def _backward(dflat: np.ndarray, cache, w: EncoderWeights, grads):
    """Backprop a descriptor gradient through the stack; accumulates grads."""
    arch = w.arch
    dcur = dflat
    for l in reversed(range(arch.n_layers)):
        entry = cache[l]
        pool = arch.pools[l]
        if pool is not None:
            ph, pw = pool
            c, h, wid = entry["pool_in_shape"]
            ho, wo = h // ph, wid // pw
            dflat4 = np.zeros((c, ho, wo, ph * pw))
            np.put_along_axis(
                dflat4, entry["pool_idx"][..., None], dcur.reshape(c, ho, wo, 1), axis=3
            )
            dcur = dflat4.reshape(c, ho, wo, ph, pw).transpose(0, 1, 3, 2, 4).reshape(c, h, wid)
        else:
            c_in, h, wid = entry["in_shape"]
            dcur = dcur.reshape(arch.channels[l + 1], h, wid)
        dpre = dcur.reshape(arch.channels[l + 1], -1) * entry["mask"].reshape(
            arch.channels[l + 1], -1
        )
        grads[l][0] += (dpre @ entry["cols"].T).reshape(w.kernels[l].shape)
        grads[l][1] += dpre.sum(axis=1)
        k2d = w.kernels[l].reshape(arch.channels[l + 1], -1)
        dcols = k2d.T @ dpre
        dcur = _col2im(dcols, entry["in_shape"])
    return dcur


def _normalize_input(x: np.ndarray) -> np.ndarray:
    """Zero-mean / unit-variance standardization of the raw heatmap."""
    mu, sd = x.mean(), x.std()
    return (x - mu) / sd if sd > 0 else x - mu


def _describe(x: np.ndarray, w: EncoderWeights):
    """Standardize, run the stack and unit-normalize: (descriptor, pre-norm norm, cache).

    A pre-norm vector shorter than _DEGENERATE_EPS has no direction; it maps
    to the first basis vector, flagged degenerate, and passes no gradient.
    """
    flat, cache = _forward(_normalize_input(x), w)
    norm = np.linalg.norm(flat)
    if norm < _DEGENERATE_EPS:
        canonical = np.zeros(flat.size)
        canonical[0] = 1.0
        return Descriptor(canonical, degenerate=True), norm, cache
    return Descriptor(flat / norm), norm, cache


def encode(h, w: EncoderWeights) -> Descriptor:
    """Map a heatmap to its unit-norm place descriptor."""
    x = _as_array(h)
    if x.shape != w.arch.input_shape:
        raise DimensionError(
            f"input {x.shape} does not match encoder input {w.arch.input_shape}"
        )
    return _describe(x, w)[0]


def triplet_loss(dq, dps, dns, alpha: float) -> float:
    """Hinge triplet margin loss with the closest positive.

    sum_j max(min_i ||q - p_i|| - ||q - n_j|| + alpha, 0)
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
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
    pass: one forward cache is alive at a time.  Returns (grads, losses),
    grads as [dkernel, dbias] pairs.
    """
    grads = _zero_grads(w)
    uses = [[t.query_idx, *t.positive_idxs, *t.negative_idxs] for t in triplets]
    first_use = dict.fromkeys(i for idxs in uses for i in idxs)
    described = {i: _describe(_as_array(samples[i]), w)[:2] for i in first_use}
    dnorms = {i: np.zeros(desc.dim) for i, (desc, _) in described.items()}
    losses = []
    for t, idxs in zip(triplets, uses):
        descs = [described[i][0].values for i in idxs]
        n_pos = len(t.positive_idxs)
        loss, dgrads = _loss_and_descriptor_grads(
            descs[0], descs[1 : 1 + n_pos], descs[1 + n_pos :], margin
        )
        losses.append(loss)
        for i, g in zip(idxs, dgrads):
            dnorms[i] += g
    for i, (desc, norm) in described.items():
        if np.any(dnorms[i]):
            cache = _describe(_as_array(samples[i]), w)[2]
            _backward(_norm_backward(desc, norm, dnorms[i]), cache, w, grads)
    return grads, losses


def mine_triplets(
    records,
    r_pos: float = MATCH_RADIUS_M,
    r_neg: float = 18.0,
    n_pos: int = 1,
    n_neg: int = 10,
    seed: int = 0,
) -> tuple[list[TripletBatch], int]:
    """Sample one triplet per eligible query by the distance rule.

    ``records`` is a sequence of (item, position) pairs with 2-D positions.
    Queries lacking enough positives within r_pos or negatives beyond r_neg
    are skipped; the skip count is returned alongside the batches.
    """
    if r_pos >= r_neg:
        raise ConfigError("r_pos must be < r_neg")
    positions = np.array([pos for _, pos in records], dtype=np.float64)
    n = len(positions)
    rng = np.random.default_rng(seed)
    batches: list[TripletBatch] = []
    skipped = 0
    if n == 0:
        return batches, skipped
    dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    for qi in range(n):
        pos_cand = np.flatnonzero((dists[qi] <= r_pos) & (np.arange(n) != qi))
        neg_cand = np.flatnonzero(dists[qi] >= r_neg)
        if pos_cand.size < n_pos or neg_cand.size < n_neg:
            skipped += 1
            continue
        ps = rng.choice(pos_cand, size=n_pos, replace=False)
        nss = rng.choice(neg_cand, size=n_neg, replace=False)
        batches.append(
            TripletBatch(qi, sorted(int(i) for i in ps), sorted(int(i) for i in nss))
        )
    return batches, skipped


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters for the reproduction preset."""

    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    lr_decay: float = 0.5
    lr_decay_every: int = 5
    max_epochs: int = 50
    margin: float = 0.5
    n_neg: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "lr", "momentum", "weight_decay", "lr_decay",
                     "lr_decay_every", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a zero-based epoch index."""
        return self.lr * self.lr_decay ** (epoch // self.lr_decay_every)


@dataclass
class TrainResult:
    weights: EncoderWeights
    history: list[dict]  # per epoch: epoch, mean_loss, lr, val_recall1, triplets_skipped


def _val_recall1(dataset, weights):
    """Leave-out recall@1: every HOLDOUT_STRIDE-th record queries the rest.

    The rest form a PlaceDB; held-out queries with no record within
    MATCH_RADIUS_M are not counted.  Returns 0.0 when nothing is counted.
    """
    db, queries = PlaceDB(), []
    for i, (h, pos) in enumerate(dataset):
        desc = encode(h, weights).values
        if i % HOLDOUT_STRIDE:
            db.add(PlaceRecord(i, desc, pos))
        else:
            queries.append((desc, pos))
    if not len(db):
        return 0.0
    results = [db.query(desc, k=1, query_position=pos) for desc, pos in queries]
    kept = [r for r in results if r.has_match]
    return recall_at_n(kept, 1) if kept else 0.0


def train(dataset, cfg: TrainConfig, arch: EncoderArch | None = None) -> TrainResult:
    """Triplet-margin SGD training of the spatial encoder.

    ``dataset`` is a list of (heatmap, position) pairs.  Triplets are
    re-mined every epoch from the run seed by ``mine_triplets``'s distance
    rule, so positives lie within MATCH_RADIUS_M, the radius leave-out
    recall scores at; the returned weights are the ones with the best
    leave-out recall@1.  Fully deterministic for a fixed (dataset, cfg, arch).
    """
    if arch is None:
        shape = _as_array(dataset[0][0]).shape
        arch = EncoderArch(input_shape=shape)
    heatmaps = [_as_array(h) for h, _ in dataset]
    weights = init_weights(arch, cfg.seed)
    velocity = _zero_grads(weights)

    best = weights.copy()
    best_recall = -1.0
    history = []
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.max_epochs):
        lr = cfg.lr_at(epoch)
        batches, skipped = mine_triplets(dataset, n_neg=cfg.n_neg, seed=cfg.seed + epoch)
        # eligibility depends on positions only: epoch 0 decides for all
        if not batches:
            raise EmptyResultError(
                "dataset yields no valid triplets under the positive/negative radii"
            )
        order = rng.permutation(len(batches))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            chunk = [batches[i] for i in order[start : start + cfg.batch_size]]
            grads, chunk_losses = backward(chunk, heatmaps, weights, cfg.margin)
            losses.extend(chunk_losses)
            inv = 1.0 / len(chunk)
            for l, (gk, gb) in enumerate(grads):
                gk = gk * inv + cfg.weight_decay * weights.kernels[l]
                gb = gb * inv + cfg.weight_decay * weights.biases[l]
                velocity[l][0] = cfg.momentum * velocity[l][0] - lr * gk
                velocity[l][1] = cfg.momentum * velocity[l][1] - lr * gb
                weights.kernels[l] += velocity[l][0]
                weights.biases[l] += velocity[l][1]
        recall = _val_recall1(dataset, weights)
        mean_loss = float(np.mean(losses))
        history.append({"epoch": epoch, "mean_loss": mean_loss, "lr": lr,
                        "val_recall1": recall, "triplets_skipped": skipped})
        if recall > best_recall:
            best_recall = recall
            best = weights.copy()
    return TrainResult(best, history)
