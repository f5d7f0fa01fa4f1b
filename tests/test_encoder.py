"""Encoder forward/backward tests, gradient oracle, and training loop."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from radarplace import encoder as enc
from radarplace import synth
from radarplace.encoder import (
    BATCH_SIZE,
    MOMENTUM,
    N_NEG,
    NEG_RADIUS_M,
    WEIGHT_DECAY,
    EncoderArch,
    TrainConfig,
    TripletBatch,
    backward,
    encode,
    init_weights,
    lr_at,
    mine_triplets,
    train,
    triplet_loss,
)
from radarplace.errors import ConfigError, DimensionError, EmptyResultError, FormatError
from radarplace.fileio import load_weights, save_weights
from radarplace.placedb import MATCH_RADIUS_M
from radarplace.radar import RadarConfig

from conftest import random_heatmap_values

SMALL_ARCH = EncoderArch(input_shape=(16, 24), channels=(1, 4, 6), pools=((2, 2), (2, 2)))


def test_default_descriptor_dim():
    arch = EncoderArch()
    # 64x768 input, three (4, 2) pools -> 1x96 map with 32 channels
    assert arch.descriptor_dim == 3072


def test_pool_divisibility_enforced():
    with pytest.raises(ConfigError):
        EncoderArch(input_shape=(30, 24), channels=(1, 4), pools=((4, 2),))
    with pytest.raises(ConfigError):
        EncoderArch(input_shape=(16, 16), channels=(1, 4, 8), pools=((2, 2),))


def test_descriptor_is_unit_norm():
    rng = np.random.default_rng(0)
    w = init_weights(SMALL_ARCH, seed=1)
    d = encode(random_heatmap_values(rng, 16, 24), w)
    assert d.dim == SMALL_ARCH.descriptor_dim
    assert np.linalg.norm(d.values) == pytest.approx(1.0)
    assert not d.degenerate


def test_degenerate_input_gets_canonical_descriptor():
    w = init_weights(SMALL_ARCH, seed=1)
    for l in range(len(w.biases)):
        w.biases[l] = -np.abs(w.biases[l]) - 1.0  # force dead rectifiers
    d = encode(np.zeros((16, 24)), w)
    assert d.degenerate
    assert d.values[0] == 1.0 and not np.any(d.values[1:])


def test_encode_rejects_wrong_input_shape():
    w = init_weights(SMALL_ARCH, seed=0)
    with pytest.raises(DimensionError):
        encode(np.zeros((16, 26)), w)


def test_triplet_loss_pinned_values():
    q = np.array([1.0, 0.0])
    p = np.array([0.0, 1.0])
    n = np.array([1.0, 0.0])
    # ||q-p|| = sqrt(2), ||q-n|| = 0, alpha = 0.5
    assert triplet_loss(q, [p], [n], 0.5) == pytest.approx(math.sqrt(2) + 0.5)
    # hinge clamps to zero when the negative is far enough
    assert triplet_loss(q, [q], [p], 0.5) == 0.0
    # closest positive wins, and losses sum over negatives
    far_p = np.array([-1.0, 0.0])
    two_n = [np.array([1.0, 0.0]), np.array([0.8, 0.0])]
    expect = sum(max(0.0 - np.linalg.norm(q - n) + 0.5, 0.0) for n in two_n)
    assert triplet_loss(q, [q, far_p], two_n, 0.5) == pytest.approx(expect)
    with pytest.raises(ConfigError):
        triplet_loss(q, [], [n], 0.5)
    with pytest.raises(ConfigError):
        triplet_loss(q, [p], [n], -0.1)


def test_zero_loss_gives_zero_gradients():
    rng = np.random.default_rng(3)
    hs = [random_heatmap_values(rng, 16, 24) for _ in range(3)]
    hs[1] = hs[0].copy()  # positive identical to query
    w = init_weights(SMALL_ARCH, seed=2)
    grads, (loss,) = backward([TripletBatch(0, [1], [2])], hs, w, 0.0)
    assert loss == 0.0
    for gk, gb in grads:
        assert not np.any(gk) and not np.any(gb)


def test_duplicate_negative_doubles_loss_and_gradient():
    rng = np.random.default_rng(4)
    hs = [random_heatmap_values(rng, 16, 24) for _ in range(3)]
    w = init_weights(SMALL_ARCH, seed=3)
    single = backward([TripletBatch(0, [1], [2])], hs, w, 2.0)
    double = backward([TripletBatch(0, [1], [2, 2])], hs, w, 2.0)
    assert double[1][0] == pytest.approx(2.0 * single[1][0])
    for (gk1, gb1), (gk2, gb2) in zip(single[0], double[0]):
        assert np.allclose(gk2, 2.0 * gk1)
        assert np.allclose(gb2, 2.0 * gb1)


def test_a_degenerate_descriptor_passes_no_weight_gradient(monkeypatch):
    rng = np.random.default_rng(24)
    w = init_weights(SMALL_ARCH, seed=7)
    # a constant heatmap standardizes to zeros, which no rectifier passes
    w.biases = [-np.abs(b) for b in w.biases]
    samples = [np.full((16, 24), 3.0)] + [random_heatmap_values(rng, 16, 24) for _ in range(3)]
    descs = [encode(x, w) for x in samples]
    assert descs[0].degenerate and not any(d.degenerate for d in descs[1:])
    _, dgrads = enc._loss_and_descriptor_grads(
        descs[0].values, [descs[1].values], [d.values for d in descs[2:]], 4.0)
    assert np.any(dgrads[0])  # the query's descriptor gradient is not zero
    changed = []  # per backpropagated sample: did it move a weight gradient?
    real = enc._backward

    def spy(dflat, cache, w, grads):
        before = [g.copy() for pair in grads for g in pair]
        real(dflat, cache, w, grads)
        after = [g for pair in grads for g in pair]
        changed.append(any(not np.array_equal(b, a) for b, a in zip(before, after)))

    monkeypatch.setattr(enc, "_backward", spy)
    _, (loss,) = backward([TripletBatch(0, [1], [2, 3])], samples, w, 4.0)
    assert loss > 0.0
    assert changed == [False, True, True, True]  # query, positive, negatives


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    arch = EncoderArch(input_shape=(8, 12), channels=(1, 3, 4), pools=((2, 2), None))
    hs = [random_heatmap_values(rng, 8, 12) for _ in range(4)]
    w = init_weights(arch, seed=7)
    grads, (loss,) = backward([TripletBatch(0, [1], [2, 3])], hs, w, 1.0)
    assert loss > 0.0

    def loss_at(weights):
        dq = encode(hs[0], weights)
        dps = [encode(hs[1], weights)]
        dns = [encode(hs[2], weights), encode(hs[3], weights)]
        return triplet_loss(dq, dps, dns, 1.0)

    eps = 1e-6
    rng_pick = np.random.default_rng(8)
    checked = 0
    for l in range(arch.n_layers):
        flat_k = w.kernels[l].ravel()
        gk = grads[l][0].ravel()
        for idx in rng_pick.choice(flat_k.size, size=8, replace=False):
            wp = w.copy()
            wp.kernels[l].ravel()[idx] += eps
            wm = w.copy()
            wm.kernels[l].ravel()[idx] -= eps
            fd = (loss_at(wp) - loss_at(wm)) / (2 * eps)
            assert fd == pytest.approx(gk[idx], abs=1e-4)
            checked += 1
        gb = grads[l][1]
        for j in range(min(2, gb.size)):
            wp = w.copy()
            wp.biases[l][j] += eps
            wm = w.copy()
            wm.biases[l][j] -= eps
            fd = (loss_at(wp) - loss_at(wm)) / (2 * eps)
            assert fd == pytest.approx(gb[j], abs=1e-4)
            checked += 1
    assert checked >= 20


def test_mine_triplets_respects_radii():
    rng = np.random.default_rng(6)
    records = [(None, (float(x), 0.0)) for x in rng.uniform(0.0, 60.0, size=20)]
    batches, skipped = mine_triplets(records)
    positions = np.array([p for _, p in records])
    assert batches, "some queries should be eligible"
    assert skipped, "some queries should lack positives or negatives"
    for b in batches:
        q = positions[b.query_idx]
        for pi in b.positive_idxs:
            assert pi != b.query_idx
            assert np.linalg.norm(positions[pi] - q) <= MATCH_RADIUS_M
        for ni in b.negative_idxs:
            assert np.linalg.norm(positions[ni] - q) >= NEG_RADIUS_M
    # queries without both positive and negative candidates are skipped
    for qi in range(len(records)):
        d = np.linalg.norm(positions - positions[qi], axis=1)
        ok_pos = np.sum((d <= MATCH_RADIUS_M) & (np.arange(len(records)) != qi)) >= 1
        ok_neg = np.sum(d >= NEG_RADIUS_M) >= N_NEG
        mined = any(b.query_idx == qi for b in batches)
        assert mined == (ok_pos and ok_neg)
    assert skipped == len(records) - len(batches)


def test_mine_triplets_dead_zone_and_validation():
    # two records 10 m apart: neither positive (<= 3) nor negative (>= 18)
    records = [(None, (0.0, 0.0)), (None, (10.0, 0.0))]
    batches, skipped = mine_triplets(records)
    assert batches == [] and skipped == 2
    assert mine_triplets([]) == ([], 0)


def _mine_triplets_dense(records, seed=0):
    """The miner over the full n x n distance matrix that mine_triplets replaces."""
    positions = np.array([pos for _, pos in records], dtype=np.float64)
    n = len(positions)
    rng = np.random.default_rng(seed)
    batches, skipped = [], 0
    if n == 0:
        return batches, skipped
    dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    for qi in range(n):
        pos_cand = np.flatnonzero((dists[qi] <= MATCH_RADIUS_M) & (np.arange(n) != qi))
        neg_cand = np.flatnonzero(dists[qi] >= NEG_RADIUS_M)
        if not pos_cand.size or neg_cand.size < N_NEG:
            skipped += 1
            continue
        ps = rng.choice(pos_cand, size=1, replace=False)
        nss = rng.choice(neg_cand, size=N_NEG, replace=False)
        batches.append(TripletBatch(qi, [int(ps[0])], sorted(int(i) for i in nss)))
    return batches, skipped


def test_mine_triplets_matches_the_dense_miner():
    rng = np.random.default_rng(14)
    mined = skipped = 0
    for trial in range(20):
        if trial % 2:
            # a 3 m grid puts pairs exactly on the positive and negative radii
            positions = 3.0 * rng.integers(0, 12, size=(300, 2))
        else:
            positions = rng.uniform(0.0, 90.0, size=(300, 2))
        records = [(None, (float(x), float(y))) for x, y in positions]
        batches, n_skipped = mine_triplets(records, seed=trial)
        assert (batches, n_skipped) == _mine_triplets_dense(records, seed=trial)
        mined, skipped = mined + len(batches), skipped + n_skipped
    assert mined and skipped  # both outcomes were compared


def test_lr_schedule():
    assert lr_at(0) == 0.01
    assert lr_at(4) == 0.01
    assert lr_at(5) == 0.005
    assert lr_at(12) == pytest.approx(0.0025)
    with pytest.raises(ConfigError):
        TrainConfig(margin=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_margin_must_be_finite_and_non_negative(bad):
    q, p, n = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])
    with pytest.raises(ConfigError):
        triplet_loss(q, [p], [n], bad)
    with pytest.raises(ConfigError):
        TrainConfig(margin=bad)
    assert TrainConfig(margin=0.0).margin == 0.0


@pytest.mark.parametrize("epochs", [0, -3])
def test_max_epochs_must_be_at_least_one(epochs):
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=epochs)


def _toy_dataset(seed=0, n_clusters=4, per_cluster=4):
    """Clustered heatmaps whose appearance correlates with position."""
    rng = np.random.default_rng(seed)
    data = []
    for ci in range(n_clusters):
        proto = random_heatmap_values(rng, 16, 24)
        for _ in range(per_cluster):
            view = proto + 0.1 * np.abs(rng.standard_normal((16, 24)))
            pos = (40.0 * ci + float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            data.append((view, pos))
    return data


def _same_weights(a, b) -> bool:
    """Every kernel and bias of ``a`` equals that of ``b`` bit for bit."""
    return all(np.array_equal(x, y)
               for x, y in zip(a.kernels + a.biases, b.kernels + b.biases, strict=True))


def _with_dtype(w, dtype):
    """``w`` with every kernel and bias cast to ``dtype``."""
    return enc.EncoderWeights(w.arch, [k.astype(dtype) for k in w.kernels],
                              [b.astype(dtype) for b in w.biases], w.seed)


def test_train_reduces_loss_and_is_deterministic():
    data = _toy_dataset()
    cfg = TrainConfig(max_epochs=4, seed=0)
    res1 = train(data, cfg, SMALL_ARCH)
    res2 = train(data, cfg, SMALL_ARCH)
    assert _same_weights(res1.weights, res2.weights)
    assert len(res1.history) == 4
    assert res1.history[-1]["mean_loss"] < res1.history[0]["mean_loss"]


def _train_reference(dataset, cfg, arch):
    """Each epoch's work by hand with the module constants: (weights, mean losses).

    Triplets are mined at seed cfg.seed + epoch and shuffled by one
    permutation stream seeded cfg.seed + 1; each BATCH_SIZE chunk's mean
    gradient plus weight decay drives a momentum step at lr_at(epoch).
    """
    w = init_weights(arch, cfg.seed)
    velocity = _zeros_like(w)
    heatmaps = [h for h, _ in dataset]
    rng = np.random.default_rng(cfg.seed + 1)
    mean_losses = []
    for epoch in range(cfg.max_epochs):
        batches, _ = mine_triplets(dataset, seed=cfg.seed + epoch)
        order = rng.permutation(len(batches))
        losses = []
        for start in range(0, len(order), BATCH_SIZE):
            chunk = [batches[i] for i in order[start : start + BATCH_SIZE]]
            grads, chunk_losses = backward(chunk, heatmaps, w, cfg.margin)
            losses.extend(chunk_losses)
            inv = 1.0 / len(chunk)
            for l, (gk, gb) in enumerate(grads):
                v = velocity[l]
                v[0] = MOMENTUM * v[0] - lr_at(epoch) * (gk * inv + WEIGHT_DECAY * w.kernels[l])
                v[1] = MOMENTUM * v[1] - lr_at(epoch) * (gb * inv + WEIGHT_DECAY * w.biases[l])
                w.kernels[l] += v[0]
                w.biases[l] += v[1]
        mean_losses.append(float(np.mean(losses)))
    return w, mean_losses


def test_train_returns_its_last_epoch(monkeypatch):
    # no epoch is scored, so train never encodes the dataset
    def no_encode(*args, **kwargs):
        raise AssertionError("train encoded the dataset")

    monkeypatch.setattr(enc, "encode", no_encode)
    data = _toy_dataset(per_cluster=5)  # 20 triplets: a full chunk and a partial one
    for k in (1, 2, 3):
        cfg = TrainConfig(max_epochs=k, seed=3)
        res = train(data, cfg, SMALL_ARCH)
        ref, ref_losses = _train_reference(data, cfg, SMALL_ARCH)
        assert all(a.dtype == np.float32 for a in res.weights.kernels + res.weights.biases)
        # float64 training, returned at MMW1's float32 precision
        assert _same_weights(res.weights, _with_dtype(ref, np.float32))
        assert [row["mean_loss"] for row in res.history] == ref_losses


def test_train_history_keeps_the_triplet_skip_count():
    # a lone record far from every cluster has no positive and is skipped
    data = _toy_dataset() + [(_toy_dataset(seed=1)[0][0], (500.0, 0.0))]
    cfg = TrainConfig(max_epochs=2, seed=0)
    history = train(data, cfg, SMALL_ARCH).history
    for epoch, row in enumerate(history):
        _, skipped = mine_triplets(data, seed=cfg.seed + epoch)
        assert row["triplets_skipped"] == skipped == 1


def test_train_raises_without_triplets():
    data = [(np.ones((16, 24)), (0.0, 0.0)), (np.ones((16, 24)), (10.0, 0.0))]
    with pytest.raises(EmptyResultError):
        train(data, TrainConfig(max_epochs=1), SMALL_ARCH)
    with pytest.raises(EmptyResultError):
        train([], TrainConfig(max_epochs=1))


def test_train_rejects_a_sample_of_another_shape_before_training(monkeypatch):
    data = _toy_dataset()
    data.insert(5, (np.ones((16, 30)), data[5][1]))

    def no_epoch(*args, **kwargs):
        raise AssertionError("train started an epoch before checking its samples")

    monkeypatch.setattr(enc, "backward", no_epoch)
    with pytest.raises(DimensionError, match=r"\(16, 30\) does not match"):
        train(data, TrainConfig(max_epochs=1), SMALL_ARCH)


def test_descriptor_is_translation_sensitive():
    rng = np.random.default_rng(9)
    w = init_weights(SMALL_ARCH, seed=4)
    base = random_heatmap_values(rng, 16, 24)
    shifted = np.roll(base, 3, axis=1)
    d0 = encode(base, w)
    d1 = encode(shifted, w)
    assert np.linalg.norm(d0.values - d1.values) > 1e-3


def _zeros_like(w):
    return [[np.zeros_like(k), np.zeros_like(b)] for k, b in zip(w.kernels, w.biases)]


def _descriptor_grads_reference(q, ps, ns, alpha):
    """The earlier loss and descriptor gradients, returned as (loss, gq, gps, gns)."""
    d_ps = [np.linalg.norm(q - p) for p in ps]
    i_star = int(np.argmin(d_ps))
    d_pos = d_ps[i_star]
    gq = np.zeros_like(q)
    gps = [np.zeros_like(p) for p in ps]
    gns = [np.zeros_like(n) for n in ns]
    loss = 0.0
    u_pos = (q - ps[i_star]) / d_pos if d_pos > 0 else np.zeros_like(q)
    for j, n in enumerate(ns):
        d_n = np.linalg.norm(q - n)
        margin = d_pos - d_n + alpha
        if margin <= 0:
            continue
        loss += margin
        u_neg = (q - n) / d_n if d_n > 0 else np.zeros_like(q)
        gq += u_pos - u_neg
        gps[i_star] -= u_pos
        gns[j] += u_neg
    return loss, gq, gps, gns


def _backward_reference(samples, t, w, margin):
    """The earlier per-triplet backward: every reference described and backpropagated."""
    grads = _zeros_like(w)
    idxs = [t.query_idx, *t.positive_idxs, *t.negative_idxs]
    described = [_describe_reference(samples[i], w) for i in idxs]
    descs = [desc.values for desc, _, _ in described]
    n_pos = len(t.positive_idxs)
    loss, gq, gps, gns = _descriptor_grads_reference(
        descs[0], descs[1 : 1 + n_pos], descs[1 + n_pos :], margin
    )
    for (desc, norm, cache), dnorm in zip(described, [gq] + gps + gns):
        if np.any(dnorm):
            enc._backward(enc._norm_backward(desc, norm, dnorm), _kept_layout(cache, w.arch),
                          w, grads)
    return grads, loss


def _chunk_reference(chunk, samples, w, margin):
    """The earlier training chunk: one backward per triplet, gradients accumulated."""
    acc, losses = _zeros_like(w), []
    for t in chunk:
        grads, loss = _backward_reference(samples, t, w, margin)
        losses.append(loss)
        for a, g in zip(acc, grads):
            a[0] += g[0]
            a[1] += g[1]
    return acc, losses


def test_chunk_gradients_match_per_triplet_accumulation():
    rng = np.random.default_rng(21)
    samples = [random_heatmap_values(rng, 16, 24) for _ in range(9)]
    w = init_weights(SMALL_ARCH, seed=5)
    chunk = []
    for _ in range(12):
        idxs = rng.choice(9, size=6, replace=False)
        n_pos = int(rng.integers(1, 3))
        chunk.append(TripletBatch(int(idxs[0]), sorted(idxs[1 : 1 + n_pos].tolist()),
                                  sorted(idxs[1 + n_pos :].tolist())))
    grads, losses = backward(chunk, samples, w, 2.0)
    ref_grads, ref_losses = _chunk_reference(chunk, samples, w, 2.0)
    assert losses == ref_losses and sum(losses) > 0.0
    for (gk, gb), (rk, rb) in zip(grads, ref_grads):
        assert np.max(np.abs(gk - rk)) <= 1e-12 * np.max(np.abs(rk))
        assert np.max(np.abs(gb - rb)) <= 1e-12 * np.max(np.abs(rb))


def test_backward_is_bit_identical_on_distinct_indices():
    rng = np.random.default_rng(22)
    samples = [random_heatmap_values(rng, 16, 24) for _ in range(7)]
    w = init_weights(SMALL_ARCH, seed=6)
    for q, pos, neg, margin in [(5, [1], [2, 3], 2.0), (3, [4, 5], [0, 2, 6], 1.0),
                                (0, [3], [1], 0.1)]:
        t = TripletBatch(q, pos, neg)
        grads, (loss,) = backward([t], samples, w, margin)
        ref_grads, ref_loss = _backward_reference(samples, t, w, margin)
        assert loss == ref_loss
        for (gk, gb), (rk, rb) in zip(grads, ref_grads):
            assert np.array_equal(gk, rk) and np.array_equal(gb, rb)


def test_backward_sends_a_tied_window_to_its_first_maximum():
    # quantised and block-constant heatmaps tie cells inside pool windows;
    # each window's gradient goes to its first maximum only, as argmax's does
    rng = np.random.default_rng(23)
    samples = [x for _ in range(3) for x in _oracle_inputs(rng, SMALL_ARCH.input_shape)[1:]]
    w = init_weights(SMALL_ARCH, seed=7)
    t = TripletBatch(0, [1], [2, 3, 4, 5])
    grads, (loss,) = backward([t], samples, w, 2.0)
    ref_grads, ref_loss = _backward_reference(samples, t, w, 2.0)
    assert loss == ref_loss > 0.0
    for (gk, gb), (rk, rb) in zip(grads, ref_grads):
        assert gk.tobytes() == rk.tobytes() and gb.tobytes() == rb.tobytes()


# -- the earlier forward, kept as the oracle of the lean one ------------------

def _im2col_reference(x):
    """(C, H, W) -> (C*9, H*W) patch matrix through an np.pad copy (the earlier code)."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 9, h * w), x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, di * 3 + dj, :] = padded[:, di : di + h, dj : dj + w].reshape(c, -1)
    return cols.reshape(c * 9, h * w)


def _forward_reference(x, w):
    """The earlier forward: builds the whole backward cache on every call."""
    arch = w.arch
    cache = []
    cur = x[None] if x.ndim == 2 else x
    for l in range(arch.n_layers):
        cols = _im2col_reference(cur)
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


def _windows(a, ph, pw):
    """(C, H, W) -> (C, H/ph, W/pw, ph*pw): each pool window's cells in row-major order."""
    c, h, wid = a.shape
    return a.reshape(c, h // ph, ph, wid // pw, pw).transpose(0, 1, 3, 2, 4).reshape(
        c, h // ph, wid // pw, ph * pw)


def _kept_layout(ref_cache, arch):
    """The reference forward's cache in the layout ``_forward(keep=True)`` keeps.

    Each layer's pool index (a (1, 1) one where it has no pool) becomes a
    ``pre`` that is one-hot at that index under a ``peak`` of ones, so the
    first maximum that ``_backward`` finds is exactly the reference's
    index.  The full-resolution rectifier mask is read at that index, which
    gives the pooled cells' positive-after-bias mask.
    """
    kept = []
    for entry, pool in zip(ref_cache, arch.pools):
        ph, pw = pool or (1, 1)
        c, h, wid = entry["mask"].shape
        idx = entry.get("pool_idx", np.zeros((c, h, wid), np.intp))
        mask = np.take_along_axis(_windows(entry["mask"], ph, pw), idx[..., None], axis=3)
        onehot = (np.arange(ph * pw) == idx[..., None]).astype(np.float64)
        pre = onehot.reshape(c, h // ph, wid // pw, ph, pw).transpose(0, 1, 3, 2, 4)
        kept.append({"in_shape": entry["in_shape"], "cols": entry["cols"],
                     "pre": pre.reshape(c, h, wid), "peak": np.ones(idx.shape),
                     "mask": mask[..., 0]})
    return kept


def _describe_reference(x, w, dtype=np.float64):
    """The earlier describe, its forward run in ``dtype``: (descriptor, pre-norm norm, cache)."""
    flat, cache = _forward_reference(enc._normalize_input(x).astype(dtype), w)
    flat = flat.astype(np.float64)
    norm = np.linalg.norm(flat)
    if norm < enc._DEGENERATE_EPS:
        canonical = np.zeros(flat.size)
        canonical[0] = 1.0
        return enc.Descriptor(canonical, degenerate=True), norm, cache
    return enc.Descriptor(flat / norm), norm, cache


def _random_arch(rng):
    """A small arch whose pools include non-square, (1, 1) and absent ones."""
    n_layers = int(rng.integers(1, 4))
    channels = (1, *(int(c) for c in rng.integers(1, 6, size=n_layers)))
    choices = [(1, 1), (2, 3), (3, 1), (1, 2), (2, 2), None]
    pools = tuple(choices[int(i)] for i in rng.integers(0, len(choices), size=n_layers))
    h, w = (int(v) for v in rng.integers(1, 4, size=2))
    for pool in pools:
        if pool is not None:
            h, w = h * pool[0], w * pool[1]
    return EncoderArch(input_shape=(h, w), channels=channels, pools=pools)


def _oracle_inputs(rng, shape):
    """Random, quantised (pool-window ties) and block-constant heatmaps."""
    rows, cols = shape
    smooth = random_heatmap_values(rng, rows, cols)
    blocks = np.kron(rng.integers(0, 3, size=(rows // 2 + 1, cols // 2 + 1)), np.ones((2, 2)))
    return [smooth, np.floor(3.0 * smooth), blocks[:rows, :cols].astype(np.float64)]


def _oracle_cases():
    rng = np.random.default_rng(31)
    archs = [SMALL_ARCH, EncoderArch(input_shape=(64, 96)), EncoderArch(input_shape=(64, 256))]
    archs += [_random_arch(rng) for _ in range(12)]
    for i, arch in enumerate(archs):
        w = init_weights(arch, seed=i)
        for x in _oracle_inputs(rng, arch.input_shape):
            yield x, w


def test_encode_is_bit_identical_to_reference_forward():
    pools = set()
    for x, w in _oracle_cases():
        pools.update(w.arch.pools)
        got = encode(x, w)
        ref = _describe_reference(x, w)[0]
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.degenerate == ref.degenerate
    assert {(1, 1), (2, 3), (3, 1)} <= pools
    # dead rectifiers everywhere: both sides give the canonical descriptor
    w = init_weights(SMALL_ARCH, seed=1)
    for l in range(len(w.biases)):
        w.biases[l] = -np.abs(w.biases[l]) - 1.0
    got, ref = encode(np.zeros((16, 24)), w), _describe_reference(np.zeros((16, 24)), w)[0]
    assert got.degenerate and ref.degenerate
    assert got.values.tobytes() == ref.values.tobytes()


def test_pooling_before_the_bias_keeps_ties_that_rounding_makes():
    # pre-bias a = 0.5 < c = 1 both round to 2**53 after the bias: the
    # rectified map ties, and its first maximum is a's, not c's; the
    # gradient goes to the pre-bias maximum, c's
    arch = EncoderArch(input_shape=(1, 4), channels=(1, 1), pools=((1, 2),))
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0  # the centre tap: pre-bias values are the input
    w = enc.EncoderWeights(arch, [kernel], [np.array([2.0**53])])
    a, c = 0.5, 1.0
    assert a != c and a + 2.0**53 == c + 2.0**53
    x = np.array([[a, c, c, a]])
    flat, _ = enc._forward(x, w)
    ref_flat, ref_cache = _forward_reference(x, w)
    assert flat.tobytes() == ref_flat.tobytes() == np.full(2, 2.0**53).tobytes()
    kept_flat, cache = enc._forward(x, w, keep=True)
    assert kept_flat.tobytes() == ref_flat.tobytes()
    assert ref_cache[0]["pool_idx"].tolist() == [[[0, 0]]]
    assert cache[0]["pre"].tolist() == [[[a, c, c, a]]]
    assert cache[0]["peak"].tolist() == [[[c, c]]]
    assert cache[0]["mask"].tolist() == [[[True, True]]]
    # window 0's gradient goes to column 1, window 1's to column 2
    grads = enc._zero_grads(w)
    enc._backward(np.ones(2), cache, w, grads)
    cols = cache[0]["cols"]
    want = (np.array([0.0, 1.0, 1.0, 0.0]) @ cols.T).reshape(kernel.shape)
    not_want = (np.array([1.0, 0.0, 1.0, 0.0]) @ cols.T).reshape(kernel.shape)
    assert grads[0][0].tobytes() == want.tobytes() != not_want.tobytes()
    assert grads[0][1].tolist() == [2.0]


def test_kept_cache_equals_reference_cache():
    for x, w in _oracle_cases():
        xn = enc._normalize_input(x)
        flat, cache = enc._forward(xn, w, keep=True)
        ref_flat, ref_cache = _forward_reference(xn, w)
        assert flat.tobytes() == ref_flat.tobytes()
        assert enc._forward(xn, w)[1] is None
        ref_cache = _kept_layout(ref_cache, w.arch)
        assert len(cache) == len(ref_cache)
        for entry, ref, pool in zip(cache, ref_cache, w.arch.pools):
            assert entry.keys() == ref.keys()
            assert entry["in_shape"] == ref["in_shape"]
            for key in ("cols", "pre", "peak", "mask"):
                assert entry[key].shape == ref[key].shape
            for key in ("cols", "mask"):
                assert entry[key].dtype == ref[key].dtype
                assert entry[key].tobytes() == ref[key].tobytes()
            windows = _windows(entry["pre"], *(pool or (1, 1)))
            assert entry["peak"].tobytes() == windows.max(axis=3).tobytes()
            # a window whose maximum is not positive after the bias passes no
            # gradient, and there the two first-maximum rules may differ
            mask = entry["mask"]
            ref_idx = _windows(ref["pre"], *(pool or (1, 1))).argmax(axis=3)
            assert np.array_equal(windows.argmax(axis=3)[mask], ref_idx[mask])


def test_training_is_bit_identical_with_reference_forward(monkeypatch):
    rcfg = RadarConfig(n_chirps=4)
    world = synth.build_world(synth.WorldConfig(
        n_places=10, spacing_m=4.0, range_lo=9.0, heatmap_rows=64, heatmap_cols=32, seed=3,
    ))
    frames = synth.training_dataset(world, rcfg, max_rot_deg=20.0, max_lat_m=1.5, passes=3,
                                    seed=3)
    runs = [(_toy_dataset(), TrainConfig(max_epochs=3, seed=0), SMALL_ARCH),
            (frames, TrainConfig(max_epochs=2, seed=1), None)]
    got = [train(*run) for run in runs]

    def reference_forward(x, w, keep=False):
        flat, cache = _forward_reference(x, w)
        return flat, _kept_layout(cache, w.arch)

    monkeypatch.setattr(enc, "_forward", reference_forward)
    ref = [train(*run) for run in runs]
    for g, r in zip(got, ref):
        assert _same_weights(g.weights, r.weights)
        assert g.history == r.history


def test_normalize_input_is_the_numpy_standardization():
    rng = np.random.default_rng(47)
    for x, _ in _oracle_cases():
        for scaled in (x, 1e6 * x + 3.0, np.full(x.shape, 2.5)):
            sd = scaled.std()
            want = (scaled - scaled.mean()) / sd if sd > 0 else scaled - scaled.mean()
            assert enc._normalize_input(scaled).tobytes() == want.tobytes()
            got32 = enc._normalize_input(scaled, np.float32)
            assert got32.dtype == np.float32
            assert got32.tobytes() == want.astype(np.float32).tobytes()
    x = random_heatmap_values(rng, 16, 24)
    assert enc._normalize_input(x).std() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1000, -1000])
def test_normalize_input_standardizes_any_finite_heatmap(k):
    # squares of x * 2**1000 overflow and those of x * 2**-1000 underflow
    for x, _ in _oracle_cases():
        for dtype in (np.float64, np.float32):
            want = enc._normalize_input(x, dtype).copy()
            assert enc._normalize_input(x * 2.0**k, dtype).tobytes() == want.tobytes()


# -- float32 weights: the forward in the weights' dtype -----------------------

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53


def _gamma(n, u):
    return n * u / (1 - n * u)


def _float32_forward_bound(x, w):
    """Elementwise bound on |encode(x, w32) - encode(x, w)| for float32-valued weights ``w``.

    w32 is ``w`` cast to float32; ``w`` is float64.  Both forwards start from
    the same float64 standardized input z; the float32 one reads fl32(z),
    |fl32(z) - z| <= u32 |z| with u32 = 2**-24.  Let E bound the difference
    of a layer's two inputs, elementwise, and x the float64 input.  Each
    output cell of a layer is a dot product of n = 9 c_in taps plus the
    bias, an (n+1)-term sum that either side may evaluate in any order,
    which errs by at most gamma_{n+1} (sum|w||input| + |b|), gamma_k =
    k u / (1 - k u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1).  With |input32| <= |x| + E, the
    two cells differ by at most

        |W| E + gamma32_{n+1} (|W| (|x| + E) + |b|) + gamma64_{n+1} (|W| |x| + |b|).

    Pooling before the bias has the same bits as after it (rounding is
    monotone), and ReLU and max are 1-Lipschitz, so a pooled cell's bound
    is the largest over its window: that is the next layer's E.

    The last layer gives flat vectors a (exact in float64) and c with
    ||a - c|| <= e = ||E||.  For y = c / ||c||,
    |a_i/||a|| - y_i| <= (E_i + |y_i| e) / ||a|| and ||a|| >= ||c|| - e.
    The norm and the division in float64 add at most gamma64_{D+2} |y_i|
    <= gamma64_{D+2} per side, D the descriptor size.  The bound is summed
    in float64, whose own relative error (below 1e-12 here) the factor
    1 + 1e-9 covers.  Returns (bound per element, e / ||c||).
    """
    z = enc._normalize_input(x).copy()
    ref, norm, cache = _describe_reference(x, w)
    err = _U32 * np.abs(z)[None]
    for l, entry in enumerate(cache):
        c_out = w.kernels[l].shape[0]
        k = np.abs(w.kernels[l]).reshape(c_out, -1)
        b = np.abs(w.biases[l])[:, None]
        n = k.shape[1] + 1
        kx, ke = k @ np.abs(entry["cols"]), k @ _im2col_reference(err)
        cell = ke + _gamma(n, _U32) * (kx + ke + b) + _gamma(n, _U64) * (kx + b)
        _, h, wid = entry["in_shape"]
        err = cell.reshape(c_out, h, wid)
        if w.arch.pools[l] is not None:
            ph, pw = w.arch.pools[l]
            err = err.reshape(c_out, h // ph, ph, wid // pw, pw).max(axis=(2, 4))
    err = err.ravel()
    e = np.linalg.norm(err)
    bound = (err + np.abs(ref.values) * e) / (norm - e) + 2 * _gamma(err.size + 2, _U64)
    return bound * (1 + 1e-9), e / norm


def test_a_trained_model_encodes_as_its_saved_file(tmp_path):
    data = _toy_dataset()
    trained = train(data, TrainConfig(max_epochs=2, seed=0), SMALL_ARCH).weights
    save_weights(tmp_path / "enc.mmw", trained)
    loaded = load_weights(tmp_path / "enc.mmw")
    assert _same_weights(trained, loaded)
    for h, _ in data:
        assert encode(h, trained).values.tobytes() == encode(h, loaded).values.tobytes()


def test_float32_encode_is_bit_identical_to_reference_forward_in_float32():
    for x, w in _oracle_cases():
        w32 = _with_dtype(w, np.float32)
        got = encode(x, w32)
        ref = _describe_reference(x, w32, np.float32)[0]
        assert got.values.dtype == np.float64
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.degenerate == ref.degenerate
    # mixed dtypes are not float32 weights: they run the float64 forward
    w = _with_dtype(init_weights(SMALL_ARCH, seed=2), np.float32)
    w.biases[-1] = w.biases[-1].astype(np.float64)
    x = random_heatmap_values(np.random.default_rng(48), 16, 24)
    assert encode(x, w).values.tobytes() == _describe_reference(x, w)[0].values.tobytes()


def test_float32_encode_is_within_its_bound_of_the_float64_forward():
    checked = differed = 0
    for x, w in _oracle_cases():
        w64 = _with_dtype(_with_dtype(w, np.float32), np.float64)
        want = _describe_reference(x, w64)[0]
        if want.degenerate:
            continue
        got = encode(x, _with_dtype(w64, np.float32))
        bound, rel = _float32_forward_bound(x, w64)
        assert rel < 0.01  # the bound says something
        assert not got.degenerate
        assert np.all(np.abs(got.values - want.values) <= bound)
        checked += 1
        differed += got.values.tobytes() != want.values.tobytes()
    # float32 rounding shows in most descriptors, so the bound is exercised
    assert checked >= 40 and differed >= checked // 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_format_error_without_warnings(bad):
    x = np.ones((16, 24))
    x[3, 5] = bad
    w = init_weights(SMALL_ARCH, seed=0)
    samples = [x, np.ones((16, 24)), np.zeros((16, 24))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            encode(x, w)
        with pytest.raises(FormatError):
            backward([TripletBatch(0, [1], [2])], samples, w, 1.0)
        # the first query has one positive and N_NEG negatives, so training mines
        far = [(x, (30.0 + i, 0.0)) for i in range(N_NEG)]
        with pytest.raises(FormatError):
            train([(x, (0.0, 0.0)), (x, (1.0, 0.0)), *far], TrainConfig(max_epochs=1),
                  SMALL_ARCH)


# -- the lean forward's reused workspaces -------------------------------------

def test_a_descriptor_survives_later_encodes():
    rng = np.random.default_rng(41)
    for shape in ((64, 96), (16, 24)):
        arch = EncoderArch(input_shape=shape) if shape != (16, 24) else SMALL_ARCH
        w = init_weights(arch, seed=2)
        first = encode(random_heatmap_values(rng, *shape), w)
        kept = first.values.copy()
        for _ in range(3):
            encode(random_heatmap_values(rng, *shape), w)
        assert first.values.tobytes() == kept.tobytes()


def test_interleaved_sizes_match_the_reference_forward():
    rng = np.random.default_rng(42)
    ws = [init_weights(EncoderArch(input_shape=(64, 96)), 3),
          init_weights(EncoderArch(input_shape=(64, 256)), 4)]
    for i in range(6):
        w = ws[i % 2]
        for x in _oracle_inputs(rng, w.arch.input_shape):
            got = encode(x, w)
            ref = _describe_reference(x, w)[0]
            assert got.values.tobytes() == ref.values.tobytes()


def test_a_kept_cache_survives_a_lean_encode():
    rng = np.random.default_rng(43)
    w = init_weights(EncoderArch(input_shape=(64, 96)), 5)
    xn = enc._normalize_input(random_heatmap_values(rng, 64, 96))
    flat, cache = enc._forward(xn, w, keep=True)
    arrays = ("cols", "pre", "peak", "mask")
    snapshot = [{k: entry[k].copy() for k in arrays} for entry in cache]
    flat_copy = flat.copy()
    encode(random_heatmap_values(rng, 64, 96), w)
    assert flat.tobytes() == flat_copy.tobytes()
    bufs = [b for entry in enc._workspaces.bufs.values() for b in entry if b is not None]
    for entry, snap in zip(cache, snapshot):
        assert entry.keys() == {"in_shape", *arrays}
        for key in arrays:
            assert entry[key].tobytes() == snap[key].tobytes()
            assert not any(np.shares_memory(entry[key], b) for b in bufs)


def test_lean_outputs_do_not_alias_a_workspace():
    rng = np.random.default_rng(44)
    # the default arch ends without a pool, SMALL_ARCH with one
    for arch in (EncoderArch(input_shape=(64, 96)), SMALL_ARCH):
        w = init_weights(arch, seed=6)
        x = enc._normalize_input(random_heatmap_values(rng, *arch.input_shape))
        flat, _ = enc._forward(x, w)
        bufs = [b for entry in enc._workspaces.bufs.values() for b in entry if b is not None]
        assert bufs and not any(np.shares_memory(flat, b) for b in bufs)


def test_a_warm_encode_takes_few_page_faults():
    resource = pytest.importorskip("resource")
    w = init_weights(EncoderArch(input_shape=(64, 256)), 7)
    x = random_heatmap_values(np.random.default_rng(45), 64, 256)
    for _ in range(3):
        encode(x, w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        encode(x, w)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 50 < 50


@pytest.mark.parametrize("shape", [(64, 96), (64, 256)])
def test_a_warm_encode_allocates_no_patch_matrix(shape):
    w = init_weights(EncoderArch(input_shape=shape), 8)
    x = random_heatmap_values(np.random.default_rng(46), *shape)
    encode(x, w)
    tracemalloc.start()
    try:
        encode(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    patch_matrix = 9 * shape[0] * shape[1] * 8  # layer 0's, in bytes
    assert peak < patch_matrix / 2
