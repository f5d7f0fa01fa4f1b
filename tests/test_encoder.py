"""Encoder forward/backward tests, gradient oracle, and training loop."""

import math
import warnings

import numpy as np
import pytest

from radarplace import encoder as enc
from radarplace import synth
from radarplace.encoder import (
    N_NEG,
    NEG_RADIUS_M,
    EncoderArch,
    TrainConfig,
    TripletBatch,
    _val_recall1,
    backward,
    encode,
    init_weights,
    lr_at,
    mine_triplets,
    train,
    triplet_loss,
)
from radarplace.errors import ConfigError, DimensionError, EmptyResultError, FormatError
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


def test_train_reduces_loss_and_is_deterministic():
    data = _toy_dataset()
    cfg = TrainConfig(max_epochs=4, seed=0)
    res1 = train(data, cfg, SMALL_ARCH)
    res2 = train(data, cfg, SMALL_ARCH)
    assert res1.weights.checksum() == res2.weights.checksum()
    assert len(res1.history) == 4
    assert res1.history[-1]["mean_loss"] < res1.history[0]["mean_loss"]
    assert 0.0 <= res1.history[-1]["val_recall1"] <= 1.0


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


def _val_recall1_reference(dataset, weights, holdout_stride=5, radius=3.0):
    """Leave-out recall@1 by its own brute-force search (the earlier code)."""
    descs = np.stack([encode(h, weights).values for h, _ in dataset])
    positions = np.array([np.asarray(p, dtype=np.float64) for _, p in dataset])
    n = len(dataset)
    val_idx = np.arange(0, n, holdout_stride)
    db_idx = np.array([i for i in range(n) if i % holdout_stride != 0])
    if val_idx.size == 0 or db_idx.size == 0:
        return 0.0
    hits = 0
    counted = 0
    for qi in val_idx:
        geo = np.linalg.norm(positions[db_idx] - positions[qi], axis=1)
        if not np.any(geo <= radius):
            continue
        counted += 1
        d = np.linalg.norm(descs[db_idx] - descs[qi], axis=1)
        hits += geo[np.argmin(d)] <= radius
    return hits / counted if counted else 0.0


def test_val_recall1_matches_brute_force_reference():
    # places 4 m apart with up to 1.5 m lateral offsets: some held-out
    # queries have several records within the match radius, some only one
    rcfg = RadarConfig(n_chirps=4)
    arch = EncoderArch(input_shape=(64, 32))
    values = []
    for world_seed in range(3):
        world = synth.build_world(synth.WorldConfig(
            n_places=12, spacing_m=4.0, range_lo=9.0, heatmap_rows=64,
            heatmap_cols=32, seed=world_seed,
        ))
        dataset = synth.training_dataset(
            world, rcfg, max_rot_deg=20.0, max_lat_m=1.5, passes=3, seed=world_seed,
        )
        for weight_seed in range(3):
            w = init_weights(arch, weight_seed)
            got = _val_recall1(dataset, w)
            assert got == _val_recall1_reference(dataset, w, radius=MATCH_RADIUS_M)
            values.append(got)
    assert any(0.0 < v < 1.0 for v in values)
    # too few records to hold one out: both sides report 0
    assert _val_recall1(dataset[:1], w) == _val_recall1_reference(dataset[:1], w) == 0.0


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
            enc._backward(enc._norm_backward(desc, norm, dnorm), cache, w, grads)
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


# -- the earlier forward, kept as the oracle of the lean one ------------------

def _im2col_reference(x):
    """(C, H, W) -> (C*9, H*W) patch matrix through an np.pad copy (the earlier code)."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 9, h * w))
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


def _describe_reference(x, w):
    """The earlier describe: (descriptor, pre-norm norm, cache) from the earlier forward."""
    flat, cache = _forward_reference(enc._normalize_input(x), w)
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


def test_kept_cache_equals_reference_cache():
    for x, w in _oracle_cases():
        xn = enc._normalize_input(x)
        flat, cache = enc._forward(xn, w, keep=True)
        ref_flat, ref_cache = _forward_reference(xn, w)
        assert flat.tobytes() == ref_flat.tobytes()
        assert enc._forward(xn, w)[1] is None
        assert len(cache) == len(ref_cache)
        for entry, ref in zip(cache, ref_cache):
            assert entry.keys() == ref.keys()
            for key, value in ref.items():
                if isinstance(value, np.ndarray):
                    assert entry[key].shape == value.shape and entry[key].dtype == value.dtype
                    assert entry[key].tobytes() == value.tobytes()
                else:
                    assert entry[key] == value


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
    monkeypatch.setattr(enc, "_forward", lambda x, w, keep=False: _forward_reference(x, w))
    ref = [train(*run) for run in runs]
    for g, r in zip(got, ref):
        assert g.weights.checksum() == r.weights.checksum()
        assert g.history == r.history


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
