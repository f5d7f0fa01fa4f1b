"""Exact retrieval and recognition metric tests."""

import numpy as np
import pytest

from radarplace.errors import ConfigError, DimensionError, DuplicateIdError, MetricError
from radarplace.placedb import (
    MATCH_RADIUS_M,
    PlaceDB,
    PlaceRecord,
    QueryResult,
    max_f1,
    recall_at_n,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _db_from(descs, positions=None):
    db = PlaceDB()
    for i, d in enumerate(descs):
        pos = positions[i] if positions is not None else (0.0, 0.0)
        db.add(PlaceRecord(i, d, pos))
    return db


def test_add_get_and_duplicate_id():
    db = PlaceDB()
    db.add(PlaceRecord(3, [1.0, 0.0], (0.0, 0.0)))
    assert len(db) == 1 and db.dim == 2
    assert db.get(3).id == 3
    with pytest.raises(DuplicateIdError):
        db.add(PlaceRecord(3, [0.0, 1.0], (1.0, 1.0)))
    with pytest.raises(KeyError):
        db.get(99)


def test_dim_mismatch_leaves_db_unchanged():
    db = _db_from([[1.0, 0.0]])
    with pytest.raises(DimensionError):
        db.add(PlaceRecord(7, [1.0, 0.0, 0.0], (0.0, 0.0)))
    assert len(db) == 1
    with pytest.raises(DimensionError):
        db.query([1.0, 0.0, 0.0], 1)


def test_exact_match_is_first():
    descs = [_unit([1, 0, 0]), _unit([0, 1, 0]), _unit([1, 1, 0])]
    db = _db_from(descs)
    res = db.query(descs[1], 3)
    assert res.ids[0] == 1
    assert res.distances[0] == 0.0
    assert res.distances == sorted(res.distances)


def test_k_clamped_to_db_size_and_validated():
    db = _db_from([[1.0, 0.0], [0.0, 1.0]])
    res = db.query([1.0, 0.0], 10)
    assert len(res.ids) == 2
    with pytest.raises(ConfigError):
        db.query([1.0, 0.0], 0)
    with pytest.raises(ConfigError):
        PlaceDB().query([1.0], 1)


def test_distance_ties_break_to_smaller_id():
    db = PlaceDB()
    db.add(PlaceRecord(9, [0.0, 1.0], (0.0, 0.0)))
    db.add(PlaceRecord(2, [0.0, 1.0], (0.0, 0.0)))
    db.add(PlaceRecord(5, [1.0, 0.0], (0.0, 0.0)))
    res = db.query([0.0, 1.0], 3)
    assert res.ids == [2, 9, 5]


def test_query_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    descs = rng.standard_normal((30, 8)).astype(np.float32)
    db = _db_from(descs)
    for _ in range(10):
        q = rng.standard_normal(8).astype(np.float32)
        res = db.query(q, 5)
        oracle = np.linalg.norm(descs.astype(np.float64) - q.astype(np.float64), axis=1)
        expect = np.lexsort((np.arange(30), oracle))[:5]
        assert res.ids == [int(i) for i in expect]
        assert res.distances == pytest.approx([float(oracle[i]) for i in expect])


def test_query_fills_ground_truth_flags():
    db = _db_from(
        [[1.0, 0.0], [0.0, 1.0]], positions=[(0.0, 0.0), (100.0, 0.0)]
    )
    res = db.query([1.0, 0.0], 2, query_position=(1.0, 0.0))
    assert res.flags == [True, False]
    assert res.has_match is True
    assert res.top1_correct
    far = db.query([1.0, 0.0], 2, query_position=(50.0, 0.0))
    assert far.has_match is False
    no_truth = db.query([1.0, 0.0], 1)
    with pytest.raises(MetricError):
        no_truth.top1_correct


def _qr(flag_list, has_match=True, top1_dist=0.5):
    dists = [top1_dist + 0.1 * i for i in range(len(flag_list))]
    return QueryResult(
        ids=list(range(len(flag_list))),
        distances=dists,
        flags=flag_list,
        has_match=has_match,
    )


def test_recall_crafted_example():
    # 6 of 10 hit at rank 1; 2 more appear by rank 5
    results = []
    for _ in range(6):
        results.append(_qr([True, False, False, False, False]))
    for _ in range(2):
        results.append(_qr([False, False, True, False, False]))
    for _ in range(2):
        results.append(_qr([False] * 5, has_match=False))
    assert recall_at_n(results, 1) == pytest.approx(0.6)
    assert recall_at_n(results, 5) == pytest.approx(0.8)
    assert recall_at_n(results, 2) >= recall_at_n(results, 1)


def test_recall_edge_cases():
    assert recall_at_n([_qr([True])], 1) == 1.0
    assert recall_at_n([_qr([False], has_match=False)], 1) == 0.0
    with pytest.raises(ConfigError):
        recall_at_n([_qr([True])], 0)
    with pytest.raises(MetricError):
        recall_at_n([], 1)
    with pytest.raises(MetricError):
        recall_at_n([QueryResult(ids=[0], distances=[0.1])], 1)


def test_recall_at_n_monotone_in_n():
    rng = np.random.default_rng(1)
    results = [
        _qr(list(rng.random(5) < 0.3), has_match=True) for _ in range(40)
    ]
    vals = [recall_at_n(results, n) for n in range(1, 6)]
    assert vals == sorted(vals)


def test_max_f1_separable_case():
    # close queries are all correct; far ones have no true match in the db
    results = [_qr([True], top1_dist=0.1) for _ in range(5)]
    results += [_qr([False], has_match=False, top1_dist=0.9) for _ in range(5)]
    f1, tau = max_f1(results)
    assert f1 == pytest.approx(1.0)
    assert 0.1 <= tau < 0.9


def test_max_f1_crafted_sweep_oracle():
    # distances 0.1..0.6; correctness T T F T F F
    spec = [(0.1, True), (0.2, True), (0.3, False), (0.4, True), (0.5, False), (0.6, False)]
    results = [
        QueryResult(ids=[0], distances=[d], flags=[c], has_match=True)
        for d, c in spec
    ]
    best = 0.0
    best_tau = None
    for tau, _ in spec:
        rec = [(d, c) for d, c in spec if d <= tau]
        tp = sum(c for _, c in rec)
        if tp == 0:
            continue
        p = tp / len(rec)
        r = tp / len(spec)
        f1 = 2 * p * r / (p + r)
        if f1 > best:
            best, best_tau = f1, tau
    f1, tau = max_f1(results)
    assert f1 == pytest.approx(best)
    assert tau == pytest.approx(best_tau)


def test_max_f1_invariant_under_monotone_distance_transform():
    rng = np.random.default_rng(2)
    dists = rng.uniform(0.1, 1.5, size=20)
    correct = rng.random(20) < 0.5
    if not correct.any():
        correct[0] = True
    mk = lambda ds: [
        QueryResult(ids=[0], distances=[float(d)], flags=[bool(c)], has_match=True)
        for d, c in zip(ds, correct)
    ]
    f1_a, _ = max_f1(mk(dists))
    f1_b, _ = max_f1(mk(dists**2 + 1.0))  # strictly increasing transform
    assert f1_a == pytest.approx(f1_b)


def test_max_f1_error_policies():
    with pytest.raises(MetricError):
        max_f1([])
    with pytest.raises(MetricError):
        max_f1([QueryResult(ids=[0], distances=[0.1])])
    # no query has any correct match in the db
    with pytest.raises(MetricError):
        max_f1([_qr([False], has_match=False)])
    # matches exist but the top-1 is never correct
    with pytest.raises(MetricError):
        max_f1([_qr([False], has_match=True)])


def test_match_radius_constant():
    assert MATCH_RADIUS_M == 3.0
