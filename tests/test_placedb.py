"""Exact retrieval and recognition metric tests."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarplace import fileio, placedb
from radarplace.errors import ConfigError, DimensionError, DuplicateIdError, MetricError
from radarplace.fileio import load_db, save_db
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


def _query_reference(db, descriptor, k, query_position=None):
    """The earlier ``PlaceDB.query``: a float64 brute force over every record."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not db.records:
        raise ConfigError("cannot query an empty database")
    d = np.asarray(descriptor, dtype=np.float32).ravel()
    if d.size != db.dim:
        raise DimensionError(f"query dim {d.size} != db dim {db.dim}")
    mat = np.stack([r.descriptor for r in db.records])
    dists = np.linalg.norm(mat.astype(np.float64) - d.astype(np.float64), axis=1)
    ids = np.array([r.id for r in db.records])
    order = np.lexsort((ids, dists))[: min(k, len(db.records))]

    flags = None
    has_match = None
    if query_position is not None:
        qp = np.asarray(query_position, dtype=np.float64)
        geo = np.hypot(*(np.array([r.position for r in db.records]) - qp).T)
        correct = geo <= MATCH_RADIUS_M
        flags = [bool(correct[i]) for i in order]
        has_match = bool(np.any(correct))
    return QueryResult(
        ids=[int(ids[i]) for i in order],
        distances=[float(dists[i]) for i in order],
        flags=flags,
        has_match=has_match,
    )


def _max_f1_reference(results):
    """The earlier ``max_f1``: one pass over the results per distinct distance."""
    if not results:
        raise MetricError("no query results")
    for res in results:
        if res.flags is None or res.has_match is None:
            raise MetricError("maxF1 requires ground-truth flags on every result")
    total_with_match = sum(r.has_match for r in results)
    if total_with_match == 0:
        raise MetricError("recall undefined: no query has a correct match")
    top1 = [(r.top1_distance, r.top1_correct) for r in results]
    if not any(correct for _, correct in top1):
        raise MetricError("recall undefined: no query has a correct top-1")

    best_f1, best_tau = 0.0, float(top1[0][0])
    for tau in sorted({d for d, _ in top1}):
        recognized = [(d, c) for d, c in top1 if d <= tau]
        tp = sum(c for _, c in recognized)
        if not recognized or tp == 0:
            continue
        precision = tp / len(recognized)
        recall = tp / total_with_match
        f1 = 2 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1, best_tau = f1, float(tau)
    return best_f1, best_tau


def _same(got, want):
    """Bit for bit equal: repr writes each float so that it reads back to the same bits."""
    assert repr(got) == repr(want)


def _db_from(descs, positions=None):
    db = PlaceDB()
    for i, d in enumerate(descs):
        pos = positions[i] if positions is not None else (0.0, 0.0)
        db.add(PlaceRecord(i, d, pos))
    return db


def test_add_and_duplicate_id():
    db = PlaceDB()
    assert db.add(PlaceRecord(3, [1.0, 0.0], (0.0, 0.0))) == 3
    assert len(db) == 1 and db.dim == 2
    assert db.records[0].id == 3
    with pytest.raises(DuplicateIdError):
        db.add(PlaceRecord(3, [0.0, 1.0], (1.0, 1.0)))
    assert len(db) == 1 and db.records[0].descriptor.tolist() == [1.0, 0.0]


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


# -- the matrix-vector query against the brute-force reference -----------------

def _near(draw, base):
    """A copy of ``base``, possibly with one coordinate moved a few ulps."""
    v = base.copy()
    steps = draw(st.integers(-2, 2))
    j = draw(st.integers(0, v.size - 1))
    for _ in range(abs(steps)):
        v[j] = np.nextafter(v[j], np.float32(np.sign(steps) * np.inf))
    return v


@given(data=st.data())
def test_query_property_matches_reference(data):
    draw = data.draw
    dim = draw(st.integers(1, 8))
    coord = st.integers(-16, 16).map(lambda i: i / 8) | st.floats(-4.0, 4.0, width=32)
    bases = [np.array(draw(st.lists(coord, min_size=dim, max_size=dim)), dtype=np.float32)
             for _ in range(draw(st.integers(1, 3)))]

    def vector():
        return _near(draw, bases[draw(st.integers(0, len(bases) - 1))])

    position = st.tuples(st.integers(0, 6), st.integers(0, 2)).map(
        lambda p: (2.0 * p[0], 2.0 * p[1]))
    ids = iter(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=24, max_size=24,
                             unique=True)))
    db = PlaceDB()
    for _ in range(draw(st.integers(1, 8))):
        db.add(PlaceRecord(next(ids), vector(), draw(position)))
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            db.add(PlaceRecord(next(ids), vector(), draw(position)))
        q, k = vector(), draw(st.integers(1, len(db) + 3))
        qpos = draw(st.none() | position)
        _same(db.query(q, k, qpos), _query_reference(db, q, k, qpos))


def test_query_matches_reference_on_an_interleaved_8192x1024_stream():
    # the shape of the benchmark's db workload: 1024 places in look-alike
    # groups of 4, 8 noisy records each, then queries with adds between them
    rng = np.random.default_rng(8)
    places, dim = 1024, 1024
    unit = lambda x: x / np.linalg.norm(x, axis=-1, keepdims=True)
    groups = unit(rng.standard_normal((places // 4, dim)))
    centres = unit(np.repeat(groups, 4, axis=0) + 0.15 * unit(rng.standard_normal((places, dim))))
    owner = np.repeat(np.arange(places), 8)
    desc = unit(centres[owner] + 0.3 * unit(rng.standard_normal((owner.size, dim))))
    db = PlaceDB()
    for rid in range(owner.size):
        db.add(PlaceRecord(rid, desc[rid], (20.0 * owner[rid], 0.0)))
    for j in range(12):
        place = int(rng.integers(places))
        q = unit(centres[place] + 1.5 * j / 12 * unit(rng.standard_normal(dim)))
        qpos = (20.0 * place + 1.0, 0.0)
        _same(db.query(q, 10, qpos), _query_reference(db, q, 10, qpos))
        db.add(PlaceRecord(owner.size + j, q, qpos))


def test_query_after_save_and_load_matches_reference(tmp_path):
    rng = np.random.default_rng(4)
    descs = rng.standard_normal((60, 16)).astype(np.float32)
    descs[30:40] = descs[:10]  # exact duplicates under other ids
    db = _db_from(descs, positions=[(float(i), 0.0) for i in range(60)])
    save_db(tmp_path / "db.mpdb", db)
    loaded = load_db(tmp_path / "db.mpdb")
    for j in range(10):
        q = descs[j] if j % 2 else rng.standard_normal(16)
        want = _query_reference(db, q, 7, (float(j), 0.0))
        _same(loaded.query(q, 7, (float(j), 0.0)), want)
        _same(db.query(q, 7, (float(j), 0.0)), want)


def test_coarse_margin_is_needed_on_a_near_tie(monkeypatch):
    # row 0 is one float32 ulp nearer the query than row 1, but the float32
    # dot product rounds that difference away, so the coarse scores order
    # them the other way round
    db = PlaceDB()
    db.add(PlaceRecord(0, [np.nextafter(np.float32(1.5), np.float32(2)), 6.5], (0.0, 0.0)))
    db.add(PlaceRecord(1, [1.5, 6.5], (0.0, 0.0)))
    q = [2.375, 6.5]
    _same(db.query(q, 1), _query_reference(db, q, 1))
    assert db.query(q, 1).ids == [0]
    monkeypatch.setattr(placedb, "_coarse_margin", lambda *args: 0.0)
    assert db.query(q, 1).ids == [1]


def test_all_equal_rows_rerank_everything():
    db = _db_from([[0.25, -1.0]] * 5)
    res = db.query([3.0, 1.0], 3)
    assert res.ids == [0, 1, 2]
    _same(res, _query_reference(db, [3.0, 1.0], 3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/huge input on purpose
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
def test_non_finite_or_huge_values_rerank_everything(bad):
    descs = np.eye(4, dtype=np.float32)
    db = _db_from(descs)
    q = [0.0, bad, 0.0, 0.0]
    _same(db.query(q, 4), _query_reference(db, q, 4))
    # a huge stored value is still ranked exactly; a non-finite one is refused
    descs[2, 1] = bad
    for q in ([1.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]):
        db = _db_from(descs)  # the query that refuses a record drops it
        if np.isfinite(bad):
            _same(db.query(q, 4), _query_reference(db, q, 4))
        else:
            with pytest.raises(ConfigError, match="record id 2"):
                db.query(q, 4)


def test_query_refuses_a_stored_non_finite_descriptor():
    # the record is refused on the first query after its add, however many came before
    db = _db_from([[1.0, 0.0, 0.0, 0.0], [np.nan] * 4])
    with pytest.raises(ConfigError, match="record id 1: descriptor holds a non-finite"):
        db.query(np.ones(4), 2)
    db = _db_from([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert db.query(np.ones(4), 2).ids == [0, 1]
    db.add(PlaceRecord(7, [0.0, 0.0, np.inf, 0.0], (0.0, 0.0)))
    with pytest.raises(ConfigError, match="record id 7"):
        db.query(np.ones(4), 2)


def test_query_refuses_a_non_integer_id():
    # an int64 id column would return id 1.5 as 1; numpy integers are ids like any other
    db = _db_from([[1.0, 0.0], [0.0, 1.0]])
    db.add(PlaceRecord(np.int64(7), [1.0, 1.0], (0.0, 0.0)))
    assert db.query([1.0, 1.0], 1).ids == [7]
    db.add(PlaceRecord(1.5, [1.0, 1.0], (0.0, 0.0)))
    assert db.records[-1].id == 1.5
    with pytest.raises(ConfigError, match="record id 1.5: not an integer"):
        db.query([1.0, 1.0], 1)


def test_a_refused_record_is_dropped_and_the_rest_stored(tmp_path):
    db = PlaceDB()
    db.add(PlaceRecord(1, [1.0, 0.0], (0.0, 0.0)))
    db.add(PlaceRecord(2, [np.nan, 0.0], (5.0, 0.0)))
    with pytest.raises(ConfigError, match="record id 2: descriptor holds a non-finite"):
        db.query([1.0, 0.0], 2)
    # the error shows once: record 1 is stored, and the database saves and loads
    assert [r.id for r in db.records] == [1] and db._n == 1
    assert db.query([1.0, 0.0], 2).ids == [1]
    save_db(tmp_path / "places.mpdb", db)
    assert load_db(tmp_path / "places.mpdb").query([1.0, 0.0], 2).ids == [1]
    # save_db checks the records not yet stored, from the first one on
    db.add(PlaceRecord(9, [np.inf, 0.0], (0.0, 0.0)))
    with pytest.raises(ConfigError, match="record id 9"):
        save_db(tmp_path / "pending.mpdb", db)
    assert not (tmp_path / "pending.mpdb").exists()
    with pytest.raises(ConfigError, match="record id 9"):
        db.query([1.0, 0.0], 2)
    # the refused id is free again; refusals in one batch raise once, naming the first
    db.add(PlaceRecord(2, [0.0, 1.0], (5.0, 0.0)))
    db.add(PlaceRecord(1.5, [0.5, 0.5], (0.0, 0.0)))
    db.add(PlaceRecord(3, [1.0, 1.0], (0.0, 0.0)))
    db.add(PlaceRecord(4.5, [0.0, np.inf], (0.0, 0.0)))  # refused twice over, dropped once
    with pytest.raises(ConfigError, match=r"record id 1.5: not an integer \(2 records dropped\)"):
        db.query([0.0, 1.0], 5)
    assert [r.id for r in db.records] == [1, 2, 3] and db._n == 3
    assert db.query([0.0, 1.0], 5).ids == [2, 3, 1]
    _same(db.query([0.0, 1.0], 5), _query_reference(db, [0.0, 1.0], 5))
    assert all(r.descriptor.base is db._desc for r in db.records)
    # a database whose every record was refused takes records of another dim
    empty = _db_from([[np.nan] * 4])
    with pytest.raises(ConfigError, match="record id 0"):
        empty.query(np.ones(4), 1)
    assert len(empty) == 0
    empty.add(PlaceRecord(0, [1.0, 2.0], (0.0, 0.0)))
    assert empty.query([1.0, 2.0], 1).ids == [0]


def test_query_returns_ids_beyond_int64_exactly():
    # ids up to 2**64 - 1 are valid in MPDB files; ties still break to the smaller id
    big = [2**64 - 1, 2**63 + 1, 2**63, -5]
    db = PlaceDB()
    for rid in big:
        db.add(PlaceRecord(rid, [1.0, 0.0], (0.0, 0.0)))
    db.add(PlaceRecord(3, [0.0, 1.0], (0.0, 0.0)))
    assert db.query([1.0, 0.0], 5).ids == [-5, 2**63, 2**63 + 1, 2**64 - 1, 3]


# -- maxF1 by one sort against the per-threshold sweep ----------------------------

@given(data=st.data())
def test_max_f1_property_matches_reference(data):
    dist = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 3.0])
    rows = data.draw(st.lists(st.tuples(dist, st.booleans(), st.booleans()), min_size=1,
                              max_size=40))
    results = [
        QueryResult(ids=[0], distances=[d], flags=[c], has_match=c or m) for d, c, m in rows
    ]
    try:
        want = _max_f1_reference(results)
    except MetricError:
        with pytest.raises(MetricError):
            max_f1(results)
        return
    got = max_f1(results)
    assert got == want
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_a_loaded_database_is_the_one_adds_build(tmp_path):
    rng = np.random.default_rng(17)
    db = PlaceDB()
    for rid in rng.permutation(300)[:120]:
        db.add(PlaceRecord(int(rid), rng.standard_normal(24), tuple(rng.uniform(0, 60, 2)),
                           None if rid % 3 else float(rid)))
    save_db(tmp_path / "db.mpdb", db)
    loaded = load_db(tmp_path / "db.mpdb")
    assert [r.id for r in loaded.records] == [r.id for r in db.records]
    for row in (0, -1):
        assert loaded.records[row].position == db.records[row].position
    with pytest.raises(DuplicateIdError):
        loaded.add(PlaceRecord(db.records[5].id, np.ones(24), (0.0, 0.0)))
    with pytest.raises(DimensionError):
        loaded.add(PlaceRecord(10_000, np.ones(23), (0.0, 0.0)))
    # queries agree before and after adds that grow the loaded mirror
    for step in range(3):
        q = rng.standard_normal(24)
        pos = tuple(rng.uniform(0, 60, 2))
        a, b = db.query(q, 7, pos), loaded.query(q, 7, pos)
        assert (a.ids, a.distances, a.flags, a.has_match) == (b.ids, b.distances, b.flags,
                                                               b.has_match)
        for target in (db, loaded):
            target.add(PlaceRecord(1000 + step, q, pos))


def test_a_loaded_database_holds_one_copy(tmp_path):
    rng = np.random.default_rng(23)
    db = PlaceDB()
    for rid in range(40):
        db.add(PlaceRecord(rid, rng.standard_normal(16), tuple(rng.uniform(0, 60, 2))))
    save_db(tmp_path / "db.mpdb", db)
    loaded = load_db(tmp_path / "db.mpdb")
    store = weakref.ref(loaded._desc)
    assert all(np.shares_memory(r.descriptor, loaded._desc) for r in loaded.records)
    loaded.query(rng.standard_normal(16), 3)
    assert loaded._desc is store()  # the first query copies nothing
    # an add outgrows the store: the loaded records move to the new one, and the old is freed
    loaded.add(PlaceRecord(100, rng.standard_normal(16), (0.0, 0.0)))
    q = rng.standard_normal(16)
    a, b = db.query(q, 5), loaded.query(q, 5)
    assert (a.ids, a.distances) == (b.ids, b.distances)
    assert all(np.shares_memory(r.descriptor, loaded._desc) for r in loaded.records[:40])
    assert store() is None
    assert [r.descriptor.tobytes() for r in loaded.records[:40]] == [
        r.descriptor.tobytes() for r in db.records]


def test_a_database_built_by_add_holds_one_copy():
    rng = np.random.default_rng(29)
    descs, positions = rng.standard_normal((40, 16)), rng.uniform(0, 60, (40, 2))
    queried, fresh = _db_from(descs, positions), _db_from(descs, positions)
    own = [weakref.ref(r.descriptor) for r in queried.records]
    q, qpos = rng.standard_normal(16), (30.0, 30.0)
    got = queried.query(q, 5, qpos)
    assert all(np.shares_memory(r.descriptor, queried._desc) for r in queried.records)
    assert all(ref() is None for ref in own)  # each record's own array is freed
    assert [r.descriptor.tobytes() for r in queried.records] == [
        r.descriptor.tobytes() for r in fresh.records]
    _same(got, fresh.query(q, 5, qpos))
    # an add outgrows the store: every stored record moves to the new one, and the old is freed
    store = weakref.ref(queried._desc)
    for target in (queried, fresh):
        target.add(PlaceRecord(40, q, qpos))
    _same(queried.query(q, 5, qpos), fresh.query(q, 5, qpos))
    assert store() is None
    assert all(np.shares_memory(r.descriptor, queried._desc) for r in queried.records)


def _cast_inputs(kind):
    rng = np.random.default_rng(37)
    values = rng.standard_normal((8, 6)) * np.logspace(-40, 37, 6)  # float32 rounds each
    if kind == "float64":
        return list(values)
    if kind == "float32":
        return list(values.astype(np.float32))
    if kind == "int64":
        return list(rng.integers(-2**62, 2**62, (8, 6)))  # beyond float32's exact integers
    if kind == "bool":
        return list(rng.random((8, 6)) < 0.5)
    if kind == "list":  # numpy casts a Python int to float32 through float64, twice rounded
        return [row.tolist() for row in values[:-1]] + [[2**60 + 2**36 + 1, 1, 2, 3, 4, 5]]
    return [row.reshape(3, 2).T for row in values]  # 2-D, and not contiguous


@pytest.mark.parametrize("kind", ["float64", "float32", "int64", "bool", "list", "2-D"])
def test_a_descriptor_is_cast_once_as_asarray_casts_it(kind):
    inputs = _cast_inputs(kind)
    want = np.stack([np.asarray(x, np.float32).ravel() for x in inputs])
    q = np.asarray(inputs[3], np.float64).ravel() + 0.5
    unread, read = _db_from(inputs), _db_from(inputs)
    # a read before storing gives the float32 bits, and keeps them
    early = [r.descriptor for r in read.records]
    assert all(d.dtype == np.float32 and d.ndim == 1 for d in early)
    assert np.stack(early).tobytes() == want.tobytes()
    assert all(r.descriptor is d for r, d in zip(read.records, early))
    for db in (unread, read):
        got = db.query(q, 5, (0.0, 0.0))
        assert db._desc[:len(inputs)].tobytes() == want.tobytes()
        _same(got, _query_reference(db, q, 5, (0.0, 0.0)))
    # a value beyond float32's range is refused when it is stored, not before
    unread.add(PlaceRecord(8, np.full(6, 1e39), (0.0, 0.0)))
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            ConfigError, match="record id 8: descriptor holds a non-finite"):
        unread.query(q, 5)
    assert unread._n == len(inputs)
    # a descriptor numpy cannot cast to float32 fails at construction, as it always has
    with pytest.raises(ValueError):
        PlaceRecord(9, np.array(["one", "two"]), (0.0, 0.0))


def test_an_added_record_allocates_no_descriptor_copy(tmp_path):
    # a float32 copy per added record would be 4 KiB each at this dim
    n, dim = 1000, 1024
    descs = np.random.default_rng(41).standard_normal((n, dim))
    positions = [(float(i), 0.0) for i in range(n)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        db = PlaceDB()
        for i in range(n):
            db.add(PlaceRecord(i, descs[i], positions[i]))
        built = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        save_db(tmp_path / "db.mpdb", db)
        kept, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert built < 1024 * n
    # the packed table, a per-record view for the one cast, and a few columns
    assert peak < (fileio._mpdb_record(dim).itemsize + 256) * n
    assert kept < 64 * n


def test_stored_descriptors_are_read_only(tmp_path):
    # the squared norms the query's margin relies on stay those of the rows
    rng = np.random.default_rng(31)
    db = _db_from(rng.standard_normal((6, 8)))
    save_db(tmp_path / "db.mpdb", db)
    loaded = load_db(tmp_path / "db.mpdb")
    db.query(rng.standard_normal(8), 2)
    for target in (db, loaded):
        target.add(PlaceRecord(6, rng.standard_normal(8), (0.0, 0.0)))
        target.query(rng.standard_normal(8), 2)  # stores the add, growing the store
        for row in (0, 6):  # record ids 0..6 sit in rows 0..6
            with pytest.raises(ValueError, match="read-only"):
                target.records[row].descriptor[0] = 1.0


def test_loading_a_duplicate_id_raises_what_add_raises(tmp_path):
    path = tmp_path / "dup.mpdb"
    db = PlaceDB()
    for rid in (4, 9, 2):
        db.add(PlaceRecord(rid, [1.0, 0.0], (0.0, 0.0)))
    save_db(path, db)
    raw = bytearray(path.read_bytes())
    record = 32 + 2 * 4
    raw[12 + 2 * record : 12 + 2 * record + 8] = (9).to_bytes(8, "little")  # id 2 -> 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DuplicateIdError, match="record id 9 already present"):
        load_db(path)
