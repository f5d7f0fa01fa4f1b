"""The ranking oracle catches a corrupted ranking.

Run: python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import CheckError, RankingOracle  # noqa: E402
from radarplace.placedb import PlaceDB, PlaceRecord, QueryResult  # noqa: E402


def _db_and_oracle():
    rng = np.random.default_rng(0)
    db, oracle = PlaceDB(), RankingOracle(dim=16, capacity=40)
    for i in range(40):
        desc = rng.standard_normal(16)
        pos = (float(i), 0.0)
        db.add(PlaceRecord(i, desc, pos))
        oracle.add(i, desc, pos)
    return db, oracle, rng.standard_normal(16)


def test_correct_ranking_passes():
    db, oracle, q = _db_and_oracle()
    oracle.check(db.query(q, 10, (5.0, 0.0)), q, 10, (5.0, 0.0))


def test_swapped_ids_are_caught():
    db, oracle, q = _db_and_oracle()
    res = db.query(q, 10, (5.0, 0.0))
    ids = list(res.ids)
    ids[0], ids[1] = ids[1], ids[0]
    bad = QueryResult(ids, res.distances, res.flags, res.has_match)
    with pytest.raises(CheckError):
        oracle.check(bad, q, 10, (5.0, 0.0))
