"""Place database: exact descriptor retrieval and recognition metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DuplicateIdError, MetricError

MATCH_RADIUS_M = 3.0


@dataclass
class PlaceRecord:
    """Descriptor plus ground truth for one stored place observation."""

    id: int
    descriptor: np.ndarray
    position: tuple[float, float]
    heading: float | None = None  # deg
    source: str = ""

    def __post_init__(self):
        self.descriptor = np.asarray(self.descriptor, dtype=np.float32).ravel()
        self.position = (float(self.position[0]), float(self.position[1]))


@dataclass
class QueryResult:
    """Ranked retrieval outcome for one query."""

    ids: list[int]
    distances: list[float]
    flags: list[bool] | None = None   # candidate within MATCH_RADIUS of truth
    has_match: bool | None = None     # any correct record exists in the db

    @property
    def top1_distance(self) -> float:
        return self.distances[0]

    @property
    def top1_correct(self) -> bool:
        if self.flags is None:
            raise MetricError("query was evaluated without ground truth")
        return self.flags[0]


class PlaceDB:
    """In-memory place database with exact brute-force search.

    Descriptors are held as float32, matching the on-disk format, so a
    save/load round trip reproduces query results bit for bit.
    """

    def __init__(self):
        self.records: list[PlaceRecord] = []
        self._ids: set[int] = set()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int | None:
        return self.records[0].descriptor.size if self.records else None

    def add(self, record: PlaceRecord) -> int:
        if self.records and record.descriptor.size != self.dim:
            raise DimensionError(
                f"descriptor dim {record.descriptor.size} != db dim {self.dim}"
            )
        if record.id in self._ids:
            raise DuplicateIdError(f"record id {record.id} already present")
        self.records.append(record)
        self._ids.add(record.id)
        return record.id

    def get(self, record_id: int) -> PlaceRecord:
        for r in self.records:
            if r.id == record_id:
                return r
        raise KeyError(record_id)

    def _matrix(self) -> np.ndarray:
        return np.stack([r.descriptor for r in self.records])

    def query(self, descriptor, k: int, query_position=None) -> QueryResult:
        """Exact top-k by Euclidean distance; ties break to the smaller id.

        When the query's ground-truth position is given, per-candidate
        correctness flags and the database-level has-match flag are filled.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        if not self.records:
            raise ConfigError("cannot query an empty database")
        d = np.asarray(descriptor, dtype=np.float32).ravel()
        if d.size != self.dim:
            raise DimensionError(f"query dim {d.size} != db dim {self.dim}")
        mat = self._matrix()
        # float64 accumulation keeps distance ties exact across save/load
        dists = np.linalg.norm(mat.astype(np.float64) - d.astype(np.float64), axis=1)
        ids = np.array([r.id for r in self.records])
        order = np.lexsort((ids, dists))[: min(k, len(self.records))]

        flags = None
        has_match = None
        if query_position is not None:
            qp = np.asarray(query_position, dtype=np.float64)
            geo = np.array(
                [np.linalg.norm(np.array(r.position) - qp) for r in self.records]
            )
            correct = geo <= MATCH_RADIUS_M
            flags = [bool(correct[i]) for i in order]
            has_match = bool(np.any(correct))
        return QueryResult(
            ids=[int(ids[i]) for i in order],
            distances=[float(dists[i]) for i in order],
            flags=flags,
            has_match=has_match,
        )


def recall_at_n(results: list[QueryResult], n: int) -> float:
    """Fraction of queries with a correct candidate in the top n."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not results:
        raise MetricError("no query results")
    hits = 0
    for res in results:
        if res.flags is None:
            raise MetricError("recall requires ground-truth flags on every result")
        hits += any(res.flags[:n])
    return hits / len(results)


def max_f1(results: list[QueryResult]) -> tuple[float, float]:
    """Best F1 over a sweep of the top-1 acceptance distance threshold.

    A query is recognized when its top-1 distance is <= the threshold;
    precision counts recognized-and-correct over recognized, recall over
    queries that have a correct match in the database at all.
    """
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
