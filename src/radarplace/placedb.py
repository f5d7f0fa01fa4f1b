"""Place database: exact descriptor retrieval and recognition metrics."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DuplicateIdError, MetricError

MATCH_RADIUS_M = 3.0


class PlaceRecord:
    """Descriptor plus ground truth for one stored place observation.

    A record holds a real-valued ndarray descriptor as it is given, raveled
    (a view, not a copy), and the database casts it into float32 once, as
    it stores the record at the first query after the ``add``.  So the
    database reads the descriptor's values then, not at construction, and
    a float64 value beyond the float32 range warns "overflow in cast" and
    is refused as non-finite then.  Any other descriptor (a list, a complex
    or object array) is cast to float32 here, so a bad one fails here.

    Reading ``descriptor`` gives ``np.asarray(descriptor, np.float32).ravel()``
    and keeps it; once the record is stored, it is its read-only store row.
    """

    __slots__ = ("id", "_values", "position", "heading", "source")

    def __init__(self, id: int, descriptor, position: tuple[float, float],
                 heading: float | None = None, source: str = ""):  # heading in deg
        if isinstance(descriptor, np.ndarray) and descriptor.dtype.kind in "biuf":
            self._values = np.asarray(descriptor).ravel()
        else:  # numpy casts a listed int to float32 through float64, an int64 array directly
            self._values = np.asarray(descriptor, dtype=np.float32).ravel()
        self.id = id
        self.position = (float(position[0]), float(position[1]))
        self.heading = heading
        self.source = source

    @property
    def descriptor(self) -> np.ndarray:
        if self._values.dtype != np.float32:
            self._values = self._values.astype(np.float32)
        return self._values


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
    """In-memory place database with exact retrieval.

    Descriptors are held as float32, matching the on-disk format, so a
    save/load round trip reproduces query results bit for bit.

    ``query`` reads a store of arrays that mirror ``records``: float32
    descriptors, float64 squared norms, ids and positions.  ``records``
    grows only through ``add`` (or, for a loaded database,
    ``_from_columns``), and ``add`` is lazy: the first query after it
    stores the new records.  ``_store`` is the one write path into the
    store, and its concatenate is the one cast of an added record's values
    into float32; it refuses a descriptor holding NaN or inf, and that
    query drops the record and raises ConfigError.  Every stored record's
    ``descriptor`` is a read-only view of its own store row, so the
    database holds each descriptor once and a row never drifts from its
    squared norm.
    """

    def __init__(self):
        self.records: list[PlaceRecord] = []
        self._known_ids: set[int] = set()  # ids of records, for the duplicate check
        self._n = 0  # records mirrored so far
        self._desc = np.empty((0, 0), np.float32)
        self._sqnorm = np.empty(0)
        self._ids = np.empty(0, np.int64)
        self._pos = np.empty((0, 2))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int | None:
        return self.records[0]._values.size if self.records else None

    def add(self, record: PlaceRecord) -> int:
        if self.records and record._values.size != self.dim:
            raise DimensionError(
                f"descriptor dim {record._values.size} != db dim {self.dim}"
            )
        if record.id in self._known_ids:
            raise DuplicateIdError(f"record id {record.id} already present")
        self._known_ids.add(record.id)
        self.records.append(record)
        return record.id

    @classmethod
    def _from_columns(cls, count: int, dim: int, blocks) -> "PlaceDB":
        """A database of ``count`` records built from column blocks, not one ``add`` each.

        ``blocks`` yields consecutive records as ``(ids, descriptors,
        positions, headings)``: uint64 ids, a (rows, dim) float32 array, a
        (rows, 2) float64 array and a list of headings (float or None).
        Each block goes through ``_store``, the one write path into the
        query store, and each record's ``descriptor`` is its store row, as
        for every stored record; the caller may reuse a block's arrays once
        the next one is asked for.  ``_store``'s checks apply, and so does
        ``add``'s duplicate-id check, with its error.
        """
        db = cls()
        db._reserve(count, dim)
        new = object.__new__
        for block_ids, descriptors, positions, headings in blocks:
            ids = block_ids.tolist()
            rows, refused = db._store(ids, [descriptors], positions)
            if refused:
                raise ConfigError(refused[min(refused)])
            for rid, desc, pos, heading in zip(ids, rows, positions.tolist(), headings):
                rec = new(PlaceRecord)
                rec.id, rec._values, rec.position, rec.heading, rec.source = (
                    rid, desc, tuple(pos), heading, "")
                db.records.append(rec)
        known = db._known_ids
        for rec in db.records:
            if rec.id in known:
                raise DuplicateIdError(f"record id {rec.id} already present")
            known.add(rec.id)
        return db

    def _reserve(self, cap: int, dim: int) -> None:
        """Move the query store to ``cap`` rows, keeping its first ``_n``.

        Every stored record is pointed at its row of the new store, so the
        old one is freed.
        """
        n = self._n
        self._desc = _grown(self._desc, n, (cap, dim))
        self._sqnorm = _grown(self._sqnorm, n, (cap,))
        self._ids = _grown(self._ids, n, (cap,))
        self._pos = _grown(self._pos, n, (cap, 2))
        stored = self._desc[:n]
        stored.flags.writeable = False
        for rec, row in zip(self.records, stored):
            rec._values = row

    def _store(self, ids: list[int], blocks, positions) -> tuple[np.ndarray, dict]:
        """Append records at row ``_n`` of the query store; return the rows written and the refusals.

        ``blocks`` are (rows, dim) real descriptor arrays, cast into float32
        as they are concatenated straight into the store, which grows by
        doubling.  Products of float32 values are exact in float64, so a
        squared norm is finite exactly when its row is.  A record whose row
        holds NaN or inf, or whose id is not an integer, is refused: the
        records after it move up a row, and ``refused`` maps its index in
        ``ids`` to its error message.
        The rows returned are those of the stored records, and read-only.
        """
        start, dim = self._n, blocks[0].shape[1]
        stop = start + len(ids)
        if stop > len(self._ids) or self._desc.shape[1] != dim:  # a new dim only when empty
            self._reserve(max(stop, 2 * len(self._ids)), dim)  # amortised doubling
        rows, sqnorm = self._desc[start:stop], self._sqnorm[start:stop]
        np.concatenate(blocks, out=rows)
        np.einsum("ij,ij->i", rows, rows, dtype=np.float64, out=sqnorm)
        refused = {int(i): f"record id {ids[i]}: descriptor holds a non-finite value"
                   for i in np.flatnonzero(~np.isfinite(sqnorm))}
        for i, rid in enumerate(ids):
            try:
                operator.index(rid)  # an int64 column would truncate 1.5 to 1
            except TypeError:
                refused.setdefault(i, f"record id {rid!r}: not an integer")
        if refused:
            keep = [i for i in range(len(ids)) if i not in refused]
            stop = start + len(keep)
            rows[:len(keep)], sqnorm[:len(keep)] = rows[keep], sqnorm[keep]
            rows = rows[:len(keep)]
            ids, positions = [ids[i] for i in keep], np.reshape(positions, (-1, 2))[keep]
        try:
            self._ids[start:stop] = ids
        except OverflowError:  # an id outside int64: keep exact Python ints
            self._ids = self._ids.astype(object)
            self._ids[start:stop] = ids
        self._pos[start:stop] = positions
        self._n = stop
        rows.flags.writeable = False
        return rows, refused

    def _sync(self) -> int:
        """Store the records added since the last query at their rows; return the store's size.

        The records ``_store`` refuses are dropped, with their ids, and the
        rest are stored before the first refusal is raised, so the error
        shows once and later queries work.
        """
        start = self._n
        new = self.records[start:]
        if new:
            rows, refused = self._store([r.id for r in new], [r._values[None] for r in new],
                                        [r.position for r in new])
            if refused:
                self._known_ids.difference_update(new[i].id for i in refused)
                new = [rec for i, rec in enumerate(new) if i not in refused]
                self.records[start:] = new
            for rec, row in zip(new, rows):
                rec._values = row
            if refused:
                more = f" ({len(refused)} records dropped)" if len(refused) > 1 else ""
                raise ConfigError(refused[min(refused)] + more)
        return self._n

    def query(self, descriptor, k: int, query_position=None) -> QueryResult:
        """Exact top-k by Euclidean distance; ties break to the smaller id.

        One float32 matrix-vector product scores every record; the float64
        distance is computed only for the records that ``_coarse_margin``
        cannot rule out of the top k, so ids, distances and tie-breaks are
        those of a float64 brute force over the whole database.

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
        n = self._sync()
        k = min(k, n)
        d64 = d.astype(np.float64)
        qq = float(d64 @ d64)
        sqnorm = self._sqnorm[:n]
        with np.errstate(over="ignore", invalid="ignore"):  # the margin covers overflow
            approx = sqnorm - 2.0 * (self._desc[:n] @ d).astype(np.float64) + qq
        a_k = float(np.partition(approx, k - 1)[k - 1])
        limit = a_k + _coarse_margin(d.size, float(sqnorm.max()), qq, a_k)
        # "not above" also keeps every row when a NaN or inf reaches the scores
        cand = np.flatnonzero(~(approx > limit))
        # float64 accumulation keeps distance ties exact across save/load
        dists = np.linalg.norm(self._desc[cand].astype(np.float64) - d64, axis=1)
        ids = self._ids[cand]
        order = np.lexsort((ids, dists))[:k]

        flags = None
        has_match = None
        if query_position is not None:
            qp = np.asarray(query_position, dtype=np.float64)
            geo = np.hypot(*(self._pos[:n] - qp).T)
            correct = geo <= MATCH_RADIUS_M
            flags = [bool(correct[i]) for i in cand[order]]
            has_match = bool(np.any(correct))
        return QueryResult(
            ids=[int(ids[i]) for i in order],
            distances=[float(dists[i]) for i in order],
            flags=flags,
            has_match=has_match,
        )


def _grown(a: np.ndarray, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """A new uninitialised array of ``shape`` that starts with ``a``'s first ``n`` rows."""
    out = np.empty(shape, a.dtype)
    if n:
        out[:n] = a[:n]
    return out


_U64 = 2.0**-53  # unit roundoff of float64
_U32 = 2.0**-24  # unit roundoff of float32
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u); infinite where the bound does not apply."""
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def _coarse_margin(dim: int, sqnorm_max: float, qq: float, a_k: float) -> float:
    """How far above the k-th coarse score a top-k row's coarse score can lie.

    Notation: m is a stored row and q the query, both float32 vectors of
    length n = ``dim``; R >= ||m|| for every row, Q >= ||q||, P = (R + Q)^2;
    u = 2^-53 and v = 2^-24 are the float64 and float32 unit roundoffs;
    gamma_n(u) = n u / (1 - n u).  The true squared distance is
    D = ||m||^2 - 2 m.q + ||q||^2 = sum_j (m_j - q_j)^2 <= P.

    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §3.1: a dot product of length n computed in any summation order (BLAS
    blocking, FMA) has |fl(x.y) - x.y| <= gamma_n |x|.|y|.  Under gradual
    underflow each float32 product adds at most 2^-150 absolute error.

    Coarse score ``approx`` = fl(fl(s - 2p) + t), with
      - s = fl64(sum m_j^2): |s - ||m||^2| <= gamma_n(u) R^2 (squares of
        float32 values are exact in float64, no underflow or overflow);
      - t = fl64(sum q_j^2): |t - ||q||^2| <= gamma_n(u) Q^2;
      - p = fl32(m.q): |p - m.q| <= gamma_n(v) R Q + n 2^-149 (|x|.|y| <=
        ||x|| ||y||, and the n underflow errors grow by at most
        1 + gamma_n(v) <= 2); 2p and the cast to float64 are exact;
      - the two float64 roundings add at most u|s - 2p| + u|s - 2p + t|
        <= 8u P + n 2^-149 when gamma_n(v) <= 1.
    So |approx - D| <= E = 2 gamma_n(v) R Q + (gamma_n(u) + 8u) P + 3n 2^-149.

    Reference distance (``query``'s re-rank, and the brute force it
    replaces): S = fl64(sum fl(fl(m_j - q_j)^2)) carries n + 2 roundings per
    term, so |S - D| <= F = gamma_{n+2}(u) D <= gamma_{n+2}(u) P.

    Let A_k be the k-th smallest coarse score: k rows i have
    approx_i <= A_k, so S_i <= U = A_k + E + F.  A row r with
    approx_r > A_k + 2(E + F) + 5u U has S_r > U (1 + 5u), and since
    float64 sqrt is correctly rounded, fl(sqrt(S_r)) >= sqrt(S_r)(1 - u)
    > sqrt(U)(1 + u) >= fl(sqrt(S_i)): its distance is strictly greater
    than k others, so no id tie-break can bring it into the top k.  2(E + F)
    alone would allow S_r > S_i with equal rounded square roots.

    The returned margin uses 5u(|A_k| + E + F) >= 5u U, adds 2u|A_k| for
    the rounding of A_k + margin, and is scaled by 1 + 2^-20 to cover the
    roundings of this function's own arithmetic on nonnegative terms.  It
    is infinite, so every row is re-ranked, when n v >= 1/2, when 2RQ may
    overflow float32, or when an input is not finite.
    """
    g64, g32 = _gamma(dim, _U64), _gamma(dim, _U32)
    r, q = math.sqrt(sqnorm_max / (1.0 - g64)), math.sqrt(qq / (1.0 - g64))
    if not (g32 <= 1.0 and 2.0 * r * q < _F32_MAX):
        return math.inf
    p = (r + q) ** 2
    e = 2.0 * g32 * r * q + (g64 + 8.0 * _U64) * p + 3.0 * dim * 2.0**-149
    f = _gamma(dim + 2, _U64) * p
    slack = 5.0 * _U64 * (abs(a_k) + e + f) + 2.0 * _U64 * abs(a_k)
    return (2.0 * (e + f) + slack) * (1.0 + 2.0**-20)


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

    # sweep tau over the distinct distances in one sorted pass; the stable sort
    # keeps equal distances in input order, so each tau is its group's first-seen
    # value (0.0 or -0.0), the one a set of the distances keeps
    dist = np.array([d for d, _ in top1], dtype=np.float64)
    order = np.argsort(dist, kind="stable")
    dist, tp_all = dist[order], np.cumsum(np.array([c for _, c in top1], dtype=bool)[order])
    last = np.flatnonzero(np.append(dist[1:] != dist[:-1], True))
    tau = dist[np.append(0, last[:-1] + 1)]
    tp, recognized = tp_all[last], last + 1
    keep = tp > 0
    precision = tp[keep] / recognized[keep]
    recall = tp[keep] / total_with_match
    f1 = 2 * precision * recall / (precision + recall)
    best = int(np.argmax(f1))  # the first of equal maxima, as a strict > sweep keeps
    return float(f1[best]), float(tau[keep][best])
