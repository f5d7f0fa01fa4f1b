"""Output checks the benchmark applies to every operation it times.

Each check raises ``CheckError`` with a reason; the harness counts it as a
failed operation.  The ranking oracle is an independent float64 brute force
over the descriptors the benchmark put into the database.
"""

from __future__ import annotations

import math

import numpy as np

MATCH_RADIUS_M = 3.0  # ground-truth radius of radarplace.placedb


class CheckError(Exception):
    """An operation returned a wrong or malformed result."""


class RankingOracle:
    """Float64 copy of a database's descriptors, positions and ids."""

    def __init__(self, dim: int, capacity: int):
        self.desc = np.empty((capacity, dim))
        self.pos = np.empty((capacity, 2))
        self.ids = np.empty(capacity, dtype=np.int64)
        self.n = 0

    def add(self, record_id: int, descriptor, position) -> None:
        if self.n == len(self.ids):
            grow = max(16, self.n // 4)
            self.desc = np.concatenate([self.desc, np.empty((grow, self.desc.shape[1]))])
            self.pos = np.concatenate([self.pos, np.empty((grow, 2))])
            self.ids = np.concatenate([self.ids, np.empty(grow, dtype=np.int64)])
        # the database stores float32; compare against what it can hold
        self.desc[self.n] = np.asarray(descriptor, dtype=np.float32).ravel()
        self.pos[self.n] = position
        self.ids[self.n] = record_id
        self.n += 1

    def check(self, result, query, k: int, query_position) -> None:
        """Re-rank ``query`` and compare ids, distances and match flags."""
        desc, ids = self.desc[: self.n], self.ids[: self.n]
        q = np.asarray(query, dtype=np.float32).ravel().astype(np.float64)
        diff = desc - q
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((ids, dist))[: min(k, self.n)]
        if list(result.ids) != ids[order].tolist():
            raise CheckError(f"ranking {list(result.ids)} != oracle {ids[order].tolist()}")
        if not np.allclose(result.distances, dist[order], rtol=1e-9, atol=1e-12):
            raise CheckError("distances differ from the oracle")
        if query_position is not None:
            geo = np.hypot(*(self.pos[: self.n] - np.asarray(query_position)).T)
            correct = geo <= MATCH_RADIUS_M
            if list(result.flags) != correct[order].tolist():
                raise CheckError("ground-truth flags differ from the oracle")
            if result.has_match != bool(correct.any()):
                raise CheckError("has_match differs from the oracle")


def check_map(values: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """A heatmap or mosaic has the expected shape and finite, non-negative cells."""
    if values.shape != shape:
        raise CheckError(f"{what} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise CheckError(f"{what} has non-finite or negative cells")


def check_descriptor(desc, dim: int) -> None:
    """A descriptor is finite and unit-norm, with the expected dimension."""
    if desc.values.shape != (dim,):
        raise CheckError(f"descriptor shape {desc.values.shape} != ({dim},)")
    if not np.all(np.isfinite(desc.values)):
        raise CheckError("descriptor has non-finite values")
    if abs(float(np.linalg.norm(desc.values)) - 1.0) > 1e-9:
        raise CheckError("descriptor is not unit-norm")


def check_history(history: list[dict], epochs: int) -> None:
    """Training reports one finite loss per epoch."""
    if len(history) != epochs:
        raise CheckError(f"{len(history)} history entries for {epochs} epochs")
    if not all(math.isfinite(h["mean_loss"]) for h in history):
        raise CheckError("non-finite training loss")


def check_same_results(a, b) -> None:
    """Two query results agree bit for bit (ids, distances, flags)."""
    if (a.ids, a.distances, a.flags, a.has_match) != (b.ids, b.distances, b.flags, b.has_match):
        raise CheckError("query results differ after a save/load round trip")
