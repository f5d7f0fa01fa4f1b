"""Op accounting, phase timing and the closed-loop query stream."""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from radarplace import fileio, placedb

from checks import check_same_results

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
MIN_QUERIES = 100     # ten samples beyond p90
SETUP_REPS = 3        # set-ups per untraced run; setup_s is their median
PERSIST_REPS = 7      # save/load pairs per run, at least ...
PERSIST_MIN_S = 1.5   # ... and, untraced, until this much time is measured
ROUND_TRIP_PROBES = 8


class Bench:
    """Op accounting, phase timing and the closed-loop query stream."""

    def __init__(self, seed: int, seconds: float, tracer):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}
        self.latency = {False: [], True: []}  # traced? -> seconds per query

    # -- inputs -----------------------------------------------------------
    def rng(self, *tags: int):
        return np.random.default_rng([self.seed, *tags])

    def seed_int(self, *tags: int) -> int:
        return int(self.rng(*tags).integers(2**31))

    # -- ops --------------------------------------------------------------
    def op(self, label, run, finish=None, ops: int = 1):
        """Time ``run()``; then ``finish(out)`` checks it, untimed.

        Returns (out, seconds), or (None, None) if either raised.  Every
        exception is an op failure: the run goes on and reports it.
        """
        self.attempted += ops
        if self.tracer:
            self.tracer.op = label
        try:
            t0 = perf_counter()
            out = run()
            dt = perf_counter() - t0
            if finish is not None:
                finish(out)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failed += ops
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        return out, dt

    def require(self, out, what: str):
        if out is None:
            sys.exit(f"benchmark cannot continue: {what} failed: {self.failures[-1]}")
        return out

    def repeat(self, n: int) -> int:
        """A traced run does every repeated phase once."""
        return 1 if self.tracer else n

    # -- phases -----------------------------------------------------------
    def setup(self, fn, import_s: float):
        """Run the set-up ``fn`` several times; setup_s is imports + median."""
        times = []
        for _ in range(self.repeat(SETUP_REPS)):
            if self.tracer:
                self.tracer.op = "setup"
            t0 = perf_counter()
            out = fn()
            times.append(perf_counter() - t0)
        self.values["setup_s"] = import_s + statistics.median(times)
        return out

    def persist(self, db, oracle, tag: str):
        """Timed save/load of the map, then a bit-identical round-trip check.

        Returns the loaded database, which the query stream then uses.
        """
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{tag}-{self.seed}-{os.getpid()}.mpdb"
        save_t, load_t, loaded = [], [], None
        try:
            while len(save_t) < PERSIST_REPS or (
                    not self.tracer and sum(save_t) + sum(load_t) < PERSIST_MIN_S):
                _, save = self.op("save", lambda: fileio.save_db(path, db))
                loaded, load = self.op("load", lambda: fileio.load_db(path))
                if save is None or load is None:
                    sys.exit(f"benchmark cannot continue: {self.failures[-1]}")
                save_t.append(save)
                load_t.append(load)
        finally:
            path.unlink(missing_ok=True)
        self.values["db_save_s"] = statistics.median(save_t)
        self.values["db_load_s"] = statistics.median(load_t)

        rng = self.rng(99)
        picks = rng.choice(len(db), size=min(ROUND_TRIP_PROBES, len(db)), replace=False)
        for i in picks:
            rec = db.records[int(i)]
            q = rec.descriptor + 0.05 * rng.standard_normal(rec.descriptor.size)
            pos = rec.position

            def both(q=q, pos=pos):
                return db.query(q, 10, pos), loaded.query(q, 10, pos)

            def finish(out, q=q, pos=pos):
                check_same_results(*out)
                oracle.check(out[1], q, 10, pos)

            self.op(f"round trip {int(i)}", both, finish)
        return loaded

    def stream(self, n_acc: int, make_op) -> list:
        """Closed loop, one client: query j+1 is issued when j has returned.

        Untraced, it runs for ``seconds`` and at least max(n_acc,
        MIN_QUERIES) queries.  Traced, it runs exactly n_acc queries, with
        tracing switched on for every other one, so the per-layer totals
        cover a fixed amount of work and the untraced half gives the
        overhead baseline.  Returns the first n_acc query results.
        """
        results = []
        if self.tracer:
            self.tracer.uninstall()
        t_end = perf_counter() + self.seconds
        j = 0
        while True:
            if self.tracer:
                if j >= n_acc:
                    break
                traced = j % 2 == 1
                if traced:
                    self.tracer.install()
            else:
                traced = False
                if j >= max(n_acc, MIN_QUERIES) and perf_counter() >= t_end:
                    break
            run, finish = make_op(j)
            out, dt = self.op(f"query {j}", run, finish)
            if traced:
                self.tracer.uninstall()
            if dt is not None:
                self.latency[traced].append(dt)
                if j < n_acc:
                    results.append(out[-1])
            j += 1
        if self.tracer:
            self.tracer.install()
        return results

    def accuracy(self, results: list) -> None:
        """recall@1/5 and maxF1 over the queries that have a true match."""
        kept = [r for r in results if r.has_match]
        self.values["no_match_dropped"] = len(results) - len(kept)
        self.values["recall_at_1"] = placedb.recall_at_n(kept, 1)
        self.values["recall_at_5"] = placedb.recall_at_n(kept, 5)
        self.values["max_f1"] = placedb.max_f1(kept)[0]
