"""Spans and counters recorded from outside the program.

The tracer replaces public functions of ``radarplace`` at the places where
callers look them up (module attributes, names bound by ``from ... import``
in ``synth``, and ``PlaceDB`` methods), so calls made inside the library
are traced too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import numpy as np

from radarplace import concat, encoder, fileio, heatmap, placedb, radar, synth
from radarplace.errors import AlignmentError


def _cube_mb(tr, out, args, kwargs):
    tr.add("radar.cube_mb", out.data.nbytes / 1e6)


def _fft_mb(tr, out, args, kwargs):
    tr.add("heatmap.fft_mb", args[0].data.nbytes / 1e6)


def _registration(tr, out, args, kwargs):
    h_prev, _, r_win, a_win = args[:4]
    min_overlap = kwargs.get("min_overlap", args[4] if len(args) > 4 else
                             concat.DEFAULT_MIN_OVERLAP)
    rows, cols = h_prev.values.shape
    r = np.arange(-r_win, r_win + 1)
    a = np.arange(-a_win, a_win + 1)
    cells = np.outer(np.maximum(rows - np.abs(r), 0), np.maximum(cols - np.abs(a), 0))
    scored = cells[cells >= min_overlap * rows * cols]
    tr.add("concat.candidates", r.size * a.size)
    tr.add("concat.overlap_mcells", scored.sum() / 1e6)
    tr.add("concat.score", out.score)


def _cycles(tr, out, args, kwargs):
    for seg in out:
        tr.add("concat.cycle_len", len(seg))


def _encode(tr, out, args, kwargs):
    tr.add("encoder.encode.degenerate", float(out.degenerate))
    tr.add("encoder.conv_mflop", conv_mflop(args[1].arch))


def _mined(tr, out, args, kwargs):
    batches, skipped = out
    tr.add("encoder.triplets_mined", len(batches))
    tr.add("encoder.triplets_skipped", skipped)


def _scan_mb(tr, out, args, kwargs):
    db = args[0]
    tr.add("placedb.scan_mb", len(db) * db.dim * 4 / 1e6)


def _mpdb_mb(tr, out, args, kwargs):
    tr.add("fileio.mpdb_mb", os.path.getsize(args[0]) / 1e6)


# (span name, owner looked up by callers, attribute, hook on the return value)
TARGETS = [
    ("radar.simulate_if_cube", radar, "simulate_if_cube", _cube_mb),
    ("radar.simulate_if_cube", synth, "simulate_if_cube", _cube_mb),
    ("heatmap.resize_cube", heatmap, "resize_cube", None),
    ("heatmap.resize_cube", synth, "resize_cube", None),
    ("heatmap.generate_heatmap", heatmap, "generate_heatmap", _fft_mb),
    ("heatmap.generate_heatmap", synth, "generate_heatmap", _fft_mb),
    ("concat.estimate_offset", concat, "estimate_offset", _registration),
    ("concat.detect_cycles", concat, "detect_cycles", _cycles),
    ("concat.concat_relative_pose", concat, "concat_relative_pose", None),
    ("encoder.encode", encoder, "encode", _encode),
    ("encoder.train", encoder, "train", None),
    ("encoder.backward", encoder, "backward", None),
    ("encoder.mine_triplets", encoder, "mine_triplets", _mined),
    ("placedb.query", placedb.PlaceDB, "query", _scan_mb),
    ("placedb.add", placedb.PlaceDB, "add", None),
    ("placedb.recall_at_n", placedb, "recall_at_n", None),
    ("placedb.max_f1", placedb, "max_f1", None),
    ("fileio.save_db", fileio, "save_db", _mpdb_mb),
    ("fileio.load_db", fileio, "load_db", None),
    ("synth.render_view", synth, "render_view", None),
    ("synth.render_sweep", synth, "render_sweep", None),
    ("synth.mosaic_view", synth, "mosaic_view", None),
    ("synth.standardize_mosaic", synth, "standardize_mosaic", None),
]


def conv_mflop(arch) -> float:
    """Multiply-adds (x2) of the padded 3x3 conv stack for one input, MFLOP."""
    h, w = arch.input_shape
    flop = 0
    for l, pool in enumerate(arch.pools):
        flop += 2 * 9 * h * w * arch.channels[l] * arch.channels[l + 1]
        if pool is not None:
            h, w = h // pool[0], w // pool[1]
    return flop / 1e6


class Tracer:
    """Span recorder; ``install``/``uninstall`` switch the wrappers."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.op = None
        self._saved: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value
        self.counts[key] = self.counts.get(key, 0) + 1

    def mean(self, key: str) -> float:
        return self.sums.get(key, 0.0) / self.counts[key] if key in self.counts else 0.0

    def _wrap(self, name, fn, hook):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.spans)
            span = [name, perf_counter(), None, tr.stack[-1] if tr.stack else None, tr.op]
            tr.spans.append(span)
            tr.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except AlignmentError:
                if name == "synth.mosaic_view":
                    tr.add("concat.alignment_errors", 1.0)
                raise
            finally:
                span[2] = perf_counter()
                tr.stack.pop()
            if hook is not None:
                hook(tr, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a removed function reports 0 calls."""
        for name, owner, attr, hook in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def per_function(self) -> dict[str, dict[str, float]]:
        """Calls and self time (span minus its child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name, *_ in TARGETS}
        for (name, start, end, _, _), kids in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - kids
            rec["total_s"] += end - start
        return out

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

