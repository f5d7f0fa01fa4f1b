"""radarplace benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload frame --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the library's public functions and reports per-layer
metrics instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("frame", "mosaic", "db"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc (or lower, if the caller already did)."""
    cap = NPROC
    for var in BLAS_ENV:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


# -- reporting ---------------------------------------------------------------

TABLE = [  # untraced rows: name, unit, note
    ("setup_s", "s", "imports + median of set-ups"),
    ("train_s", "s", "encoder.train wall time (frame only)"),
    ("map_records_per_s", "1/s", "records into the PlaceDB per second of mapping"),
    ("query_ms_p50", "ms", "closed-loop query latency, median"),
    ("query_ms_p90", "ms", "closed-loop query latency, 90th percentile"),
    ("db_save_s", "s", "fileio.save_db of the map, median"),
    ("db_load_s", "s", "fileio.load_db of the map, median"),
    ("recall_at_1", "fraction", "queries with a true match"),
    ("recall_at_5", "fraction", "queries with a true match"),
    ("max_f1", "fraction", "placedb.max_f1 over the same queries"),
    ("peak_rss_mb", "MB", "peak resident set size"),
    ("failed_frac", "fraction", "failed ops / attempted ops"),
]


def percentile_ms(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def src_lines() -> dict[str, int]:
    pkg = ROOT / "src" / "radarplace"
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def metadata(args, blas_cap: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in range(5):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, kind = _read(base + "level").strip(), _read(base + "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(base + "size").strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": blas_cap,
        "nproc": NPROC, "cpu": cpu, "cache": caches, "src_lines": src_lines(),
    }


def per_layer(bench, tracer) -> dict[str, float]:
    fns = tracer.per_function()
    out = {}
    for name, rec in fns.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.self_s"] = rec["self_s"]
    out["train_s"] = fns["encoder.train"]["total_s"]
    out["db_save_s"] = bench.values["db_save_s"]
    out["db_load_s"] = bench.values["db_load_s"]
    for key in ("radar.cube_mb", "heatmap.fft_mb", "concat.candidates",
                "concat.overlap_mcells", "encoder.conv_mflop", "placedb.scan_mb",
                "fileio.mpdb_mb"):
        out[key] = tracer.mean(key)  # per call
    out["concat.score_mean"] = tracer.mean("concat.score")
    out["concat.cycle_len_mean"] = tracer.mean("concat.cycle_len")
    for key in ("concat.alignment_errors", "encoder.encode.degenerate",
                "encoder.triplets_mined", "encoder.triplets_skipped"):
        out[key] = tracer.sums.get(key, 0.0)  # totals
    out["placedb.no_match_dropped"] = bench.values.get("no_match_dropped", 0)
    plain = statistics.median(bench.latency[False])
    out["trace.overhead_frac"] = (statistics.median(bench.latency[True]) - plain) / plain
    for module, n in src_lines().items():
        out[f"{module}.src_lines"] = n
    return out


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    blas_cap = cap_blas_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import json
    import resource

    import numpy  # noqa: F401 - part of the measured import time
    import radarplace

    if not Path(radarplace.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"radarplace imported from outside {ROOT / 'src'}")
    import workloads
    from harness import OUT_DIR, Bench
    from tracer import Tracer

    import_s = perf_counter() - t_start
    tracer = Tracer() if args.trace else None
    bench = Bench(args.seed, args.seconds, tracer)
    if tracer:
        tracer.install()
    getattr(workloads, args.workload)(bench, import_s)
    if tracer:
        tracer.uninstall()

    v = bench.values
    v["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    v["failed_frac"] = bench.failed / bench.attempted
    lat = bench.latency[False]
    v["query_ms_p50"] = statistics.median(lat) * 1e3
    v["query_ms_p90"] = percentile_ms(lat, 90)
    meta = metadata(args, blas_cap)
    meta["query_samples"] = len(lat)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer:
        layer = per_layer(bench, tracer)  # a deleted module has no src_lines
        rows = [(m["name"], layer.get(m["name"], 0), m["unit"], "") for m in spec["per_layer"]]
        metrics = {n: {"value": val, "unit": u} for n, val, u, _ in rows}
    else:
        metrics = {m["name"]: {"value": v[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        rows = [(n, v[n], u, note) for n, u, note in TABLE if n in v]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    report = {"metadata": meta, "attempted": bench.attempted, "failed": bench.failed,
              "failures": bench.failures, "values": v,
              "latency_ms": {str(k): [x * 1e3 for x in lat] for k, lat in bench.latency.items()},
              "metrics": {n: {"value": val, "unit": u} for n, val, u, _ in rows}}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer:
        tracer.dump(OUT_DIR / f"{tag}.spans.jsonl")

    print("# " + json.dumps(meta, default=str))
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    for name, val, unit, note in rows:
        print(f"{name:<36} {val:>14.6g} {unit:<16} {note}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
