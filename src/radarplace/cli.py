"""Command-line pipeline driver.

Subcommands cover the full flow: simulate -> heatmap -> concat -> train ->
build-db -> query -> eval -> render.  Every run is deterministic given its
inputs, config and seed.

Exit codes: 0 success, 1 usage or config error, 2 empty or degenerate input
or result, 3 data or format error (a missing file too), 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import concat as cc
from . import encoder as enc
from . import fileio, synth
from .errors import ConfigError, EmptyResultError, RadarPlaceError
from .heatmap import angle_axis_for, generate_heatmap, range_to_row, angle_to_col
from .placedb import PlaceDB, PlaceRecord
from .radar import PlatformConfig, RadarConfig, scene_at_heading, simulate_platform_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _parse_size(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ConfigError(f"--heatmap-size expects RxC, got {text!r}")


# every key a subcommand reads; one config file may serve several subcommands
_CONFIG_KEYS = fileio.CONFIG_KEYS | {"n_frames", "epochs", "queries_per_cell"}


def _load_configs(path):
    keyvals = fileio.load_keyvals(path) if path else {}
    unknown = sorted(keyvals.keys() - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    return (keyvals, fileio.config_from(RadarConfig, keyvals),
            fileio.config_from(PlatformConfig, keyvals))


def _files(path: Path, pattern: str) -> list[Path]:
    """The files of directory ``path`` that match ``pattern``, sorted; else ``path`` itself."""
    return sorted(path.glob(pattern)) if path.is_dir() else [path]


# -- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> int:
    keyvals, rcfg, pcfg = _load_configs(args.config)
    n_frames = fileio.config_int(keyvals, "n_frames", 1) if args.frames is None else args.frames
    if n_frames < 1:
        raise ConfigError(f"the frame count must be >= 1, got {n_frames}")
    scene = fileio.load_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not scene:
        print("warning: empty scene, no cubes written", file=sys.stderr)
        return EXIT_EMPTY
    noise_std = float(keyvals.get("noise_std", 0.0))
    cubes = simulate_platform_sweep(scene, rcfg, pcfg, n_frames, noise_std, args.seed)
    poses = []
    for f, (cube, heading) in enumerate(cubes):
        fileio.save_cube(out / f"frame_{f:04d}.ifc", cube)
        poses.append({"frame_idx": f, "x_m": 0.0, "y_m": 0.0, "heading_deg": heading})
    fileio.save_poses_csv(out / "truth.csv", poses)
    cells = []
    for i, sc in enumerate(scene):
        # the reflector's cell in frame 0, empty when frame 0 cannot see it
        seen = scene_at_heading([sc], 0.0, rcfg.fov_deg)
        cell = ([range_to_row(sc.range, rcfg, rcfg.n_samples),
                 angle_to_col(seen[0].azimuth, rcfg, rcfg.n_antennas)] if seen else ["", ""])
        cells.append([i, f"{sc.range:.6f}", f"{np.degrees(sc.azimuth):.6f}", *cell])
    fileio.save_csv(out / "scatterer_cells.csv",
                    ("scatterer_idx", "range_m", "azimuth_deg", "row", "col"), cells)
    print(f"wrote {len(cubes)} cube(s) to {out}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    keyvals, rcfg, _ = _load_configs(args.config)
    size = _parse_size(args.heatmap_size) if args.heatmap_size else None
    if size is None and keyvals.keys() & {"heatmap_rows", "heatmap_cols"}:
        if not keyvals.keys() >= {"heatmap_rows", "heatmap_cols"}:
            raise ConfigError("heatmap_rows and heatmap_cols must be given together")
        size = (fileio.config_int(keyvals, "heatmap_rows"),
                fileio.config_int(keyvals, "heatmap_cols"))
    if size is not None and min(size) < 1:
        raise ConfigError(f"heatmap size must be >= 1, got {size[0]}x{size[1]}")
    files = _files(Path(args.input), "*.ifc")
    if not files:
        print("warning: no cube files found", file=sys.stderr)
        return EXIT_EMPTY
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for f in files:
        hm = generate_heatmap(fileio.load_cube(f), rcfg, size,
                              max_range_m=args.max_range, window=args.window)
        fileio.save_heatmap(out / (f.stem + ".rah"), hm)
    print(f"wrote {len(files)} heatmap(s) to {out}")
    return EXIT_OK


def cmd_concat(args) -> int:
    _, _, pcfg = _load_configs(args.config)
    files = _files(Path(args.input), "*.rah")
    if len(files) < 2:
        print("warning: need at least two heatmaps to concatenate", file=sys.stderr)
        return EXIT_EMPTY
    frames = [fileio.load_heatmap(f) for f in files]
    offsets, mosaics = cc.mosaic_cycles(frames, pcfg, args.mode, args.r_window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_offsets_csv(out / "offsets.csv", offsets)
    for s, mosaic in enumerate(mosaics):
        fileio.save_heatmap(out / f"mosaic_{s:02d}.rah", mosaic)
    print(f"wrote offsets and {len(mosaics)} mosaic(s) to {out}")
    return EXIT_OK


def _load_labeled_heatmaps(heatmap_dir, poses_path):
    poses = fileio.load_poses_csv(poses_path)
    files = _files(Path(heatmap_dir), "*.rah")
    if len(poses) != len(files):
        raise ConfigError(f"{len(files)} heatmaps but {len(poses)} pose rows")
    dataset = []
    for f, p in zip(files, poses):
        dataset.append((fileio.load_heatmap(f), (p["x_m"], p["y_m"]), p["heading_deg"]))
    return dataset


def cmd_train(args) -> int:
    labeled = _load_labeled_heatmaps(args.heatmaps, args.poses)
    dataset = [(hm, pos) for hm, pos, _ in labeled]
    cfg = enc.TrainConfig(seed=args.seed, max_epochs=args.epochs, margin=args.margin)
    result = enc.train(dataset, cfg)
    fileio.save_weights(args.out, result.weights)
    log_path = Path(args.out).with_suffix(".log.csv")
    fileio.save_csv(log_path, ("epoch", "mean_loss", "lr", "triplets_skipped"),
                    ([r["epoch"], f"{r['mean_loss']:.9f}", f"{r['lr']:.9f}", r["triplets_skipped"]]
                     for r in result.history))
    print(f"wrote weights to {args.out} (training log: {log_path})")
    return EXIT_OK


def cmd_build_db(args) -> int:
    weights = fileio.load_weights(args.weights)
    labeled = _load_labeled_heatmaps(args.heatmaps, args.poses)
    db = PlaceDB()
    for i, (hm, pos, heading) in enumerate(labeled):
        desc = enc.encode(hm, weights)
        db.add(PlaceRecord(i, desc.values, pos, heading, source=str(args.heatmaps)))
    fileio.save_db(args.out, db)
    print(f"wrote database with {len(db)} record(s) to {args.out}")
    return EXIT_OK


def cmd_query(args) -> int:
    weights = fileio.load_weights(args.weights)
    db = fileio.load_db(args.db)
    if not len(db):
        raise EmptyResultError(f"{args.db}: the database has no records to query")
    writer = csv.writer(sys.stdout)
    writer.writerow(["query", "rank", "id", "distance"])
    for f in args.inputs:
        hm = fileio.load_heatmap(f)
        desc = enc.encode(hm, weights)
        res = db.query(desc.values, k=args.k)
        for rank, (rid, dist) in enumerate(zip(res.ids, res.distances), 1):
            writer.writerow([Path(f).name, rank, rid, f"{dist:.9f}"])
    return EXIT_OK


def cmd_render(args) -> int:
    hm = fileio.load_heatmap(args.input)
    fileio.render_pgm(args.out, hm, log_scale=args.log)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    keyvals, rcfg, pcfg = _load_configs(args.config)
    wcfg = fileio.config_from(synth.WorldConfig, keyvals, seed=args.seed)
    # checked before rendering and training, which can take minutes or fail first
    if wcfg.heatmap_rows > rcfg.n_samples or wcfg.heatmap_cols < rcfg.n_antennas:
        raise ConfigError(
            f"a {wcfg.heatmap_rows}x{wcfg.heatmap_cols} heatmap needs heatmap_rows <= "
            f"n_samples ({rcfg.n_samples}) and heatmap_cols >= n_antennas ({rcfg.n_antennas})")
    # single frames are the encoder's input; mosaics are cut to mosaic_cols
    width = int(angle_axis_for(rcfg, wcfg.heatmap_cols)[1].sum())
    if args.concat == "none" and width < wcfg.heatmap_cols:
        raise ConfigError(
            f"heatmap_cols = {wcfg.heatmap_cols} keeps {width} of its angle bins at wavelength "
            f"{rcfg.wavelength:g} and antenna_spacing {rcfg.antenna_spacing:g}: a spacing "
            f"below half a wavelength drops the bins outside the visible region")
    # the default encoder's pools must divide the view; given weights bring their own
    keys = ("heatmap_rows", "heatmap_cols" if args.concat == "none" else "mosaic_cols")
    view = tuple(getattr(wcfg, key) for key in keys)
    try:
        arch = None if args.weights else enc.EncoderArch(input_shape=view)
    except ConfigError as exc:
        raise ConfigError(f"a {view[0]}x{view[1]} view ({keys[0]} x {keys[1]}) does not fit "
                          f"the default encoder: {exc}") from None
    queries_per_cell = fileio.config_int(keyvals, "queries_per_cell", 4)
    if queries_per_cell < 1:
        raise ConfigError(f"queries_per_cell must be >= 1, got {queries_per_cell}")
    world = synth.build_world(wcfg)
    # evaluate's query views stand up to the widest lateral bucket off a place
    lateral_m = synth.LATERAL_BUCKETS[-1][1]
    reach = lateral_m + max(np.hypot(*p.points[:, :2].T).max(initial=0.0) for p in world.places)
    if reach >= rcfg.max_range:
        raise ConfigError(
            f"a reflector can be {reach:.2f} m from the sensor (farthest reflector plus "
            f"{lateral_m:g} m lateral offset): unambiguous range is {rcfg.max_range:.2f} m")

    if args.weights:
        weights = fileio.load_weights(args.weights)
    else:
        # seeded apart from evaluate's reference and query views
        dataset = synth.training_dataset(world, rcfg, seed=args.seed + 50, pcfg=pcfg,
                                         mode=args.concat)
        tcfg = enc.TrainConfig(seed=args.seed, max_epochs=fileio.config_int(keyvals, "epochs", 8))
        weights = enc.train(dataset, tcfg, arch).weights

    report = synth.evaluate(
        world, rcfg, weights,
        queries_per_cell=queries_per_cell,
        seed=args.seed, concat_mode=args.concat, pcfg=pcfg,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    text = synth.format_report(report)
    (out / "report.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


_SHARED_FLAGS = {
    "--config": {"help": "key-value config file"},
    "--seed": {"type": int, "default": 0},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radarplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, shared=()):
        """A subparser for ``func`` with the shared flags it reads."""
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("simulate", cmd_simulate, "simulate IF cubes from a scene file",
                   ("--config", "--seed"))
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, help="override n_frames")

    p = subcommand("heatmap", cmd_heatmap, "convert IF cubes to heatmaps",
                   ("--config",))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap-size",
                   help="RxC size: first R fast-time samples, C angle bins")
    p.add_argument("--max-range", type=float, default=None)
    p.add_argument("--window", choices=["rect", "hann"], default="rect")

    p = subcommand("concat", cmd_concat, "estimate offsets and mosaic cycles", ("--config",))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["fixed", "relpose"], default="relpose")
    p.add_argument("--r-window", type=int, default=0,
                   help="range rows to search each way; default 0 (angle only): a "
                        "platform turning about the sensor keeps every range")

    p = subcommand("train", cmd_train, "train the spatial encoder", ("--seed",))
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--margin", type=float, default=0.5)

    p = subcommand("build-db", cmd_build_db, "encode heatmaps into a place database")
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)

    p = subcommand("query", cmd_query, "retrieve nearest places for heatmaps")
    p.add_argument("--db", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("inputs", nargs="+")

    p = subcommand("render", cmd_render, "write a heatmap as an 8-bit PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", action="store_true", help="log-compress magnitudes")

    p = subcommand("eval", cmd_eval, "end-to-end synthetic retrieval evaluation",
                   ("--config", "--seed"))
    p.add_argument("--out", required=True)
    p.add_argument("--concat", choices=["none", "fixed", "relpose"], default="none")
    p.add_argument("--weights", help="reuse trained weights instead of training")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size from a flag or config that cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyResultError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (RadarPlaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
