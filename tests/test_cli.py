"""End-to-end CLI pipeline tests driven through main()."""

import csv
import hashlib
import math
import re
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from radarplace import fileio, synth
from radarplace.cli import _CONFIG_KEYS, main
from radarplace.concat import detect_cycles
from radarplace.encoder import EncoderArch, TrainResult, init_weights
from radarplace.fileio import (
    load_heatmap,
    load_offsets_csv,
    load_poses_csv,
    save_heatmap,
    save_poses_csv,
    save_scene,
    save_weights,
)
from radarplace.heatmap import Heatmap, generate_heatmap
from radarplace.placedb import PlaceDB
from radarplace.radar import PlatformConfig, RadarConfig, Scatterer


def _hash_dir(path, pattern):
    h = hashlib.sha256()
    for f in sorted(path.glob(pattern)):
        h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture
def scene_file(tmp_path):
    scene = [
        Scatterer(float(10 + 3 * i), math.radians(az), 1.0 + 0.1 * i)
        for i, az in enumerate(range(-40, 81, 20))
    ]
    p = tmp_path / "scene.txt"
    save_scene(p, scene)
    return p


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "radar.cfg"
    p.write_text("n_samples = 64\nn_chirps = 4\nn_antennas = 8\nnoise_std = 0.02\n")
    return p


def test_simulate_empty_scene_exits_2(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    rc = main(["simulate", "--scene", str(empty), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_usage_error_exits_1(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == 1  # missing --scene
    assert main(["heatmap", "--in", "x", "--out", "y", "--window", "nope"]) == 1


def test_bad_magic_exits_3(tmp_path):
    bad = tmp_path / "bad.rah"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["render", "--in", str(bad), "--out", str(tmp_path / "x.pgm")])
    assert rc == 3


def test_missing_or_unreadable_input_exits_3(tmp_path):
    assert main(["render", "--in", str(tmp_path / "nope.rah"),
                 "--out", str(tmp_path / "x.pgm")]) == 3
    assert main(["query", "--db", str(tmp_path / "nope.mpdb"),
                 "--weights", str(tmp_path / "nope.mmw"), str(tmp_path / "q.rah")]) == 3
    assert main(["simulate", "--scene", str(tmp_path), "--out", str(tmp_path / "o")]) == 3


def test_wrongly_sized_binary_exits_3(tmp_path):
    huge = tmp_path / "huge.ifc"
    huge.write_bytes(b"IFC1" + struct.pack("<III", 2**31 - 1, 2**31 - 1, 2**31 - 1))
    assert main(["heatmap", "--in", str(huge), "--out", str(tmp_path / "maps")]) == 3
    long = tmp_path / "long.rah"
    save_heatmap(long, Heatmap(np.ones((2, 3)), 1.0, np.linspace(-1.0, 1.0, 3)))
    long.write_bytes(long.read_bytes() + bytes(8))
    assert main(["render", "--in", str(long), "--out", str(tmp_path / "x.pgm")]) == 3


def test_invalid_binary_content_exits_3(tmp_path, capsys):
    nan_map = tmp_path / "nan.rah"
    save_heatmap(nan_map, Heatmap(np.ones((2, 3)), 1.0, np.linspace(-1.0, 1.0, 3)))
    raw = bytearray(nan_map.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    nan_map.write_bytes(bytes(raw))
    assert main(["render", "--in", str(nan_map), "--out", str(tmp_path / "x.pgm")]) == 3
    # crc-valid weights whose header declares 2**31 channel widths
    payload = struct.pack("<III", 16, 24, 2**31)
    weights = tmp_path / "huge.mmw"
    weights.write_bytes(b"MMW1" + payload + struct.pack("<I", zlib.crc32(payload)))
    capsys.readouterr()
    assert main(["query", "--db", str(tmp_path / "none.mpdb"), "--weights", str(weights),
                 str(nan_map)]) == 3
    assert "huge.mmw: invalid content" in capsys.readouterr().err


@pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
def test_a_zero_size_heatmap_file_exits_3(tmp_path, capsys, rows, cols):
    # such a file loaded as a valid heatmap, and render and concat then exited 4
    maps = tmp_path / "maps"
    maps.mkdir()
    for name in ("a.rah", "b.rah"):
        (maps / name).write_bytes(b"RAH1" + struct.pack("<2Id", rows, cols, 1.0)
                                  + np.arange(cols, dtype="<f8").tobytes())
    assert main(["render", "--in", str(maps / "a.rah"), "--out", str(tmp_path / "x.pgm")]) == 3
    assert main(["concat", "--in", str(maps), "--out", str(tmp_path / "mosaics")]) == 3
    assert capsys.readouterr().err.count("heatmap needs a row and a column") == 2


@pytest.mark.parametrize("scene_line, cfg_line", [("10.0 0.0 1e300", ""),
                                                  ("10.0 0.0 1.0", "noise_std = 1e300")])
def test_simulate_refuses_a_sample_float32_cannot_hold(tmp_path, capsys, scene_line, cfg_line):
    # the cubes it wrote made heatmap exit 3
    scene, cfg = tmp_path / "scene.txt", tmp_path / "radar.cfg"
    scene.write_text(f"{scene_line}\n")
    cfg.write_text(f"n_chirps = 4\n{cfg_line}\n")
    out = tmp_path / "cubes"
    assert main(["simulate", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert ("frame_0000.ifc: IF cube holds a value beyond the float32 range"
            in capsys.readouterr().err)
    assert not list(out.glob("*.ifc"))


def test_a_size_that_cannot_be_allocated_exits_1(tmp_path, scene_file, capsys):
    # each asks for more than 2**47 bytes, so it fails at once; both exited 4
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n_samples = 1e13\n")
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(tmp_path / "cubes")]) == 1
    assert "error: out of memory" in capsys.readouterr().err
    cfg.write_text("n_places = 2\nheatmap_cols = 1e15\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "report")]) == 1
    assert "error: out of memory" in capsys.readouterr().err


def test_heatmap_rows_without_cols_exits_1(tmp_path, cfg_file):
    cfg = tmp_path / "rows_only.cfg"
    cfg.write_text(cfg_file.read_text() + "heatmap_rows = 32\n")
    assert main(["heatmap", "--in", str(tmp_path), "--config", str(cfg),
                 "--out", str(tmp_path / "maps")]) == 1


def test_heatmap_size_exit_codes(tmp_path, scene_file):
    cubes = tmp_path / "cubes"  # 256 samples, 8 antennas
    assert main(["simulate", "--scene", str(scene_file), "--out", str(cubes)]) == 0

    def heatmap(*extra):
        return main(["heatmap", "--in", str(cubes), "--out", str(tmp_path / "maps"), *extra])

    # a size below 1 is a usage error
    for size in ("0x8", "-5x8", "64x0"):
        assert heatmap(f"--heatmap-size={size}") == 1
    cfg = tmp_path / "zero_rows.cfg"
    cfg.write_text("heatmap_rows = 0\nheatmap_cols = 8\n")
    assert heatmap("--config", str(cfg)) == 1
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "eval")]) == 1
    # a size the cube cannot supply is a data error
    for size in ("512x8", "64x4"):
        assert heatmap(f"--heatmap-size={size}") == 3
    assert heatmap("--heatmap-size=256x8") == 0


def test_simulate_writes_frames_and_truth(tmp_path, scene_file, cfg_file):
    out = tmp_path / "cubes"
    rc = main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(out), "--frames", "6", "--seed", "3",
    ])
    assert rc == 0
    assert len(list(out.glob("frame_*.ifc"))) == 6
    poses = load_poses_csv(out / "truth.csv")
    assert [p["frame_idx"] for p in poses] == list(range(6))
    assert poses[1]["heading_deg"] == pytest.approx(15.0)
    assert (out / "scatterer_cells.csv").exists()


def test_simulate_same_seed_is_bitwise_reproducible(tmp_path, scene_file, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
            "--out", str(out), "--frames", "4", "--seed", "7",
        ]) == 0
    assert _hash_dir(a, "*.ifc") == _hash_dir(b, "*.ifc")
    c = tmp_path / "c"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(c), "--frames", "4", "--seed", "8",
    ]) == 0
    assert _hash_dir(a, "*.ifc") != _hash_dir(c, "*.ifc")


def test_simulate_frame_0_does_not_depend_on_the_frame_count(tmp_path, scene_file, cfg_file):
    # the scene's reflector at 80 deg lies outside the 120 deg field of view
    frame_0 = []
    for n in ("1", "3"):
        out = tmp_path / f"cubes_{n}"
        assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg_file),
                     "--out", str(out), "--frames", n, "--seed", "4"]) == 0
        frame_0.append((out / "frame_0000.ifc").read_bytes())
    assert frame_0[0] == frame_0[1]


def test_simulate_one_frame_clips_a_reflector_behind_the_sensor(tmp_path, cfg_file):
    scene = tmp_path / "scene.txt"
    save_scene(scene, [Scatterer(12.0, math.radians(100.0)), Scatterer(15.0, 0.2)])
    out = tmp_path / "cubes"
    assert main(["simulate", "--scene", str(scene), "--config", str(cfg_file),
                 "--out", str(out), "--frames", "1"]) == 0
    assert len(list(out.glob("*.ifc"))) == 1


def test_pipeline_heatmap_concat_render(tmp_path, scene_file, cfg_file):
    cubes = tmp_path / "cubes"
    maps = tmp_path / "maps"
    mosaics = tmp_path / "mosaics"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--frames", "8", "--seed", "1",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file),
        "--out", str(maps), "--heatmap-size", "64x96",
    ]) == 0
    assert len(list(maps.glob("*.rah"))) == 8
    hm = load_heatmap(sorted(maps.glob("*.rah"))[0])
    assert hm.values.shape == (64, 96)
    assert main([
        "concat", "--in", str(maps), "--out", str(mosaics), "--r-window", "2",
    ]) == 0
    offsets = load_offsets_csv(mosaics / "offsets.csv")
    assert len(offsets) == 8
    assert any(o.a_offset for o in offsets)
    assert list(mosaics.glob("mosaic_*.rah"))
    mosaic = load_heatmap(sorted(mosaics.glob("mosaic_*.rah"))[0])
    assert mosaic.n_cols > 96
    assert main([
        "render", "--in", str(sorted(mosaics.glob('mosaic_*.rah'))[0]),
        "--out", str(tmp_path / "m.pgm"), "--log",
    ]) == 0
    assert (tmp_path / "m.pgm").read_bytes().startswith(b"P5")


def test_concat_single_heatmap_exits_2(tmp_path, scene_file, cfg_file):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--seed", "1",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file), "--out", str(maps),
    ]) == 0
    assert main(["concat", "--in", str(maps), "--out", str(tmp_path / "mo")]) == 2


def test_train_without_triplets_exits_2(tmp_path, scene_file, cfg_file):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--frames", "2", "--seed", "1",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file),
        "--out", str(maps), "--heatmap-size", "64x32",
    ]) == 0
    # two frames 10 m apart: inside the negative radius, outside the positive
    save_poses_csv(maps / "poses.csv", [
        {"frame_idx": 0, "x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
        {"frame_idx": 1, "x_m": 10.0, "y_m": 0.0, "heading_deg": 15.0},
    ])
    rc = main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(tmp_path / "w.mmw"), "--epochs", "1",
    ])
    assert rc == 2


def test_train_on_mixed_heatmap_sizes_exits_3(tmp_path, capsys):
    maps = tmp_path / "maps"
    maps.mkdir()
    rng = np.random.default_rng(3)
    poses = []
    for f in range(31):
        cols = 40 if f == 30 else 32
        save_heatmap(maps / f"frame_{f:04d}.rah",
                     Heatmap(rng.random((64, cols)), 0.1, np.linspace(-1.0, 1.0, cols)))
        poses.append({"frame_idx": f, "x_m": 30.0 * (f // 6) + 0.2 * (f % 6), "y_m": 0.0,
                      "heading_deg": 0.0})
    save_poses_csv(tmp_path / "poses.csv", poses)
    capsys.readouterr()
    assert main(["train", "--heatmaps", str(maps), "--poses", str(tmp_path / "poses.csv"),
                 "--out", str(tmp_path / "w.mmw"), "--epochs", "1"]) == 3
    assert "(64, 40) does not match encoder input (64, 32)" in capsys.readouterr().err


def _clustered_maps(tmp_path, scene_file, cfg_file):
    """18 heatmaps in three clusters of six, with their poses.csv."""
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--frames", "18", "--seed", "2",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file),
        "--out", str(maps), "--heatmap-size", "64x32",
    ]) == 0
    # every query sees 5 positives within the 3 m radius and 12 negatives
    # beyond 18 m, enough for the miner
    poses = []
    for f in range(18):
        poses.append({
            "frame_idx": f,
            "x_m": 30.0 * (f // 6) + 0.2 * (f % 6),
            "y_m": 0.0,
            "heading_deg": 0.0,
        })
    save_poses_csv(maps / "poses.csv", poses)
    return maps


def test_train_build_db_query_flow(tmp_path, scene_file, cfg_file, capsys):
    maps = _clustered_maps(tmp_path, scene_file, cfg_file)
    weights = tmp_path / "enc.mmw"
    assert main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(weights), "--epochs", "2",
    ]) == 0
    assert weights.exists()
    with open(weights.with_suffix(".log.csv"), newline="") as fh:
        log = list(csv.reader(fh))
    assert log[0] == ["epoch", "mean_loss", "lr", "triplets_skipped"]
    assert [row[0] for row in log[1:]] == ["0", "1"]
    # every query of the clustered maps has a positive and 12 negatives
    assert [row[3] for row in log[1:]] == ["0", "0"]

    db = tmp_path / "places.mpdb"
    assert main([
        "build-db", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--weights", str(weights), "--out", str(db),
    ]) == 0

    probe = sorted(maps.glob("*.rah"))[0]
    capsys.readouterr()
    assert main([
        "query", "--db", str(db), "--weights", str(weights), "--k", "3", str(probe),
    ]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["query", "rank", "id", "distance"]
    assert len(rows) == 4
    # the probe is itself in the database, so rank 1 is an exact hit
    assert rows[1][2] == "0" and float(rows[1][3]) == 0.0


def test_query_against_an_empty_database_exits_2(tmp_path, capsys):
    weights, probe, db = tmp_path / "enc.mmw", tmp_path / "probe.rah", tmp_path / "empty.mpdb"
    save_weights(weights, init_weights(EncoderArch(input_shape=(64, 32)), 0))
    save_heatmap(probe, Heatmap(np.ones((64, 32)), 0.1, np.linspace(-1.0, 1.0, 32)))
    fileio.save_db(db, PlaceDB())
    capsys.readouterr()
    assert main(["query", "--db", str(db), "--weights", str(weights), str(probe)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("warning:") and "no records" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--margin", "nan", "margin"), ("--margin", "inf", "margin"), ("--margin", "-1", "margin"),
    ("--epochs", "0", "max_epochs"),
])
def test_train_bad_margin_or_epochs_exits_1(tmp_path, scene_file, cfg_file, capsys,
                                            flag, value, name):
    maps = _clustered_maps(tmp_path, scene_file, cfg_file)
    capsys.readouterr()
    weights = tmp_path / "enc.mmw"
    assert main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(weights), "--epochs", "1", flag, value,
    ]) == 1
    assert f"{name} must be" in capsys.readouterr().err
    assert not weights.exists()


def test_train_on_an_empty_dataset_exits_2(tmp_path, capsys):
    maps = tmp_path / "maps"
    maps.mkdir()
    save_poses_csv(maps / "poses.csv", [])
    assert main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(tmp_path / "w.mmw"),
    ]) == 2
    assert "no training samples" in capsys.readouterr().err


@pytest.mark.parametrize("row, problem", [
    ("1,abc,0,0", "could not convert string to float: 'abc'"),
    ("1,1", "missing field y_m"),
    ("1,nan,0,0", "non-finite value"),
])
def test_train_on_a_malformed_poses_row_exits_3(tmp_path, capsys, row, problem):
    # a non-numeric field or a short row was an internal error, and a NaN
    # coordinate was trained on and written into the database
    maps = tmp_path / "maps"
    maps.mkdir()
    for f in range(2):
        save_heatmap(maps / f"frame_{f:04d}.rah",
                     Heatmap(np.ones((64, 32)), 0.1, np.linspace(-1.0, 1.0, 32)))
    poses = maps / "poses.csv"
    poses.write_text(f"frame_idx,x_m,y_m,heading_deg\n0,0,0,0\n{row}\n")
    capsys.readouterr()
    assert main(["train", "--heatmaps", str(maps), "--poses", str(poses),
                 "--out", str(tmp_path / "w.mmw"), "--epochs", "1"]) == 3
    assert f"poses.csv:3: {problem}" in capsys.readouterr().err


def test_train_on_a_poses_header_with_an_extra_column_exits_3(tmp_path, capsys):
    # the z_m column was dropped without a word
    maps = tmp_path / "maps"
    maps.mkdir()
    for f in range(2):
        save_heatmap(maps / f"frame_{f:04d}.rah",
                     Heatmap(np.ones((64, 32)), 0.1, np.linspace(-1.0, 1.0, 32)))
    poses = maps / "poses.csv"
    poses.write_text("frame_idx,x_m,y_m,heading_deg,z_m\n0,0,0,0,99\n1,10,0,0,99\n")
    capsys.readouterr()
    assert main(["train", "--heatmaps", str(maps), "--poses", str(poses),
                 "--out", str(tmp_path / "w.mmw"), "--epochs", "1"]) == 3
    assert "poses.csv: CSV needs exactly the columns" in capsys.readouterr().err
    assert not (tmp_path / "w.mmw").exists()


def test_build_db_pose_count_mismatch_exits_1(tmp_path, scene_file, cfg_file):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--frames", "3", "--seed", "2",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file),
        "--out", str(maps), "--heatmap-size", "64x32",
    ]) == 0
    save_poses_csv(maps / "poses.csv", [
        {"frame_idx": 0, "x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
    ])
    rc = main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(tmp_path / "w.mmw"),
    ])
    assert rc == 1


def test_poses_out_of_frame_order_exit_1(tmp_path, capsys):
    # row i labels the i-th heatmap; these rows would label frame 1 with frame 2's pose
    maps = tmp_path / "maps"
    maps.mkdir()
    for f in range(3):
        save_heatmap(maps / f"frame_{f:04d}.rah",
                     Heatmap(np.full((64, 32), f + 1.0), 0.1, np.linspace(-1.0, 1.0, 32)))
    poses = maps / "poses.csv"
    poses.write_text("frame_idx,x_m,y_m,heading_deg\n0,0,0,0\n2,20,0,0\n1,10,0,0\n")
    weights = tmp_path / "w.mmw"
    save_weights(weights, init_weights(EncoderArch(input_shape=(64, 32)), 0))
    for command in (["train", "--epochs", "1"], ["build-db", "--weights", str(weights)]):
        capsys.readouterr()
        assert main([*command, "--heatmaps", str(maps), "--poses", str(poses),
                     "--out", str(tmp_path / "out")]) == 1
        assert "poses.csv:3: frame_idx 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_bad_eval_config_exits_1(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("scatterers_per_place = -1\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
    weights = tmp_path / "w.mmw"
    save_weights(weights, init_weights(EncoderArch(input_shape=(64, 192)), 0))
    cfg.write_text("n_places = 2\nqueries_per_cell = 0\n")
    assert main(["eval", "--config", str(cfg), "--weights", str(weights),
                 "--out", str(tmp_path / "b")]) == 1


def test_eval_concat_training_mosaics_follow_the_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("n_places = 6\nheatmap_cols = 32\nmosaic_cols = 64\n"
                   "epochs = 1\nqueries_per_cell = 1\n")
    trained_on = []

    def capture(dataset, tcfg):
        trained_on.extend(hm for hm, _ in dataset)
        return TrainResult(init_weights(EncoderArch(input_shape=(64, 64)), 0), [])

    monkeypatch.setattr("radarplace.encoder.train", capture)
    assert main(["eval", "--config", str(cfg), "--seed", "200", "--concat", "relpose",
                 "--out", str(tmp_path / "report")]) == 0
    assert len(trained_on) == 12
    world = synth.build_world(fileio.world_config_from(
        {"n_places": 6, "heatmap_cols": 32, "mosaic_cols": 64}, 200))
    pcfg = PlatformConfig()
    for i in range(6):
        # the reference-map view of place i that evaluate builds at this seed
        ref = synth._view(world, i, RadarConfig(), pcfg, "relpose", seed=200 + i)
        assert not any(np.array_equal(hm.values, ref.values) for hm in trained_on)


@pytest.mark.parametrize("line", ["heatmap_cols = 4", "heatmap_rows = 300"])
def test_eval_refuses_a_heatmap_size_the_radar_cannot_give(tmp_path, monkeypatch, capsys, line):
    # 4 columns < 8 antennas, 300 rows > 256 samples: exit 3 from the first render
    def no_work(*args, **kwargs):
        raise AssertionError("eval rendered or trained before rejecting its config")

    monkeypatch.setattr("radarplace.synth._render", no_work)
    monkeypatch.setattr("radarplace.encoder.train", no_work)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"n_places = 2\nepochs = 1\n{line}\n")
    for concat in ("none", "relpose"):
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--concat", concat,
                     "--out", str(tmp_path / "out")]) == 1
        assert "heatmap_rows <= n_samples (256)" in capsys.readouterr().err


def test_eval_checks_queries_per_cell_before_training(tmp_path, monkeypatch):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("n_places = 3\nqueries_per_cell = 0\nepochs = 1\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1

    def no_training(*args, **kwargs):
        raise AssertionError("eval trained before rejecting its config")

    monkeypatch.setattr("radarplace.encoder.train", no_training)
    cfg.write_text("n_places = 30\nspacing_m = 1\nqueries_per_cell = 0\nepochs = 1\n")
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1


def test_eval_refuses_a_radar_that_cannot_see_the_world(tmp_path, monkeypatch, capsys):
    # slope 40e12: unambiguous range 37.47 m, inside the 40 m reflector clouds
    def no_work(*args, **kwargs):
        raise AssertionError("eval rendered or trained before rejecting its config")

    cfg = tmp_path / "eval.cfg"
    cfg.write_text("slope = 40e12\nn_places = 2\nepochs = 1\n")
    with monkeypatch.context() as m:
        m.setattr("radarplace.synth._render", no_work)
        m.setattr("radarplace.encoder.train", no_work)
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "unambiguous range is 37.47 m" in capsys.readouterr().err
    # a scene file beyond that range is bad data, not bad config
    scene = tmp_path / "far.txt"
    save_scene(scene, [Scatterer(39.9, 0.0, 1.0)])
    assert main(["simulate", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(tmp_path / "cubes")]) == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
def test_heatmap_max_range_must_be_finite_and_positive(tmp_path, scene_file, cfg_file, value):
    cubes = tmp_path / "cubes"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg_file),
                 "--out", str(cubes)]) == 0
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg_file),
                 "--out", str(tmp_path / "maps"), f"--max-range={value}"]) == 1


@pytest.mark.parametrize("line", ["angular_speed = nan", "n_samples = inf"])
def test_non_finite_config_value_exits_1(tmp_path, scene_file, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_chirps = 4\n{line}\n")
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(tmp_path / "cubes"), "--frames", "3"]) == 1


@pytest.mark.parametrize("command, line", [
    ("simulate", "n_frames = 2.7"),
    ("simulate", "n_antennas = 2.5"),
    ("simulate", "n_frames = 1e30"),
    ("simulate", "n_samples = 1e30"),
    ("eval", "mosaic_cols = 1e30"),
])
def test_integer_config_value_outside_int64_or_fractional_exits_1(tmp_path, scene_file, capsys,
                                                                   command, line):
    # fractions were truncated, and values past int64 were internal errors
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_chirps = 4\n{line}\n")
    args = ["--scene", str(scene_file)] if command == "simulate" else ["--concat", "relpose"]
    assert main([command, *args, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    key = line.split(" = ")[0]
    assert f"{key} must be a whole number within int64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "concat"])
def test_non_finite_platform_step_exits_1(tmp_path, scene_file, cfg_file, capsys, command):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg_file),
                 "--out", str(cubes), "--frames", "3"]) == 0
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg_file),
                 "--out", str(maps)]) == 0
    # each value is finite, but 1e300 deg/s at 1e-300 Hz is an infinite step per frame
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg_file.read_text() + "angular_speed = 1e300\nframe_rate = 1e-300\n")
    inputs = {"simulate": ["--scene", str(scene_file), "--frames", "3"],
              "concat": ["--in", str(maps)]}[command]
    assert main([command, *inputs, "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "angular_speed / frame_rate must be finite" in capsys.readouterr().err


def test_scatterer_cells_are_frame_0_cells(tmp_path, cfg_file):
    scene = tmp_path / "scene.txt"
    save_scene(scene, [Scatterer(10.0, math.radians(20.0)),
                       Scatterer(10.0, math.radians(150.0))])
    out = tmp_path / "cubes"
    assert main(["simulate", "--scene", str(scene), "--config", str(cfg_file),
                 "--out", str(out), "--frames", "2"]) == 0
    with open(out / "scatterer_cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    rcfg = fileio.radar_config_from(fileio.load_keyvals(cfg_file))
    hm = generate_heatmap(fileio.load_cube(out / "frame_0000.ifc"), rcfg)
    assert hm.values.shape == (rcfg.n_samples, rcfg.n_antennas)
    peak = np.unravel_index(np.argmax(hm.values), hm.values.shape)
    assert (int(cells[0]["row"]), int(cells[0]["col"])) == peak
    # 150 deg lies outside frame 0's 120 deg field of view: no cell to name
    assert cells[1]["azimuth_deg"] == "150.000000"
    assert cells[1]["row"] == cells[1]["col"] == ""


def test_concat_fixed_default_step_is_the_nominal_step(tmp_path, scene_file, cfg_file):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg_file),
                 "--out", str(cubes), "--frames", "8", "--seed", "1"]) == 0
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg_file),
                 "--out", str(maps), "--heatmap-size", "64x32"]) == 0
    fast = tmp_path / "fast.cfg"
    fast.write_text("angular_speed = 300\n")
    # 15 deg (the default platform) and 30 deg steps at 2/32 rad per column
    for step, config in ((4, []), (8, ["--config", str(fast)])):
        out = tmp_path / f"mosaics_{step}"
        assert main(["concat", "--in", str(maps), "--out", str(out),
                     "--mode", "fixed", *config]) == 0
        segments = detect_cycles(load_offsets_csv(out / "offsets.csv"))
        for s, seg in enumerate(segments):
            mosaic = load_heatmap(out / f"mosaic_{s:02d}.rah")
            assert mosaic.n_cols == 32 + (len(seg) - 1) * step


def test_concat_default_window_follows_the_platform_step(tmp_path):
    # 30 deg per frame: a fixed 20 deg window would pin every offset at its edge
    rng = np.random.default_rng(5)
    scene = tmp_path / "scene.txt"
    save_scene(scene, [Scatterer(float(rng.uniform(8.0, 28.0)), math.radians(az))
                       for az in range(-60, 241, 15)])
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("n_samples = 64\nn_chirps = 4\nn_antennas = 8\nnoise_std = 0.02\n"
                   "angular_speed = 300\n")
    cubes, maps, out = tmp_path / "cubes", tmp_path / "maps", tmp_path / "mo"
    assert main(["simulate", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(cubes), "--frames", "8", "--seed", "1"]) == 0
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg),
                 "--out", str(maps), "--heatmap-size", "64x96"]) == 0
    assert main(["concat", "--in", str(maps), "--config", str(cfg),
                 "--out", str(out), "--r-window", "2"]) == 0
    offsets = load_offsets_csv(out / "offsets.csv")
    first = detect_cycles(offsets)[0]
    steps = [abs(o.a_offset) for o in offsets[first.start_idx + 1 : first.end_idx + 1]]
    truth = round(48 * math.sin(math.radians(30.0)))
    assert len(steps) == 6
    assert all(abs(step - truth) <= 1 for step in steps), steps


def test_concat_registers_a_static_sweep_by_angle_only(tmp_path, scene_file, cfg_file):
    # the platform turns about the sensor, so no frame's content moves in range;
    # a range search would invent shifts and split this one-way sweep into cycles
    cubes, maps, out = tmp_path / "cubes", tmp_path / "maps", tmp_path / "mo"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg_file),
                 "--out", str(cubes), "--frames", "8", "--seed", "1"]) == 0
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg_file),
                 "--out", str(maps), "--heatmap-size", "64x96"]) == 0
    assert main(["concat", "--in", str(maps), "--out", str(out)]) == 0
    offsets = load_offsets_csv(out / "offsets.csv")
    assert [o.r_offset for o in offsets] == [0] * 8
    assert len(list(out.glob("mosaic_*.rah"))) == 1


@pytest.mark.parametrize("line", ["10.0 nan 1.0", "10.0 0.0 inf"])
def test_simulate_non_finite_scene_value_exits_3(tmp_path, capsys, line):
    # a NaN azimuth used to drop the reflector silently, an infinite
    # amplitude to warn and then fail inside the signal model
    scene = tmp_path / "scene.txt"
    scene.write_text(f"12.0 5.0 1.0\n{line}\n")
    out = tmp_path / "cubes"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 3
    assert "scene.txt:2: non-finite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_simulate_frames_below_1_exit_1(tmp_path, scene_file, capsys, frames):
    # an explicit 0 must not silently become the config's frame count
    cfg = tmp_path / "three.cfg"
    cfg.write_text("n_chirps = 4\nn_frames = 3\n")
    out = tmp_path / "cubes"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(out), "--frames", frames]) == 1
    assert f"frame count must be >= 1, got {frames}" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("n_chirps = 4\nn_frames = 0\n")
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(out)]) == 1


def test_build_db_with_non_finite_weights_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(3)
    maps = tmp_path / "maps"
    maps.mkdir()
    for f in range(2):
        save_heatmap(maps / f"frame_{f:04d}.rah",
                     Heatmap(rng.random((64, 32)), 0.1, np.linspace(-1.0, 1.0, 32)))
    save_poses_csv(maps / "poses.csv", [
        {"frame_idx": f, "x_m": 10.0 * f, "y_m": 0.0, "heading_deg": 0.0} for f in range(2)
    ])
    weights = init_weights(EncoderArch(input_shape=(64, 32)), 0)
    weights.kernels[0][0, 0, 1, 1] = np.nan
    save_weights(tmp_path / "nan.mmw", weights)  # with a valid checksum
    db = tmp_path / "places.mpdb"
    capsys.readouterr()
    assert main(["build-db", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
                 "--weights", str(tmp_path / "nan.mmw"), "--out", str(db)]) == 3
    assert "non-finite encoder weight" in capsys.readouterr().err
    assert not db.exists()


def test_unknown_config_key_exits_1(tmp_path, scene_file, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n_chirps = 4\nslop = 1e12\n")
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(tmp_path / "cubes")]) == 1
    assert "unknown config key(s): slop" in capsys.readouterr().err


# README "Recognized keys", each at a value every subcommand accepts
_EVERY_CONFIG_KEY = {
    "slope": 3.0e13, "wavelength": 0.0039, "antenna_spacing": 0.00195, "sample_rate": 1e7,
    "n_samples": 64, "n_chirps": 4, "n_antennas": 8, "fov_deg": 120, "gain_taper_exp": 1,
    "angular_speed": 150, "frame_rate": 10, "sweep_extent": 180, "jitter_std": 0,
    "n_frames": 3, "noise_std": 0.02, "heatmap_rows": 64, "heatmap_cols": 32,
    "n_places": 8, "spacing_m": 20, "scatterers_per_place": 8, "mosaic_cols": 64,
    "epochs": 1, "queries_per_cell": 1,
}


def test_readme_lists_every_recognized_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("Recognized keys:", 1)[1].split("\n\n")[1]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(_CONFIG_KEYS)
    assert _EVERY_CONFIG_KEY.keys() == _CONFIG_KEYS


def test_one_config_with_every_recognized_key_serves_each_subcommand(tmp_path, scene_file):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in _EVERY_CONFIG_KEY.items()))
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main(["simulate", "--scene", str(scene_file), "--config", str(cfg),
                 "--out", str(cubes)]) == 0
    assert len(list(cubes.glob("*.ifc"))) == 3
    assert main(["heatmap", "--in", str(cubes), "--config", str(cfg), "--out", str(maps)]) == 0
    assert load_heatmap(sorted(maps.glob("*.rah"))[0]).values.shape == (64, 32)
    assert main(["concat", "--in", str(maps), "--config", str(cfg),
                 "--out", str(tmp_path / "mo")]) == 0
