"""End-to-end CLI pipeline tests driven through main()."""

import csv
import hashlib
import math
import struct

import numpy as np
import pytest

from radarplace.cli import main
from radarplace.fileio import (
    load_heatmap,
    load_offsets_csv,
    load_poses_csv,
    save_heatmap,
    save_poses_csv,
    save_scene,
)
from radarplace.heatmap import Heatmap
from radarplace.radar import Scatterer


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


def test_heatmap_rows_without_cols_exits_1(tmp_path, cfg_file):
    cfg = tmp_path / "rows_only.cfg"
    cfg.write_text(cfg_file.read_text() + "heatmap_rows = 32\n")
    assert main(["heatmap", "--in", str(tmp_path), "--config", str(cfg),
                 "--out", str(tmp_path / "maps")]) == 1


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


def test_train_build_db_query_flow(tmp_path, scene_file, cfg_file, capsys):
    cubes, maps = tmp_path / "cubes", tmp_path / "maps"
    assert main([
        "simulate", "--scene", str(scene_file), "--config", str(cfg_file),
        "--out", str(cubes), "--frames", "18", "--seed", "2",
    ]) == 0
    assert main([
        "heatmap", "--in", str(cubes), "--config", str(cfg_file),
        "--out", str(maps), "--heatmap-size", "64x32",
    ]) == 0
    # three clusters of six frames: every query sees 5 positives within the
    # 3 m radius and 12 negatives beyond 18 m, enough for the default miner
    poses = []
    for f in range(18):
        poses.append({
            "frame_idx": f,
            "x_m": 30.0 * (f // 6) + 0.2 * (f % 6),
            "y_m": 0.0,
            "heading_deg": 0.0,
        })
    save_poses_csv(maps / "poses.csv", poses)
    weights = tmp_path / "enc.mmw"
    assert main([
        "train", "--heatmaps", str(maps), "--poses", str(maps / "poses.csv"),
        "--out", str(weights), "--epochs", "1",
    ]) == 0
    assert weights.exists() and weights.with_suffix(".log.csv").exists()

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
