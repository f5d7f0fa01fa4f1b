"""Binary and text format round-trip and corruption tests."""

import struct

import numpy as np
import pytest

from radarplace.concat import PoseOffset
from radarplace.encoder import EncoderArch, init_weights
from radarplace.errors import FormatError
from radarplace.fileio import (
    load_cube,
    load_db,
    load_heatmap,
    load_keyvals,
    load_offsets_csv,
    load_poses_csv,
    load_scene,
    load_weights,
    platform_config_from,
    radar_config_from,
    render_pgm,
    save_cube,
    save_db,
    save_heatmap,
    save_offsets_csv,
    save_poses_csv,
    save_scene,
    save_weights,
)
from radarplace.heatmap import Heatmap
from radarplace.placedb import PlaceDB, PlaceRecord
from radarplace.radar import IFCube, RadarConfig, Scatterer, simulate_if_cube

from conftest import random_heatmap_values


def test_cube_round_trip(tmp_path, small_cfg):
    cube = simulate_if_cube([Scatterer(12.0, 0.2)], small_cfg, noise_std=0.1, seed=3)
    p = tmp_path / "cube.ifc"
    save_cube(p, cube)
    back = load_cube(p)
    assert back.dims == cube.dims
    # storage is float32; round trip is exact at that precision
    assert np.allclose(back.data, cube.data, atol=1e-5)
    save_cube(p, back)
    assert load_cube(p).data.tobytes() == back.data.tobytes()


def test_cube_truncation_and_magic(tmp_path, small_cfg):
    cube = simulate_if_cube([], small_cfg)
    p = tmp_path / "cube.ifc"
    save_cube(p, cube)
    raw = p.read_bytes()
    (tmp_path / "short.ifc").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_cube(tmp_path / "short.ifc")
    (tmp_path / "bad.ifc").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_cube(tmp_path / "bad.ifc")


def test_cube_header_sizes_checked_before_reading(tmp_path, small_cfg):
    p = tmp_path / "cube.ifc"
    save_cube(p, simulate_if_cube([], small_cfg))
    raw = p.read_bytes()
    huge = tmp_path / "huge.ifc"
    huge.write_bytes(b"IFC1" + struct.pack("<III", 2**31 - 1, 2**31 - 1, 2**31 - 1) + raw[16:])
    with pytest.raises(FormatError, match="truncated"):
        load_cube(huge)
    (tmp_path / "long.ifc").write_bytes(raw + bytes(8))
    with pytest.raises(FormatError, match="trailing"):
        load_cube(tmp_path / "long.ifc")


def test_heatmap_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = random_heatmap_values(rng, 12, 20).astype(np.float32).astype(np.float64)
    h = Heatmap(vals, 0.195, np.linspace(-1.0, 1.0, 20))
    p = tmp_path / "map.rah"
    save_heatmap(p, h)
    back = load_heatmap(p)
    assert np.array_equal(back.values, h.values)
    assert back.range_bin_m == h.range_bin_m
    assert np.array_equal(back.angle_axis, h.angle_axis)


def test_heatmap_bad_magic(tmp_path):
    p = tmp_path / "x.rah"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(FormatError):
        load_heatmap(p)


def test_heatmap_size_must_match_header(tmp_path):
    h = Heatmap(np.ones((4, 6)), 0.5, np.linspace(-1.0, 1.0, 6))
    p = tmp_path / "map.rah"
    save_heatmap(p, h)
    raw = p.read_bytes()
    (tmp_path / "long.rah").write_bytes(raw + bytes(8))
    with pytest.raises(FormatError, match="trailing"):
        load_heatmap(tmp_path / "long.rah")
    (tmp_path / "short.rah").write_bytes(raw[:-1])
    with pytest.raises(FormatError, match="truncated"):
        load_heatmap(tmp_path / "short.rah")
    (tmp_path / "huge.rah").write_bytes(b"RAH1" + struct.pack("<II", 2**32 - 1, 2**32 - 1) + raw[12:])
    with pytest.raises(FormatError, match="truncated"):
        load_heatmap(tmp_path / "huge.rah")


def test_weights_round_trip_and_crc(tmp_path):
    arch = EncoderArch(input_shape=(16, 24), channels=(1, 4, 6), pools=((2, 2), None))
    w = init_weights(arch, seed=11)
    p = tmp_path / "enc.mmw"
    save_weights(p, w)
    back = load_weights(p)
    assert back.arch == arch
    assert back.seed == 11
    # float32 storage: saving the loaded weights reproduces the file exactly
    p2 = tmp_path / "enc2.mmw"
    save_weights(p2, back)
    assert p.read_bytes() == p2.read_bytes()
    assert load_weights(p2).checksum() == back.checksum()

    raw = bytearray(p.read_bytes())
    raw[30] ^= 0xFF  # flip a payload byte; the crc trailer must catch it
    (tmp_path / "corrupt.mmw").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_weights(tmp_path / "corrupt.mmw")
    (tmp_path / "tiny.mmw").write_bytes(b"MMW1\x00\x00")
    with pytest.raises(FormatError):
        load_weights(tmp_path / "tiny.mmw")


def test_db_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    db = PlaceDB()
    db.add(PlaceRecord(5, rng.standard_normal(8), (1.0, 2.0), heading=30.0, source="a"))
    db.add(PlaceRecord(9, rng.standard_normal(8), (-3.0, 4.5)))  # heading None
    p = tmp_path / "places.mpdb"
    save_db(p, db)
    back = load_db(p)
    assert len(back) == 2
    r5, r9 = back.get(5), back.get(9)
    assert r5.position == (1.0, 2.0) and r5.heading == 30.0
    assert r9.heading is None
    assert np.array_equal(r5.descriptor, db.get(5).descriptor)
    # query results survive the round trip bit for bit
    q = rng.standard_normal(8)
    assert back.query(q, 2).ids == db.query(q, 2).ids
    assert back.query(q, 2).distances == db.query(q, 2).distances
    (tmp_path / "bad.mpdb").write_bytes(b"ZZZZ")
    with pytest.raises(FormatError):
        load_db(tmp_path / "bad.mpdb")


def test_db_size_must_match_header(tmp_path):
    db = PlaceDB()
    db.add(PlaceRecord(1, np.arange(4.0), (1.0, 2.0)))
    db.add(PlaceRecord(2, np.ones(4), (3.0, 4.0), heading=10.0))
    p = tmp_path / "places.mpdb"
    save_db(p, db)
    raw = p.read_bytes()
    (tmp_path / "long.mpdb").write_bytes(raw + bytes(3))
    with pytest.raises(FormatError, match="trailing"):
        load_db(tmp_path / "long.mpdb")
    (tmp_path / "short.mpdb").write_bytes(raw[:-4])
    with pytest.raises(FormatError, match="truncated"):
        load_db(tmp_path / "short.mpdb")
    (tmp_path / "huge.mpdb").write_bytes(b"MPDB" + struct.pack("<II", 2**32 - 1, 2**20) + raw[12:])
    with pytest.raises(FormatError, match="truncated"):
        load_db(tmp_path / "huge.mpdb")


def test_empty_db_round_trip(tmp_path):
    p = tmp_path / "empty.mpdb"
    save_db(p, PlaceDB())
    assert len(load_db(p)) == 0


def test_scene_text_round_trip(tmp_path):
    scene = [Scatterer(10.0, np.radians(25.0), 1.5), Scatterer(30.5, np.radians(-40.0))]
    p = tmp_path / "scene.txt"
    save_scene(p, scene)
    back = load_scene(p)
    assert len(back) == 2
    assert back[0].range == pytest.approx(10.0)
    assert back[0].azimuth == pytest.approx(np.radians(25.0))
    assert back[0].amplitude == pytest.approx(1.5)


def test_scene_text_parsing(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text("# comment\n\n10.0 25.0 1.0  # trailing comment\n")
    assert len(load_scene(p)) == 1
    p.write_text("10.0 25.0\n")
    with pytest.raises(FormatError):
        load_scene(p)
    p.write_text("10.0 abc 1.0\n")
    with pytest.raises(FormatError):
        load_scene(p)


def test_keyvals_and_configs(tmp_path):
    p = tmp_path / "radar.cfg"
    p.write_text(
        "# radar\nslope = 3.0e13\nn_samples = 128\nfov_deg 90\nangular_speed = 120\n"
    )
    kv = load_keyvals(p)
    assert kv["slope"] == 3.0e13 and kv["fov_deg"] == 90.0
    cfg = radar_config_from(kv)
    assert isinstance(cfg, RadarConfig)
    assert cfg.n_samples == 128 and isinstance(cfg.n_samples, int)
    assert cfg.slope == 3.0e13
    pcfg = platform_config_from(kv)
    assert pcfg.angular_speed == 120.0
    p.write_text("slope = fast\n")
    with pytest.raises(FormatError):
        load_keyvals(p)
    p.write_text("lonely\n")
    with pytest.raises(FormatError):
        load_keyvals(p)


def test_offsets_csv_round_trip(tmp_path):
    offsets = [PoseOffset(0, 0, 1.0), PoseOffset(-1, 12, 0.987654321)]
    p = tmp_path / "offsets.csv"
    save_offsets_csv(p, offsets)
    back = load_offsets_csv(p)
    assert [(o.r_offset, o.a_offset) for o in back] == [(0, 0), (-1, 12)]
    assert back[1].score == pytest.approx(0.987654321)


def test_poses_csv_round_trip(tmp_path):
    poses = [
        {"frame_idx": 0, "x_m": 1.5, "y_m": -2.0, "heading_deg": 15.0},
        {"frame_idx": 1, "x_m": 2.5, "y_m": -1.0, "heading_deg": 30.0},
    ]
    p = tmp_path / "poses.csv"
    save_poses_csv(p, poses)
    assert load_poses_csv(p) == poses
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    with pytest.raises(FormatError):
        load_poses_csv(tmp_path / "bad.csv")


def test_render_pgm(tmp_path):
    rng = np.random.default_rng(2)
    vals = random_heatmap_values(rng, 6, 9)
    h = Heatmap(vals, 1.0, np.linspace(-1, 1, 9))
    p = tmp_path / "map.pgm"
    render_pgm(p, h)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n9 6\n255\n")
    body = raw.split(b"255\n", 1)[1]
    assert len(body) == 54
    assert max(body) == 255 and min(body) == 0
    render_pgm(tmp_path / "log.pgm", h, log_scale=True)
    # a constant heatmap renders as all-black rather than dividing by zero
    flat = Heatmap(np.ones((3, 3)), 1.0, np.linspace(-1, 1, 3))
    render_pgm(tmp_path / "flat.pgm", flat)
    assert (tmp_path / "flat.pgm").read_bytes()[-9:] == bytes(9)
