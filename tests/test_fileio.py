"""Binary and text format round-trip and corruption tests."""

import struct
import zlib

import numpy as np
import pytest

from radarplace import fileio
from radarplace.concat import PoseOffset
from radarplace.encoder import EncoderArch, init_weights
from radarplace.errors import ConfigError, FormatError
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
    again = load_weights(p2)
    for got, want in zip(again.kernels + again.biases, back.kernels + back.biases, strict=True):
        assert np.array_equal(got, want)

    raw = bytearray(p.read_bytes())
    raw[30] ^= 0xFF  # flip a payload byte; the crc trailer must catch it
    (tmp_path / "corrupt.mmw").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_weights(tmp_path / "corrupt.mmw")
    (tmp_path / "tiny.mmw").write_bytes(b"MMW1\x00\x00")
    with pytest.raises(FormatError):
        load_weights(tmp_path / "tiny.mmw")


def _rah_bytes(values, axis, range_bin_m=0.5):
    rows, cols = values.shape
    return (b"RAH1" + struct.pack("<IId", rows, cols, range_bin_m)
            + np.asarray(axis, "<f8").tobytes() + np.asarray(values, "<f4").tobytes())


def _signed_mmw(payload):
    return b"MMW1" + payload + struct.pack("<I", zlib.crc32(payload))


def test_invalid_heatmap_content_is_a_format_error(tmp_path):
    axis = np.linspace(-1.0, 1.0, 3)
    p = tmp_path / "map.rah"
    p.write_bytes(_rah_bytes(np.ones((2, 3)), axis))
    assert load_heatmap(p).values.shape == (2, 3)
    for values, ax in [
        (np.array([[1.0, np.nan, 1.0], [1.0, 1.0, 1.0]]), axis),
        (np.array([[1.0, 1.0, 1.0], [1.0, -2.0, 1.0]]), axis),
        (np.ones((2, 3)), np.array([-1.0, 0.5, 0.5])),
        (np.ones((0, 3)), axis),  # a zero-size map loaded as a valid Heatmap
        (np.ones((2, 0)), axis[:0]),
    ]:
        p.write_bytes(_rah_bytes(values, ax))
        with pytest.raises(FormatError, match="invalid content"):
            load_heatmap(p)


def test_invalid_cube_content_is_a_format_error(tmp_path):
    p = tmp_path / "cube.ifc"
    inter = np.zeros((4, 2, 3, 2), dtype="<f4")
    inter[1, 0, 2, 1] = np.nan
    p.write_bytes(b"IFC1" + struct.pack("<III", 4, 2, 3) + inter.tobytes())
    with pytest.raises(FormatError, match="invalid content"):
        load_cube(p)


def test_writers_refuse_a_value_float32_cannot_hold(tmp_path):
    # the file was written, and its own loader then refused it
    writes = [(save_cube, "cube.ifc", IFCube(np.full((2, 1, 2), 1e39 + 0j)), "IF cube"),
              (save_heatmap, "map.rah", Heatmap(np.full((2, 2), 1e39), 1.0, np.arange(2.0)),
               "heatmap")]
    for save, name, item, kind in writes:
        path = tmp_path / name
        with pytest.raises(ConfigError, match=f"{name}: {kind} holds a value beyond the float32"):
            save(path, item)
        assert not path.exists()


def test_signed_weights_with_invalid_header_are_format_errors(tmp_path):
    arch = EncoderArch(input_shape=(16, 24), channels=(1, 4, 6), pools=((2, 2), None))
    p = tmp_path / "enc.mmw"
    save_weights(p, init_weights(arch, seed=1))
    payload = p.read_bytes()[4:-4]
    # a channel count of 2**31 declares more widths than the payload holds
    p.write_bytes(_signed_mmw(payload[:8] + struct.pack("<I", 2**31) + payload[12:]))
    with pytest.raises(FormatError, match="invalid content"):
        load_weights(p)
    # rows, cols, n_ch, three widths, then the first pool: (2, 2) -> (5, 2)
    pool_at = 12 + 3 * 4
    bad_pool = payload[:pool_at] + struct.pack("<I", 5) + payload[pool_at + 4 :]
    p.write_bytes(_signed_mmw(bad_pool))
    with pytest.raises(FormatError, match="does not divide"):
        load_weights(p)
    zero_pool = payload[:pool_at + 4] + struct.pack("<I", 0) + payload[pool_at + 8 :]
    p.write_bytes(_signed_mmw(zero_pool))
    with pytest.raises(FormatError, match="invalid content"):
        load_weights(p)


def test_db_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    db = PlaceDB()
    db.add(PlaceRecord(5, rng.standard_normal(8), (1.0, 2.0), heading=30.0, source="a"))
    db.add(PlaceRecord(9, rng.standard_normal(8), (-3.0, 4.5)))  # heading None
    p = tmp_path / "places.mpdb"
    save_db(p, db)
    back = load_db(p)
    assert len(back) == 2
    r5, r9 = back.records
    assert (r5.id, r9.id) == (5, 9)
    assert r5.position == (1.0, 2.0) and r5.heading == 30.0
    assert r9.heading is None
    assert np.array_equal(r5.descriptor, db.records[0].descriptor)
    # query results survive the round trip bit for bit
    q = rng.standard_normal(8)
    assert back.query(q, 2).ids == db.query(q, 2).ids
    assert back.query(q, 2).distances == db.query(q, 2).distances
    (tmp_path / "bad.mpdb").write_bytes(b"ZZZZ")
    with pytest.raises(FormatError):
        load_db(tmp_path / "bad.mpdb")

    # records are decoded in blocks: counts just below, at and past a block edge,
    # with an id beyond int64 in the last block
    monkeypatch.setattr(fileio, "_MPDB_BLOCK", 3)
    for count in (2, 3, 4, 6, 7):
        db = PlaceDB()
        for rid in [*range(count - 1), 2**64 - 1]:
            db.add(PlaceRecord(rid, rng.standard_normal(8), (float(rid), -1.0),
                               heading=None if rid % 2 else 5.0))
        save_db(p, db)
        back = load_db(p)
        for a, b in zip(back.records, db.records, strict=True):
            assert (a.id, a.position, a.heading) == (b.id, b.position, b.heading)
            assert a.descriptor.tobytes() == b.descriptor.tobytes()
        q = rng.standard_normal(8)
        want, got = db.query(q, count, (2.0, -1.0)), back.query(q, count, (2.0, -1.0))
        assert (got.ids, got.distances, got.flags) == (want.ids, want.distances, want.flags)
        # a file that shrinks after its header is checked fails in its last block
        with monkeypatch.context() as m:
            m.setattr(fileio, "_expect_payload", lambda fh, n, path: None)
            (tmp_path / "short.mpdb").write_bytes(p.read_bytes()[:-1])
            with pytest.raises(FormatError, match="truncated payload"):
                load_db(tmp_path / "short.mpdb")


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


def test_non_finite_weights_are_a_format_error(tmp_path):
    arch = EncoderArch(input_shape=(16, 24), channels=(1, 4, 6), pools=((2, 2), None))
    p = tmp_path / "enc.mmw"
    for layer, part, bad in ((1, "kernels", np.nan), (0, "biases", np.inf)):
        w = init_weights(arch, seed=1)
        getattr(w, part)[layer].flat[2] = bad
        save_weights(p, w)  # the checksum is valid
        with pytest.raises(FormatError, match="non-finite encoder weight"):
            load_weights(p)


@pytest.mark.parametrize("bad", ["descriptor", "position", "heading"])
def test_db_non_finite_value_is_a_format_error(tmp_path, monkeypatch, bad):
    p = tmp_path / "places.mpdb"
    # with the default block, then with the bad record last in a block of two:
    # at the first block's edge, alone past it, at the second's edge, in the third
    for block, count in ((fileio._MPDB_BLOCK, 2), (2, 2), (2, 3), (2, 4), (2, 5)):
        monkeypatch.setattr(fileio, "_MPDB_BLOCK", block)
        table = np.zeros(count, fileio._mpdb_record(4))
        table["id"] = np.arange(1, count + 1)
        table["descriptor"] = 1.0
        table["heading"] = np.nan  # none
        table["x"][-1], table["heading"][-1] = 1.0, 10.0
        column, value = {"descriptor": ("descriptor", np.nan), "position": ("x", np.inf),
                         "heading": ("heading", -np.inf)}[bad]
        table[column][-1] = value
        p.write_bytes(fileio.MPDB_MAGIC + fileio._MPDB_HEADER.pack(count, 4) + table.tobytes())
        with pytest.raises(FormatError, match="non-finite value"):
            load_db(p)
        # the writer refuses that database before it opens its file
        db = PlaceDB()
        for rid, x, y, heading, desc in table.tolist():
            db.add(PlaceRecord(rid, np.array(desc), (x, y), None if np.isnan(heading) else heading))
        refused = tmp_path / "refused.mpdb"
        with pytest.raises(ConfigError, match=f"record id {count}: non-finite"):
            save_db(refused, db)
        assert not refused.exists()


@pytest.mark.parametrize("bad_id", [-1, 2**64, 1.5])
def test_db_save_rejects_ids_outside_u64(tmp_path, bad_id):
    # MPDB stores ids as <Q; an id it cannot hold is a struct.error, as from struct.pack
    db = PlaceDB()
    db.add(PlaceRecord(0, np.ones(3), (0.0, 0.0)))
    db.add(PlaceRecord(bad_id, np.ones(3), (1.0, 0.0)))
    with pytest.raises(struct.error):
        save_db(tmp_path / "bad_id.mpdb", db)


def test_db_ids_up_to_u64_max_round_trip(tmp_path):
    db = PlaceDB()
    for rid in (2**64 - 1, 0, 2**63):
        db.add(PlaceRecord(rid, np.full(3, float(rid % 7)), (0.0, 0.0)))
    save_db(tmp_path / "big_ids.mpdb", db)
    back = load_db(tmp_path / "big_ids.mpdb")
    assert [r.id for r in back.records] == [2**64 - 1, 0, 2**63]
    assert all(type(r.id) is int for r in back.records)


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


def test_keyvals_reject_non_finite_values(tmp_path):
    p = tmp_path / "bad.cfg"
    for text in ("nan", "inf", "-inf", "1e400"):
        p.write_text(f"n_samples = 64\nangular_speed = {text}\n")
        with pytest.raises(ConfigError, match="bad.cfg:2: non-finite"):
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


def test_poses_csv_refuses_a_field_past_the_header(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("frame_idx,x_m,y_m,heading_deg\n0,1,2,3,99\n")
    with pytest.raises(FormatError, match="poses.csv:2: more fields"):
        load_poses_csv(p)


@pytest.mark.parametrize("row, problem", [
    ("0,1", "missing field a_offset"),
    ("0,abc,0,1.0", "invalid literal for int"),
    ("0,1,2,nan", "non-finite value"),
])
def test_offsets_csv_malformed_row_is_a_format_error(tmp_path, row, problem):
    p = tmp_path / "offsets.csv"
    p.write_text(f"frame_idx,r_offset,a_offset,score\n0,0,0,1.0\n{row}\n")
    with pytest.raises(FormatError, match=f"offsets.csv:3: {problem}"):
        load_offsets_csv(p)


@pytest.mark.parametrize("header", [
    "frame_idx,r_offset,a_offset,score,note",  # an extra column was dropped without a word
    "frame_idx,r_offset,a_offset,score,score",
    "frame_idx,r_offset,a_offset",
])
def test_offsets_csv_header_must_name_exactly_its_columns(tmp_path, header):
    p = tmp_path / "offsets.csv"
    p.write_text(header + "\n" + ",".join("0" * len(header.split(","))) + "\n")
    with pytest.raises(FormatError, match="offsets.csv: CSV needs exactly the columns"):
        load_offsets_csv(p)


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
