"""On-disk formats: IF cubes, heatmaps, encoder weights, databases, text inputs.

All binary formats are little-endian with a four-byte magic; text formats
are line-oriented with ``#`` comments.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .concat import PoseOffset
from .encoder import EncoderArch, EncoderWeights
from .errors import ConfigError, DimensionError, FormatError
from .heatmap import Heatmap
from .placedb import PlaceDB
from .radar import IFCube, PlatformConfig, RadarConfig, Scatterer
from .synth import WorldConfig

IFC_MAGIC = b"IFC1"
RAH_MAGIC = b"RAH1"
MMW_MAGIC = b"MMW1"
MPDB_MAGIC = b"MPDB"


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _expect_payload(fh, n: int, path) -> None:
    """Require the header's declared ``n`` payload bytes to be all that is left.

    Runs before the payload is read, so absurd header sizes never reach an allocation.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != n:
        problem = "truncated" if left < n else "trailing bytes after"
        raise FormatError(f"{path}: {problem} payload: header declares {n} bytes, {left} remain")


@contextmanager
def _decoding(path):
    """Report decoded content that fails its type's own checks as a malformed file."""
    try:
        yield
    except (ConfigError, DimensionError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: invalid content: {exc}") from None


# -- IF cubes -----------------------------------------------------------------

def save_cube(path, cube: IFCube) -> None:
    with open(path, "wb") as fh:
        fh.write(IFC_MAGIC)
        fh.write(struct.pack("<III", *cube.dims))
        fh.write(cube.data.astype("<c8").tobytes())  # interleaved float32 re, im


def load_cube(path) -> IFCube:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != IFC_MAGIC:
            raise FormatError(f"{path}: not an IF cube file")
        n_s, n_c, n_r = struct.unpack("<III", _read_exact(fh, 12, "dims"))
        _expect_payload(fh, n_s * n_c * n_r * 2 * 4, path)
        raw = np.frombuffer(fh.read(), dtype="<c8")
    with _decoding(path):
        return IFCube(raw.reshape(n_s, n_c, n_r))


# -- heatmaps -----------------------------------------------------------------

def save_heatmap(path, h: Heatmap) -> None:
    with open(path, "wb") as fh:
        fh.write(RAH_MAGIC)
        fh.write(struct.pack("<II", h.n_rows, h.n_cols))
        fh.write(struct.pack("<d", h.range_bin_m))
        fh.write(h.angle_axis.astype("<f8").tobytes())
        fh.write(h.values.astype("<f4").tobytes())


def load_heatmap(path) -> Heatmap:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != RAH_MAGIC:
            raise FormatError(f"{path}: not a heatmap file")
        rows, cols = struct.unpack("<II", _read_exact(fh, 8, "dims"))
        (range_bin_m,) = struct.unpack("<d", _read_exact(fh, 8, "range_bin_m"))
        _expect_payload(fh, cols * 8 + rows * cols * 4, path)
        axis = np.frombuffer(fh.read(cols * 8), dtype="<f8")
        vals = np.frombuffer(fh.read(), dtype="<f4")
    with _decoding(path):
        return Heatmap(vals.astype(np.float64).reshape(rows, cols), range_bin_m, axis.copy())


# -- encoder weights ----------------------------------------------------------

def save_weights(path, w: EncoderWeights) -> None:
    arch = w.arch
    payload = bytearray()
    payload += struct.pack("<II", *arch.input_shape)
    payload += struct.pack("<I", len(arch.channels))
    payload += struct.pack(f"<{len(arch.channels)}I", *arch.channels)
    for pool in arch.pools:
        ph, pw = pool if pool is not None else (0, 0)
        payload += struct.pack("<II", ph, pw)
    payload += struct.pack("<Q", w.seed)
    for k, b in zip(w.kernels, w.biases):
        payload += k.astype("<f4").tobytes()
        payload += b.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(MMW_MAGIC)
        fh.write(bytes(payload))
        fh.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def load_weights(path) -> EncoderWeights:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MMW_MAGIC:
            raise FormatError(f"{path}: not a weights file")
        payload = fh.read()
    if len(payload) < 4:
        raise FormatError(f"{path}: missing checksum trailer")
    payload, (crc,) = payload[:-4], struct.unpack("<I", payload[-4:])
    if zlib.crc32(payload) != crc:
        raise FormatError(f"{path}: checksum mismatch")
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, payload, off)
        off += size
        return vals

    with _decoding(path):
        rows, cols = take("<II")
        (n_ch,) = take("<I")
        channels = take(f"<{n_ch}I")
        pools = []
        for _ in range(n_ch - 1):
            ph, pw = take("<II")
            pools.append((ph, pw) if ph else None)
        (seed,) = take("<Q")
        arch = EncoderArch((rows, cols), tuple(channels), tuple(pools))
        kernels, biases = [], []
        for l in range(arch.n_layers):
            c_in, c_out = channels[l], channels[l + 1]
            n_k = c_out * c_in * 9
            kernels.append(
                np.frombuffer(payload, dtype="<f4", count=n_k, offset=off)
                .astype(np.float64)
                .reshape(c_out, c_in, 3, 3)
            )
            off += n_k * 4
            biases.append(
                np.frombuffer(payload, dtype="<f4", count=c_out, offset=off).astype(np.float64)
            )
            off += c_out * 4
        if off != len(payload):
            raise FormatError(f"{path}: trailing bytes in weights payload")
        if not all(np.isfinite(a).all() for a in kernels + biases):
            raise FormatError(f"{path}: non-finite encoder weight")
        return EncoderWeights(arch, kernels, biases, seed)


# -- place databases ----------------------------------------------------------

_MPDB_BLOCK = 1024  # records decoded per read by load_db


def _mpdb_record(dim: int) -> np.dtype:
    """One packed MPDB record: id, x, y, heading (NaN for none), descriptor."""
    return np.dtype([("id", "<u8"), ("x", "<f8"), ("y", "<f8"), ("heading", "<f8"),
                     ("descriptor", "<f4", (dim,))])


def save_db(path, db: PlaceDB) -> None:
    recs, dim = db.records, db.dim or 0
    table = np.empty(len(recs), _mpdb_record(dim))
    # packing the ids with struct keeps its error for an id that does not fit <Q
    table["id"] = np.frombuffer(struct.pack(f"<{len(recs)}Q", *[r.id for r in recs]), "<u8")
    table["x"] = [r.position[0] for r in recs]
    table["y"] = [r.position[1] for r in recs]
    table["heading"] = [math.nan if r.heading is None else r.heading for r in recs]
    table["descriptor"] = [r.descriptor for r in recs]
    with open(path, "wb") as fh:
        fh.write(MPDB_MAGIC)
        fh.write(struct.pack("<II", len(recs), dim))
        fh.write(table)  # the packed records as they are in memory, without a copy


def load_db(path) -> PlaceDB:
    """Read an MPDB file into a database whose records view its query store.

    Records are decoded in blocks of ``_MPDB_BLOCK`` and written into the
    arrays ``PlaceDB.query`` reads through the same path as added records.
    As for every stored record, each record's ``descriptor`` is a
    read-only view of its own store row, so the loaded database holds each
    descriptor once and its first query copies nothing.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MPDB_MAGIC:
            raise FormatError(f"{path}: not a place database file")
        count, dim = struct.unpack("<II", _read_exact(fh, 8, "header"))
        _expect_payload(fh, count * (32 + dim * 4), path)
        if not count:
            return PlaceDB()
        with _decoding(path):  # _from_columns rejects a non-finite descriptor
            return PlaceDB._from_columns(count, dim, _mpdb_blocks(fh, count, dim, path))


def _mpdb_blocks(fh, count: int, dim: int, path):
    """The ``count`` records of ``fh`` as ``PlaceDB._from_columns`` column blocks.

    Each block is read into one reused buffer.  A non-finite coordinate
    or an infinite heading is a malformed file; ``_from_columns`` rejects
    a non-finite descriptor as it computes the row's squared norm.
    """
    buf = np.empty(min(count, _MPDB_BLOCK), _mpdb_record(dim))
    for start in range(0, count, len(buf)):
        block = buf[:count - start]
        if fh.readinto(block) != block.nbytes:
            raise FormatError(f"{path}: truncated payload")
        # a NaN heading stands for none
        if not (np.isfinite(block["x"]).all() and np.isfinite(block["y"]).all()
                and not np.isinf(block["heading"]).any()):
            raise FormatError(f"{path}: non-finite value in a record")
        yield (block["id"], block["descriptor"], np.column_stack((block["x"], block["y"])),
               [None if math.isnan(h) else h for h in block["heading"].tolist()])


# -- text inputs --------------------------------------------------------------

def load_scene(path) -> list[Scatterer]:
    """Plain text scene: one ``range_m azimuth_deg amplitude`` per line."""
    scene = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                rng, az_deg, amp = (float(p) for p in parts)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, (rng, az_deg, amp))):
                raise FormatError(f"{path}:{lineno}: non-finite value in {line!r}")
            scene.append(Scatterer(rng, np.radians(az_deg), amp))
    return scene


def save_scene(path, scene: list[Scatterer]) -> None:
    with open(path, "w") as fh:
        fh.write("# range_m azimuth_deg amplitude\n")
        for sc in scene:
            fh.write(f"{sc.range:.6f} {np.degrees(sc.azimuth):.6f} {sc.amplitude:.6f}\n")


def load_keyvals(path) -> dict[str, float]:
    """Key-value config file: ``key = value`` lines, ``#`` comments, finite numbers.

    Non-numeric text is a malformed file; ``nan`` or ``inf`` is a bad setting.
    """
    out: dict[str, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise FormatError(f"{path}:{lineno}: expected 'key value'")
                key, val = parts
            try:
                value = float(val.strip())
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric value {val.strip()!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{path}:{lineno}: non-finite value {val.strip()!r}")
            out[key.strip()] = value
    return out


_RADAR_KEYS = {
    "slope", "wavelength", "antenna_spacing", "sample_rate",
    "n_samples", "n_chirps", "n_antennas", "fov_deg", "gain_taper_exp",
}
_PLATFORM_KEYS = {"angular_speed", "frame_rate", "sweep_extent", "jitter_std"}
_WORLD_KEYS = {
    "n_places", "spacing_m", "scatterers_per_place", "noise_std",
    "heatmap_rows", "heatmap_cols", "mosaic_cols",
}
CONFIG_KEYS = _RADAR_KEYS | _PLATFORM_KEYS | _WORLD_KEYS


def _config_from(cls, keys, keyvals, **fixed):
    """``cls`` from the ``keys`` that ``keyvals`` sets plus ``fixed``; ``int`` fields truncate."""
    ints = {f.name for f in fields(cls) if f.type in ("int", int)}
    kwargs = {k: int(keyvals[k]) if k in ints else keyvals[k] for k in keys & keyvals.keys()}
    return cls(**kwargs, **fixed)


def radar_config_from(keyvals: dict[str, float]) -> RadarConfig:
    return _config_from(RadarConfig, _RADAR_KEYS, keyvals)


def platform_config_from(keyvals: dict[str, float]) -> PlatformConfig:
    return _config_from(PlatformConfig, _PLATFORM_KEYS, keyvals)


def world_config_from(keyvals: dict[str, float], seed: int) -> WorldConfig:
    return _config_from(WorldConfig, _WORLD_KEYS, keyvals, seed=seed)


def save_offsets_csv(path, offsets: list[PoseOffset]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_idx", "r_offset", "a_offset", "score"])
        for i, o in enumerate(offsets):
            writer.writerow([i, o.r_offset, o.a_offset, f"{o.score:.9f}"])


def load_offsets_csv(path) -> list[PoseOffset]:
    offsets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            offsets.append(
                PoseOffset(int(row["r_offset"]), int(row["a_offset"]), float(row["score"]))
            )
    return offsets


def load_poses_csv(path) -> list[dict]:
    """Poses: ``frame_idx,x_m,y_m,heading_deg`` rows of finite numbers."""
    columns = ("frame_idx", "x_m", "y_m", "heading_deg")
    poses = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise FormatError(f"{path}: poses CSV needs columns {sorted(columns)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            missing = [c for c in columns if row[c] is None]
            if missing:
                raise FormatError(f"{where}: missing field {missing[0]}")
            try:
                frame_idx = int(row["frame_idx"])
                x, y, heading = (float(row[c]) for c in columns[1:])
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, (x, y, heading))):
                raise FormatError(f"{where}: non-finite value")
            poses.append({"frame_idx": frame_idx, "x_m": x, "y_m": y, "heading_deg": heading})
    return poses


def save_poses_csv(path, poses: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_idx", "x_m", "y_m", "heading_deg"])
        for p in poses:
            writer.writerow(
                [p["frame_idx"], f"{p['x_m']:.6f}", f"{p['y_m']:.6f}", f"{p['heading_deg']:.6f}"]
            )


# -- rendering ----------------------------------------------------------------

def render_pgm(path, h: Heatmap, log_scale: bool = False) -> None:
    """8-bit grayscale PGM, min-max normalized; optional log compression."""
    vals = h.values
    if log_scale:
        vals = np.log1p(vals)
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        img = np.round((vals - lo) / (hi - lo) * 255).astype(np.uint8)
    else:
        img = np.zeros_like(vals, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{h.n_cols} {h.n_rows}\n255\n".encode())
        fh.write(img.tobytes())
