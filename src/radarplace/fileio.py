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
_IFC_HEADER = struct.Struct("<3I")  # samples, chirps, antennas
_RAH_HEADER = struct.Struct("<2Id")  # rows, cols, range bin size in m
_MPDB_HEADER = struct.Struct("<2I")  # record count, descriptor dim


def _read_header(fh, magic: bytes, header: struct.Struct, path, kind: str) -> tuple:
    """Check the four-byte ``magic``, then unpack the ``header`` that follows it."""
    if fh.read(4) != magic:
        raise FormatError(f"{path}: not {kind} file")
    buf = fh.read(header.size)
    if len(buf) != header.size:
        raise FormatError(f"{path}: truncated header")
    return header.unpack(buf)


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
    """Write an IFC1 file, or refuse, before opening it, a sample float32 cannot hold."""
    with np.errstate(over="ignore"):
        data = cube.data.astype("<c8")  # interleaved float32 re, im
    if not np.isfinite(data).all():  # IFCube holds finite values: this is overflow
        raise ConfigError(f"{path}: IF cube holds a value beyond the float32 range")
    with open(path, "wb") as fh:
        fh.write(IFC_MAGIC + _IFC_HEADER.pack(*cube.dims))
        fh.write(data)


def load_cube(path) -> IFCube:
    with open(path, "rb") as fh:
        n_s, n_c, n_r = _read_header(fh, IFC_MAGIC, _IFC_HEADER, path, "an IF cube")
        _expect_payload(fh, n_s * n_c * n_r * 2 * 4, path)
        raw = np.frombuffer(fh.read(), dtype="<c8")
    with _decoding(path):
        return IFCube(raw.reshape(n_s, n_c, n_r))


# -- heatmaps -----------------------------------------------------------------

def save_heatmap(path, h: Heatmap) -> None:
    """Write a RAH1 file, or refuse, before opening it, a value float32 cannot hold."""
    with np.errstate(over="ignore"):
        values = h.values.astype("<f4")
    if not np.isfinite(values).all():  # Heatmap holds finite values: this is overflow
        raise ConfigError(f"{path}: heatmap holds a value beyond the float32 range")
    with open(path, "wb") as fh:
        fh.write(RAH_MAGIC + _RAH_HEADER.pack(h.n_rows, h.n_cols, h.range_bin_m))
        fh.write(h.angle_axis.astype("<f8").tobytes())
        fh.write(values)


def load_heatmap(path) -> Heatmap:
    with open(path, "rb") as fh:
        rows, cols, range_bin_m = _read_header(fh, RAH_MAGIC, _RAH_HEADER, path, "a heatmap")
        _expect_payload(fh, cols * 8 + rows * cols * 4, path)
        axis = np.frombuffer(fh.read(cols * 8), dtype="<f8")
        vals = np.frombuffer(fh.read(), dtype="<f4")
    with _decoding(path):
        return Heatmap(vals.astype(np.float64).reshape(rows, cols), range_bin_m, axis.copy())


# -- encoder weights ----------------------------------------------------------

def _mmw_header(n_ch: int) -> struct.Struct:
    """The MMW1 header of an encoder with ``n_ch`` channel widths.

    It holds the input rows and cols, ``n_ch``, the widths, each layer's pool
    ((0, 0) for none) and the u64 seed.  One float32 block follows it, every
    kernel then its bias, layer by layer, and then a CRC-32 of header and block.
    """
    return struct.Struct(f"<3I{n_ch}I{2 * (n_ch - 1)}IQ")


def save_weights(path, w: EncoderWeights) -> None:
    """Write an MMW1 file, or refuse, before opening it, a weight float32 cannot hold."""
    arch = w.arch
    pools = [v for pool in arch.pools for v in ((0, 0) if pool is None else pool)]
    payload = _mmw_header(len(arch.channels)).pack(
        *arch.input_shape, len(arch.channels), *arch.channels, *pools, w.seed)
    with np.errstate(over="ignore"):
        block = [a.astype("<f4") for kb in zip(w.kernels, w.biases) for a in kb]
    if not all(np.isfinite(a).all() for a in block):  # NaN, infinite or beyond float32
        raise ConfigError(f"{path}: encoder weight is not a finite float32")
    payload += b"".join(a.tobytes() for a in block)
    with open(path, "wb") as fh:
        fh.write(MMW_MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))


def load_weights(path) -> EncoderWeights:
    """Read an MMW1 file; kernels and biases stay float32, so ``encode`` runs in float32."""
    with open(path, "rb") as fh:
        if fh.read(4) != MMW_MAGIC:
            raise FormatError(f"{path}: not a weights file")
        payload = fh.read()
    if len(payload) < 4:
        raise FormatError(f"{path}: missing checksum trailer")
    payload, (crc,) = payload[:-4], struct.unpack("<I", payload[-4:])
    if zlib.crc32(payload) != crc:
        raise FormatError(f"{path}: checksum mismatch")
    with _decoding(path):  # a header the payload cannot hold, or a partial float32
        header = _mmw_header(*struct.unpack_from("<I", payload, 8))  # n_ch is the third u32
        rows, cols, n_ch, *plan, seed = header.unpack_from(payload)
        pools = [(ph, pw) if ph else None for ph, pw in zip(plan[n_ch::2], plan[n_ch + 1::2])]
        arch = EncoderArch((rows, cols), tuple(plan[:n_ch]), tuple(pools))
        block = np.frombuffer(payload, dtype="<f4", offset=header.size)
    ch = arch.channels
    shapes = [s for c_in, c_out in zip(ch, ch[1:]) for s in ((c_out, c_in, 3, 3), (c_out,))]
    sizes = [math.prod(s) for s in shapes]
    if block.size != sum(sizes):
        raise FormatError(f"{path}: {block.size} weights, the header declares {sum(sizes)}")
    if not np.isfinite(block).all():
        raise FormatError(f"{path}: non-finite encoder weight")
    arrays = [a.astype(np.float32).reshape(s)
              for a, s in zip(np.split(block, np.cumsum(sizes)[:-1]), shapes)]
    return EncoderWeights(arch, arrays[0::2], arrays[1::2], seed)


# -- place databases ----------------------------------------------------------

_MPDB_BLOCK = 1024  # at most this many records decoded per read by load_db


def _mpdb_record(dim: int) -> np.dtype:
    """One packed MPDB record: id, x, y, heading (NaN for none), descriptor."""
    return np.dtype([("id", "<u8"), ("x", "<f8"), ("y", "<f8"), ("heading", "<f8"),
                     ("descriptor", "<f4", (dim,))])


def save_db(path, db: PlaceDB) -> None:
    """Write ``db`` as an MPDB file, or refuse a record that ``load_db`` would.

    The packed table is filled from the database's columns, and the values
    added since its last query are cast straight into it.  A non-finite
    descriptor value or coordinate, or an infinite heading, raises
    ConfigError naming the record before the file is opened.
    """
    n, stored, dim = len(db), db._n, db.dim or 0
    ids = [*db._ids[:stored].tolist(), *db._p_ids]
    table = np.empty(n, _mpdb_record(dim))
    # packing the ids with struct keeps its error for an id that does not fit <Q
    table["id"] = np.frombuffer(struct.pack(f"<{n}Q", *ids), "<u8")
    table["x"], table["y"] = np.concatenate((db._pos[:stored], np.reshape(db._p_xy, (-1, 2)))).T
    table["heading"] = db._heading  # numpy reads None as NaN
    desc = table["descriptor"]
    if stored:  # the store of an emptied database may have another dim
        desc[:stored] = db._desc[:stored]
    new = desc[stored:]
    if db._p_values:
        np.concatenate([v[None] for v in db._p_values], out=new)
    finite = np.isfinite(table["x"]) & np.isfinite(table["y"]) & ~np.isinf(table["heading"])
    # PlaceDB._store proved the stored rows finite; a row's max and min
    # propagate a NaN, and hold an inf of either sign
    finite[stored:] &= (np.isfinite(np.maximum.reduce(new, axis=1, initial=0.0))
                        & np.isfinite(np.minimum.reduce(new, axis=1, initial=0.0)))
    if not finite.all():
        raise ConfigError(f"record id {ids[int(finite.argmin())]}: "
                          "non-finite descriptor value, position or heading")
    with open(path, "wb") as fh:
        fh.write(MPDB_MAGIC + _MPDB_HEADER.pack(n, dim))
        fh.write(table)  # the packed records as they are in memory, without a copy


def load_db(path) -> PlaceDB:
    """Read an MPDB file into a database whose columns are its query store.

    No per-record object is built, and the first query copies nothing.
    """
    with open(path, "rb") as fh:
        count, dim = _read_header(fh, MPDB_MAGIC, _MPDB_HEADER, path, "a place database")
        with _decoding(path):  # a dim too wide for numpy, or a non-finite descriptor
            _expect_payload(fh, count * _mpdb_record(dim).itemsize, path)
            if not count:
                return PlaceDB()
            return PlaceDB._from_columns(count, dim, _mpdb_blocks(fh, count, dim, path))


def _mpdb_blocks(fh, count: int, dim: int, path):
    """The ``count`` records of ``fh`` as ``PlaceDB._from_columns`` column blocks.

    Each block is read into one reused buffer of at most half the records,
    so it stays well below the store in size, and glibc's malloc keeps both
    on its heap from one load to the next instead of returning them to the
    system and faulting their pages in again.  A non-finite coordinate
    or an infinite heading is a malformed file.
    """
    buf = np.empty(min(-(-count // 2), _MPDB_BLOCK), _mpdb_record(dim))
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


# a file sets every field of these configs but WorldConfig's seed and range_lo
CONFIG_KEYS = {f.name for cls in (RadarConfig, PlatformConfig, WorldConfig)
               for f in fields(cls)} - {"seed", "range_lo"}


def config_int(keyvals: dict[str, float], key: str, default: int | None = None) -> int:
    """``keyvals[key]`` (``default`` if unset) as an int: a whole number within int64."""
    value = keyvals.get(key, default)
    if value % 1 or not -2**63 <= value < 2**63:
        raise ConfigError(f"{key} must be a whole number within int64, got {value!r}")
    return int(value)


def config_from(cls, keyvals: dict[str, float], **fixed):
    """``cls`` from the fields that ``keyvals`` sets, plus ``fixed``; ints via ``config_int``."""
    kwargs = {f.name: config_int(keyvals, f.name) if f.type in ("int", int) else keyvals[f.name]
              for f in fields(cls) if f.name in keyvals}
    return cls(**kwargs, **fixed)


_OFFSET_COLUMNS = ("frame_idx", "r_offset", "a_offset", "score")
_POSE_COLUMNS = ("frame_idx", "x_m", "y_m", "heading_deg")
_CSV_INTS = {"frame_idx", "r_offset", "a_offset"}  # every other column is a finite float


def _csv_rows(path, columns):
    """``(path:line, row)`` for each row of a CSV whose header names exactly ``columns``.

    A header with a missing, extra or repeated name is a ``FormatError`` at
    ``path``.  ``row`` maps each column to its ``int`` or finite ``float``;
    a missing, extra or malformed field is a ``FormatError`` that names
    ``path:line``.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if sorted(reader.fieldnames or ()) != sorted(columns):
            raise FormatError(f"{path}: CSV needs exactly the columns {sorted(columns)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            missing = [c for c in columns if row[c] is None]
            if missing:
                raise FormatError(f"{where}: missing field {missing[0]}")
            if None in row:  # DictReader files fields past the header under None
                raise FormatError(f"{where}: more fields than the header names")
            try:
                values = {c: int(row[c]) if c in _CSV_INTS else float(row[c]) for c in columns}
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from None
            if not all(math.isfinite(v) for c, v in values.items() if c not in _CSV_INTS):
                raise FormatError(f"{where}: non-finite value")
            yield where, values


def save_csv(path, columns, rows) -> None:
    """Write a CSV file: the ``columns`` header row, then each of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def save_offsets_csv(path, offsets: list[PoseOffset]) -> None:
    save_csv(path, _OFFSET_COLUMNS,
             ([i, o.r_offset, o.a_offset, f"{o.score:.9f}"] for i, o in enumerate(offsets)))


def load_offsets_csv(path) -> list[PoseOffset]:
    return [PoseOffset(row["r_offset"], row["a_offset"], row["score"])
            for _, row in _csv_rows(path, _OFFSET_COLUMNS)]


def load_poses_csv(path) -> list[dict]:
    """Poses: ``frame_idx,x_m,y_m,heading_deg`` rows of finite numbers.

    Row ``i`` labels the ``i``-th heatmap: a ``frame_idx`` other than ``i`` is a ``ConfigError``.
    """
    poses = []
    for where, row in _csv_rows(path, _POSE_COLUMNS):
        if row["frame_idx"] != len(poses):
            raise ConfigError(f"{where}: frame_idx {row['frame_idx']}, expected {len(poses)}")
        poses.append(row)
    return poses


def save_poses_csv(path, poses: list[dict]) -> None:
    save_csv(path, _POSE_COLUMNS,
             ([p["frame_idx"], f"{p['x_m']:.6f}", f"{p['y_m']:.6f}", f"{p['heading_deg']:.6f}"]
              for p in poses))


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
