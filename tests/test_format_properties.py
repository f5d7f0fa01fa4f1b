"""Property tests of the four binary formats.

A damaged file loads or raises FormatError, nothing else.  Every format is
checked under any truncation, any trailing bytes and any single-byte flip
of a valid file.  MMW1 is checked twice: as damaged on disk, where the
CRC-32 trailer catches the damage, and with the damaged payload signed
again, so the header checks behind the CRC are reached.

A valid file round-trips: for random contents, save -> load -> save gives
the same bytes, and the loaded values are the originals rounded to float32
where the format stores float32.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from radarplace import fileio
from radarplace.encoder import EncoderArch, EncoderWeights, init_weights
from radarplace.errors import ConfigError, DuplicateIdError, FormatError
from radarplace.fileio import (
    load_cube,
    load_db,
    load_heatmap,
    load_weights,
    save_cube,
    save_db,
    save_heatmap,
    save_weights,
)
from radarplace.heatmap import Heatmap
from radarplace.placedb import PlaceDB, PlaceRecord
from radarplace.radar import IFCube

from test_acceptance import GRAD_ARCHS

LOADERS = {"IFC1": load_cube, "RAH1": load_heatmap, "MMW1": load_weights, "MPDB": load_db}
KINDS = [*LOADERS, "MMW1-resigned"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@pytest.fixture(scope="module")
def valid(workdir):
    """One small valid file per format, as bytes."""
    rng = np.random.default_rng(0)
    db = PlaceDB()
    for i in range(3):
        heading = None if i == 0 else 10.0 * i
        db.add(PlaceRecord(i, rng.standard_normal(4), (float(i), 2.0), heading=heading))
    arch = EncoderArch(input_shape=(8, 12), channels=(1, 2, 3), pools=((2, 2), None))
    writers = {
        "IFC1": (save_cube, IFCube(rng.standard_normal((4, 2, 3)) + 1j)),
        "RAH1": (save_heatmap, Heatmap(rng.random((4, 6)), 0.5, np.linspace(-1.0, 1.0, 6))),
        "MMW1": (save_weights, init_weights(arch, seed=3)),
        "MPDB": (save_db, db),
    }
    out = {}
    for kind, (save, obj) in writers.items():
        save(workdir / "valid", obj)
        out[kind] = (workdir / "valid").read_bytes()
    return out


def _check(workdir, valid, kind, damage):
    """Load the damaged file; only FormatError (or, for MPDB, a duplicate id) may escape."""
    raw = valid[kind.split("-")[0]]
    if kind == "MMW1-resigned":
        payload = damage(raw[4:-4])
        raw = b"MMW1" + payload + struct.pack("<I", zlib.crc32(payload))
    else:
        raw = damage(raw)
    path = workdir / "damaged"
    path.write_bytes(raw)
    try:
        LOADERS[kind.split("-")[0]](path)
    except FormatError:
        pass
    except DuplicateIdError:
        assert kind == "MPDB"


@pytest.mark.parametrize("kind", KINDS)
@given(cut=st.integers(min_value=0, max_value=2**16))
def test_any_truncation(workdir, valid, kind, cut):
    _check(workdir, valid, kind, lambda raw: raw[: cut % len(raw)])


@pytest.mark.parametrize("kind", KINDS)
@given(extra=st.binary(min_size=1, max_size=64))
def test_any_trailing_bytes(workdir, valid, kind, extra):
    _check(workdir, valid, kind, lambda raw: raw + extra)


@pytest.mark.parametrize("kind", KINDS)
@given(at=st.integers(min_value=0, max_value=2**16), mask=st.integers(min_value=1, max_value=255))
def test_any_single_byte_flip(workdir, valid, kind, at, mask):
    def flip(raw):
        out = bytearray(raw)
        out[at % len(out)] ^= mask
        return bytes(out)

    _check(workdir, valid, kind, flip)


# -- round trips ---------------------------------------------------------------

# finite after rounding to float32
F32 = st.floats(-1e30, 1e30)
SIDE = st.integers(1, 5)


def _round_trip(workdir, save, load, obj):
    """Save, load and save again; the two files must be byte-identical."""
    first, second = workdir / "first", workdir / "second"
    save(first, obj)
    loaded = load(first)
    save(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    return loaded


def _f32(a):
    return np.asarray(a).astype(np.float32).astype(np.float64)


@given(data=st.data())
def test_cube_round_trip(workdir, data):
    shape = data.draw(st.tuples(SIDE, SIDE, SIDE))
    re, im = (data.draw(arrays(np.float64, shape, elements=F32)) for _ in range(2))
    loaded = _round_trip(workdir, save_cube, load_cube, IFCube(re + 1j * im))
    assert np.array_equal(loaded.data.real, _f32(re))
    assert np.array_equal(loaded.data.imag, _f32(im))


@given(data=st.data())
def test_heatmap_round_trip(workdir, data):
    rows, cols = data.draw(SIDE), data.draw(SIDE)
    values = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(0.0, 1e30)))
    axis = sorted(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=cols, max_size=cols,
                                     unique=True)))
    hm = Heatmap(values, data.draw(st.floats(1e-6, 1e3)), np.array(axis))
    loaded = _round_trip(workdir, save_heatmap, load_heatmap, hm)
    assert np.array_equal(loaded.values, _f32(values))
    assert loaded.range_bin_m == hm.range_bin_m
    assert np.array_equal(loaded.angle_axis, hm.angle_axis)


@given(data=st.data())
def test_weights_round_trip(workdir, data):
    n_layers = data.draw(st.integers(1, 3))
    channels = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n_layers + 1,
                                        max_size=n_layers + 1)))
    h, w = shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    pools = []
    for _ in range(n_layers):
        pool = data.draw(st.none() | st.tuples(
            st.sampled_from([d for d in range(1, h + 1) if h % d == 0]),
            st.sampled_from([d for d in range(1, w + 1) if w % d == 0]),
        ))
        if pool is not None:
            h, w = h // pool[0], w // pool[1]
        pools.append(pool)
    kernels = [data.draw(arrays(np.float64, (c_out, c_in, 3, 3), elements=F32))
               for c_in, c_out in zip(channels, channels[1:])]
    biases = [data.draw(arrays(np.float64, c, elements=F32)) for c in channels[1:]]
    weights = EncoderWeights(EncoderArch(shape, channels, tuple(pools)), kernels, biases,
                             data.draw(st.integers(0, 2**64 - 1)))
    loaded = _round_trip(workdir, save_weights, load_weights, weights)
    assert loaded.arch == weights.arch
    assert loaded.seed == weights.seed
    for got, want in zip(loaded.kernels + loaded.biases, kernels + biases, strict=True):
        assert np.array_equal(got, _f32(want))


@given(data=st.data())
def test_db_round_trip(workdir, data):
    dim = data.draw(st.integers(1, 6))
    ids = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=5, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    originals, db = [], PlaceDB()
    for rid in ids:
        desc = data.draw(arrays(np.float64, dim, elements=F32))
        position = data.draw(st.tuples(finite, finite))
        heading = data.draw(st.none() | finite)
        originals.append((rid, desc, position, heading))
        db.add(PlaceRecord(rid, desc, position, heading=heading))
    # record counts below, at and past the edge of a small decoding block
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fileio, "_MPDB_BLOCK", data.draw(st.sampled_from([1, 2, 3, fileio._MPDB_BLOCK])))
        loaded = _round_trip(workdir, save_db, load_db, db)
    assert len(loaded) == len(originals)
    for rec, (rid, desc, position, heading) in zip(loaded.records, originals):
        assert (rec.id, rec.position, rec.heading) == (rid, position, heading)
        assert np.array_equal(rec.descriptor, _f32(desc))


# -- MPDB against the per-record struct codec ------------------------------------

def _save_db_reference(path, db):
    """The earlier ``save_db``: one struct call per field of every record."""
    with open(path, "wb") as fh:
        fh.write(b"MPDB")
        dim = db.dim or 0
        fh.write(struct.pack("<II", len(db), dim))
        for r in db.records:
            fh.write(struct.pack("<Q", r.id))
            fh.write(struct.pack("<dd", *r.position))
            heading = float("nan") if r.heading is None else r.heading
            fh.write(struct.pack("<d", heading))
            fh.write(r.descriptor.astype("<f4").tobytes())


def _load_db_reference(path):
    """The earlier ``load_db`` body after the header checks."""
    raw = path.read_bytes()
    count, dim = struct.unpack_from("<II", raw, 4)
    db, off = PlaceDB(), 12
    for _ in range(count):
        rid, x, y, heading = struct.unpack_from("<Qddd", raw, off)
        desc = np.frombuffer(raw, dtype="<f4", count=dim, offset=off + 32)
        db.add(PlaceRecord(rid, desc.copy(), (x, y), None if np.isnan(heading) else heading))
        off += 32 + 4 * dim
    return db


@given(data=st.data())
def test_db_codec_matches_struct_reference(workdir, data):
    dim = data.draw(st.integers(0, 6))
    ids = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=6, unique=True))
    db = PlaceDB()
    for rid in ids:
        db.add(PlaceRecord(rid, data.draw(arrays(np.float32, dim)),
                           data.draw(st.tuples(st.floats(), st.floats())),
                           heading=data.draw(st.none() | st.floats())))
    fast, ref = workdir / "fast", workdir / "ref"
    fast.unlink(missing_ok=True)
    _save_db_reference(ref, db)
    want = _load_db_reference(ref)
    block = data.draw(st.sampled_from([1, 2, 4, fileio._MPDB_BLOCK]))  # below, at, past the count
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fileio, "_MPDB_BLOCK", block)
        # NaN codes a missing heading; any other non-finite value is a malformed
        # file, and save_db refuses to write one
        if any(not np.isfinite([*r.position, *r.descriptor]).all()
               or r.heading is not None and np.isinf(r.heading) for r in want.records):
            with pytest.raises(ConfigError, match="non-finite"):
                save_db(fast, db)
            assert not fast.exists()
            with pytest.raises(FormatError, match="non-finite value"):
                load_db(ref)
            return
        save_db(fast, db)
        assert fast.read_bytes() == ref.read_bytes()
        got = load_db(fast)
    assert len(got) == len(want)
    for a, b in zip(got.records, want.records, strict=True):
        assert repr((a.id, a.position, a.heading)) == repr((b.id, b.position, b.heading))
        assert type(a.id) is type(b.id) and type(a.heading) is type(b.heading)
        assert a.descriptor.dtype == b.descriptor.dtype
        assert a.descriptor.tobytes() == b.descriptor.tobytes()


# -- MMW1 against the per-field struct codec -------------------------------------

def _save_weights_reference(path, w):
    """The earlier ``save_weights``: one struct call per header field."""
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
        fh.write(b"MMW1")
        fh.write(bytes(payload))
        fh.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def _load_weights_reference(path):
    """The earlier ``load_weights``: the payload walked with a running offset."""
    raw = path.read_bytes()
    if raw[:4] != b"MMW1" or len(raw) < 8:
        raise FormatError(f"{path}: not a weights file")
    payload, (crc,) = raw[4:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != crc:
        raise FormatError(f"{path}: checksum mismatch")
    off = 0

    def take(fmt):
        nonlocal off
        vals = struct.unpack_from(fmt, payload, off)
        off += struct.calcsize(fmt)
        return vals

    try:
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
            kernels.append(np.frombuffer(payload, dtype="<f4", count=n_k, offset=off)
                           .astype(np.float64).reshape(c_out, c_in, 3, 3))
            off += n_k * 4
            biases.append(np.frombuffer(payload, dtype="<f4", count=c_out, offset=off)
                          .astype(np.float64))
            off += c_out * 4
    except (ConfigError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: invalid content: {exc}") from None
    if off != len(payload):
        raise FormatError(f"{path}: trailing bytes in weights payload")
    if not all(np.isfinite(a).all() for a in kernels + biases):
        raise FormatError(f"{path}: non-finite encoder weight")
    return EncoderWeights(arch, kernels, biases, seed)


# criterion 5's gradient-oracle archs and the default arch at 64x96 and 64x256
ORACLE_ARCHS = [*GRAD_ARCHS, EncoderArch(input_shape=(64, 96)),
                EncoderArch(input_shape=(64, 256))]


def _resign(payload):
    return b"MMW1" + payload + struct.pack("<I", zlib.crc32(payload))


@pytest.mark.parametrize("ai", range(len(ORACLE_ARCHS)))
def test_weights_codec_matches_struct_reference(workdir, ai):
    weights = init_weights(ORACLE_ARCHS[ai], seed=2**64 - 1 - ai)
    new, ref = workdir / "new.mmw", workdir / "ref.mmw"
    save_weights(new, weights)
    _save_weights_reference(ref, weights)
    assert new.read_bytes() == ref.read_bytes()
    got, want = load_weights(new), _load_weights_reference(ref)
    assert (got.arch, got.seed) == (want.arch, want.seed)
    # the file's float32 values are kept; the earlier loader widened them exactly
    for a, b in zip(got.kernels + got.biases, want.kernels + want.biases, strict=True):
        assert a.dtype == np.float32 and b.dtype == np.float64 and a.shape == b.shape
        assert a.astype(np.float64).tobytes() == b.tobytes()

    payload = ref.read_bytes()[4:-4]
    header = 12 + 4 * len(weights.arch.channels) + 8 * weights.arch.n_layers + 8
    nan_at = header + 4 * (ai % 7)  # a kernel value of the first layer
    nan = payload[:nan_at] + np.float32(np.nan).tobytes() + payload[nan_at + 4:]
    damaged = {
        "truncated header": payload[:header - 1],
        "partial float32": payload[:-2],
        "one value short": payload[:-4],
        "one value long": payload + bytes(4),
        "non-finite weight": nan,
    }
    for what, bad in damaged.items():
        (workdir / "bad.mmw").write_bytes(_resign(bad))
        for load in (load_weights, _load_weights_reference):
            with pytest.raises(FormatError):
                load(workdir / "bad.mmw")
