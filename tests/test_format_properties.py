"""Property tests: a damaged binary file loads or raises FormatError, nothing else.

Every format is checked under any truncation, any trailing bytes and any
single-byte flip of a valid file.  MMW1 is checked twice: as damaged on
disk, where the CRC-32 trailer catches the damage, and with the damaged
payload signed again, so the header checks behind the CRC are reached.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarplace.encoder import EncoderArch, init_weights
from radarplace.errors import DuplicateIdError, FormatError
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
