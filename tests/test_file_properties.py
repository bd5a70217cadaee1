"""Property tests for the VMFS and VMFB formats: round trips and corrupted bytes.

Writing then reading a file must give back what was written, up to the
float32 quantization of the format. VMFS files are read by ``read_stream``:
truncating a valid file or overwriting some of its bytes must either give a
valid load or raise ParseError; no other exception, no non-finite feature
and no duplicate example id may get through. The package writes VMFB
snapshots but has no reader, so their round trip is checked through the
test decoder ``helpers.decode_snapshot``.
"""

import os
import struct
import tempfile

import numpy as np
from helpers import decode_snapshot, make_bank, make_records
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vmfcl.errors import ParseError
from vmfcl.mixture import save_snapshot
from vmfcl.streams import FeatureRecords, read_stream, write_stream
from vmfcl.vmf import normalize_rows


def _round_trip(write, read, *args):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "file")
        write(path, *args)
        return read(path)


def _file_bytes(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "file")
        write(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


def _read_bytes(read, data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "file")
        with open(path, "wb") as fh:
            fh.write(data)
        return read(path)


def _edit(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for at, value in edits:
        data[at] = value
    return bytes(data)


def corruptions(raw: bytes):
    """A proper prefix of the file, or the file with one to three bytes overwritten."""
    cuts = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    edits = st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)), min_size=1, max_size=3)
    return st.one_of(cuts, edits.map(lambda e: _edit(raw, e)))


def every_single_corruption(raw: bytes):
    """Every proper prefix, and every byte set to each of a few extreme values."""
    yield from (raw[:n] for n in range(len(raw)))
    for at in range(len(raw)):
        for value in (0x00, 0x01, 0x7F, 0x80, 0xFF):
            yield _edit(raw, [(at, value)])


STREAM = _file_bytes(
    write_stream,
    make_records(np.arange(15, dtype=np.float64).reshape(5, 3) - 7.0, np.array([0, 1, 2, 0, 1]),
                 np.array([0, 0, 1, -1, 2], dtype=np.int32)),
)


def check_stream(data: bytes):
    try:
        records = _read_bytes(read_stream, data)
    except ParseError:
        return
    (count,) = struct.unpack_from("<Q", data, 12)
    assert len(records) == count
    assert np.unique(records.ids).size == len(records)
    assert np.all(np.isfinite(records.x))


@settings(max_examples=300, deadline=None, database=None)
@given(corruptions(STREAM))
def test_corrupted_stream_loads_valid_or_raises_parse_error(data):
    check_stream(data)


def test_every_single_byte_corruption_of_a_stream():
    for data in every_single_corruption(STREAM):
        check_stream(data)


# finite float64 values that float32 can hold without overflow
FLOATS = st.floats(-1e30, 1e30)


@st.composite
def record_sets(draw):
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 6))
    return FeatureRecords(
        np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True)),
                 dtype=np.uint64),
        draw(hnp.arrays(np.float64, (n, d), elements=FLOATS)),
        np.array(draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)), dtype=np.int64),
        np.array(draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n)), dtype=np.int32),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(record_sets(), st.integers(0, 2))
def test_stream_round_trip(records, role):
    loaded = _round_trip(write_stream, read_stream, records, role)
    np.testing.assert_array_equal(loaded.ids, records.ids)
    np.testing.assert_array_equal(loaded.y, records.y)
    np.testing.assert_array_equal(loaded.domain, records.domain)
    np.testing.assert_array_equal(loaded.x, records.x.astype("<f4"))


@st.composite
def snapshots(draw):
    """A bank and either no backbone or a layer stack that ends at the bank dim."""
    d = draw(st.integers(2, 6))
    ids = draw(st.sets(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = make_bank(d, draw(st.floats(0.0, 1e6, width=32)), {
        c: normalize_rows(rng.standard_normal((draw(st.integers(1, 4)), d)))
        for c in ids
    })
    layers = None
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)) + [d]
        layers = [
            (draw(hnp.arrays(np.float64, (fan_out, fan_in), elements=FLOATS)),
             draw(hnp.arrays(np.float64, (fan_out,), elements=FLOATS)))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ]
    return bank, layers


@settings(max_examples=200, deadline=None, database=None)
@given(snapshots())
def test_snapshot_round_trip(snapshot):
    bank, layers = snapshot
    snap = decode_snapshot(_file_bytes(save_snapshot, bank, layers))
    assert snap.dim == bank.dim
    assert snap.kappa == bank.kappa
    assert list(snap.means) == bank.class_ids
    assert [len(m) for m in snap.means.values()] == bank.sizes.tolist()
    for c, lo, hi in zip(bank.class_ids, bank.offsets[:-1], bank.offsets[1:]):
        np.testing.assert_array_equal(snap.means[c], bank.means[lo:hi].astype("<f4"))
    if layers is None:
        assert snap.layers is None
        return
    assert len(snap.layers) == len(layers)
    for (w, b), (lw, lb) in zip(layers, snap.layers):
        np.testing.assert_array_equal(lw, w.astype("<f4"))
        np.testing.assert_array_equal(lb, b.astype("<f4"))
