"""Property tests for the VMFB and VMFS readers on corrupted bytes.

Truncating a valid file or overwriting some of its bytes must either give a
valid load or raise ParseError; no other exception, no non-finite or
zero-norm mean and no duplicate class or example id may get through.
Stream features are not checked here: a non-finite feature loads and stops
training with NumericalError.
"""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfcl.errors import ParseError
from vmfcl.mixture import ClassMixture, ModelBank, load_snapshot, save_snapshot
from vmfcl.streams import FeatureRecords, read_stream, write_stream


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


SNAPSHOT = _file_bytes(
    save_snapshot,
    ModelBank(3, 16.0, {
        0: ClassMixture(0, np.eye(3)[:2]),
        1: ClassMixture(1, np.eye(3)[2:]),
        2: ClassMixture(2, np.array([[0.6, 0.0, 0.8]])),
    }),
    [(np.full((2, 3), 0.5), np.zeros(2)), (np.eye(2), np.ones(2))],
)

STREAM = _file_bytes(
    write_stream,
    FeatureRecords(
        np.arange(5, dtype=np.uint64),
        np.arange(15, dtype=np.float64).reshape(5, 3) - 7.0,
        np.array([0, 1, 2, 0, 1]),
        np.array([0, 0, 1, -1, 2], dtype=np.int32),
        np.array([0, 1, 2, 0, 1], dtype=np.uint8),
    ),
)


def check_snapshot(data: bytes):
    try:
        bank, layers = _read_bytes(load_snapshot, data)
    except ParseError as err:
        assert err.offset is not None
        return
    assert bank.dim >= 2
    assert 0.0 <= bank.kappa < math.inf
    (n_classes,) = struct.unpack_from("<I", data, 16)
    assert len(bank.mixtures) == n_classes  # a duplicate id would drop a class
    for c, mix in bank.mixtures.items():
        assert mix.class_id == c
        assert mix.means.shape[1] == bank.dim
        assert np.all(np.isfinite(mix.means))
        np.testing.assert_allclose(np.linalg.norm(mix.means, axis=1), 1.0, atol=1e-9)
    for w, b in layers or []:
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))


def check_stream(data: bytes):
    try:
        records = _read_bytes(read_stream, data)
    except ParseError:
        return
    (count,) = struct.unpack_from("<Q", data, 12)
    assert len(records) == count
    assert np.unique(records.ids).size == len(records)


@settings(max_examples=300, deadline=None, database=None)
@given(corruptions(SNAPSHOT))
def test_corrupted_snapshot_loads_valid_or_raises_parse_error(data):
    check_snapshot(data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # float32 signaling NaN cast on load
@settings(max_examples=300, deadline=None, database=None)
@given(corruptions(STREAM))
def test_corrupted_stream_loads_valid_or_raises_parse_error(data):
    check_stream(data)


def test_every_single_byte_corruption_of_a_snapshot():
    for data in every_single_corruption(SNAPSHOT):
        check_snapshot(data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_single_byte_corruption_of_a_stream():
    for data in every_single_corruption(STREAM):
        check_stream(data)
