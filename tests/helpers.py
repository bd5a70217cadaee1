"""Test helpers: one way to build a bank, a record set, an empty record set, one-row calls of
the batch functions, and a decoder of the VMFB snapshots that ``vmfcl run`` writes."""

import struct
from types import SimpleNamespace

import numpy as np

from vmfcl.backbone import forward_batch
from vmfcl.mixture import ModelBank, assign_components_batch, predict_batch
from vmfcl.streams import FeatureRecords


def make_bank(dim: int, kappa: float, mixtures: dict) -> ModelBank:
    """A bank of ``{class id: (K, d) means}``, packed in ascending class order by
    the ``ModelBank`` constructor, which checks the means."""
    ids = sorted(mixtures)
    blocks = [np.asarray(mixtures[c], dtype=np.float64) for c in ids]
    means = np.vstack(blocks) if blocks else np.zeros((0, dim))
    return ModelBank(dim, kappa, ids, [len(b) for b in blocks], means)


def make_records(x, y, domain=-1, first_id: int = 0) -> FeatureRecords:
    """Records of features ``x`` and labels ``y`` with ids ``first_id, first_id + 1, ...``;
    ``domain`` is one label for every record or one per record."""
    n = len(y)
    domains = np.full(n, domain, np.int32) if np.ndim(domain) == 0 else domain
    return FeatureRecords(np.arange(first_id, first_id + n, dtype=np.uint64), x, y, domains)


def empty_records(dim: int) -> FeatureRecords:
    """Zero records of dimension ``dim``, each column of its stored dtype."""
    return make_records(np.zeros((0, dim)), np.zeros(0, np.int64))


def predict_one(bank: ModelBank, v) -> int:
    return int(predict_batch(bank, np.atleast_2d(v))[0])


def assign_one(bank: ModelBank, class_id: int, v) -> int:
    return int(assign_components_batch(bank.mixtures[class_id].means, np.atleast_2d(v))[0])


def forward_one(params, x) -> np.ndarray:
    return forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]


def decode_snapshot(data: bytes) -> SimpleNamespace:
    """The fields of a VMFB snapshot, walked by the layout ``save_snapshot`` documents.

    No field is validated but the "THET" tag, which every snapshot has; the
    walk must end exactly at the end of ``data``. Returns ``magic``,
    ``version``, ``dim``, ``kappa``, ``means`` ({class id: (K, d) float32
    means}, in file order) and ``layers`` (a list of float32 (weight, bias)
    pairs).
    """
    version, dim, kappa, n_classes = struct.unpack_from("<IIfI", data, 4)
    pos, means, layers = 20, {}, []
    for _ in range(n_classes):
        c, k = struct.unpack_from("<II", data, pos)
        means[c] = np.frombuffer(data, "<f4", k * dim, pos + 8).reshape(k, dim)
        pos += 8 + 4 * k * dim
    assert data[pos : pos + 4] == b"THET", "the backbone block follows the classes"
    (n_layers,) = struct.unpack_from("<I", data, pos + 4)
    pos += 8
    for _ in range(n_layers):
        out_dim, in_dim = struct.unpack_from("<II", data, pos)
        w = np.frombuffer(data, "<f4", out_dim * in_dim, pos + 8).reshape(out_dim, in_dim)
        pos += 8 + 4 * out_dim * in_dim
        layers.append((w, np.frombuffer(data, "<f4", out_dim, pos)))
        pos += 4 * out_dim
    assert pos == len(data), f"the snapshot payload ends at byte {pos} of {len(data)}"
    return SimpleNamespace(magic=data[:4], version=version, dim=dim, kappa=kappa, means=means, layers=layers)
