"""Per-class vMF mixtures: posteriors, hard assignment, and class prediction.

Each class y owns K_y components with unit mean directions and an implicit
uniform component prior 1/K_y. All components across all classes share one
concentration kappa. Two inference rules are exposed and they are not the
same thing:

* ``class_posterior`` mean-pools components per class (used inside the
  training loss),
* ``predict`` max-pools over components (used for label prediction).

For a given input the argmax of ``class_posterior`` can legitimately differ
from ``predict``; both paths are part of the contract.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyModel, ParseError, UnknownClass
from .vmf import ZERO_NORM_EPS

SNAPSHOT_MAGIC = b"VMFB"
SNAPSHOT_VERSION = 1
BACKBONE_TAG = b"THET"


@dataclass
class ClassMixture:
    """One class's vMF components; rows of ``means`` are unit vectors."""

    class_id: int
    means: np.ndarray  # (K, d)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.ndim != 2 or self.means.shape[0] < 1:
            raise DimensionError(f"means must be a nonempty (K, d) matrix, got {self.means.shape}")
        norms = np.linalg.norm(self.means, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # NaN fails too
            raise DimensionError("all component means must be unit length within 1e-9")

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    def copy(self) -> "ClassMixture":
        return ClassMixture(self.class_id, self.means.copy())


@dataclass
class ModelBank:
    """All class mixtures observed so far, sharing dimension and kappa."""

    dim: int
    kappa: float
    mixtures: dict[int, ClassMixture] = field(default_factory=dict)

    def __post_init__(self):
        for mix in self.mixtures.values():
            self._check(mix)

    def _check(self, mix: ClassMixture):
        if mix.means.shape[1] != self.dim:
            raise DimensionError(
                f"class {mix.class_id} has dimension {mix.means.shape[1]}, bank has {self.dim}"
            )

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.mixtures)

    def mixture(self, class_id: int) -> ClassMixture:
        try:
            return self.mixtures[class_id]
        except KeyError:
            raise UnknownClass(f"class {class_id} has never been observed") from None

    def set_mixture(self, mix: ClassMixture):
        self._check(mix)
        self.mixtures[mix.class_id] = mix

    def copy(self) -> "ModelBank":
        return ModelBank(self.dim, self.kappa, {c: m.copy() for c, m in self.mixtures.items()})


def _logsumexp(scores: np.ndarray) -> float:
    m = float(np.max(scores))
    return m + float(np.log(np.sum(np.exp(scores - m))))


def component_scores(bank: ModelBank, class_id: int, v: np.ndarray) -> np.ndarray:
    """kappa-scaled dot products of v against every component mean of one class."""
    return bank.kappa * (bank.mixture(class_id).means @ np.asarray(v, dtype=np.float64))


def component_posterior(bank: ModelBank, class_id: int, v: np.ndarray) -> np.ndarray:
    """Softmax over a class's component scores (max-subtracted for stability)."""
    s = component_scores(bank, class_id, v)
    s = s - np.max(s)
    e = np.exp(s)
    return e / np.sum(e)


def _row_dots(means: np.ndarray, v: np.ndarray) -> np.ndarray:
    # elementwise product + pairwise sum: the result does not depend on K,
    # so exact ties across mixtures of different sizes stay exact ties
    return np.sum(means * v, axis=1)


def assign_component(bank: ModelBank, class_id: int, v: np.ndarray) -> int:
    """Hard assignment: index of the component mean closest to v, ties to lowest index."""
    dots = _row_dots(bank.mixture(class_id).means, np.asarray(v, dtype=np.float64))
    return int(np.argmax(dots))


def assign_components_batch(bank: ModelBank, class_id: int, vs: np.ndarray) -> np.ndarray:
    """Vectorized ``assign_component`` over the rows of an (n, d) matrix."""
    dots = np.asarray(vs, dtype=np.float64) @ bank.mixture(class_id).means.T
    return np.argmax(dots, axis=1)


def class_log_scores(bank: ModelBank, v: np.ndarray) -> np.ndarray:
    """Per-class log of the 1/K_y-weighted sum of exponentiated component scores.

    Entries are ordered by ascending class id. These are unnormalized
    class-posterior logits.
    """
    if not bank.mixtures:
        raise EmptyModel("model bank has no classes")
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(len(bank.mixtures))
    for i, c in enumerate(bank.class_ids):
        mix = bank.mixtures[c]
        out[i] = _logsumexp(bank.kappa * (mix.means @ v)) - np.log(mix.num_components)
    return out


def class_posterior(bank: ModelBank, v: np.ndarray) -> np.ndarray:
    """Posterior over classes (ascending class-id order), computed in log space."""
    a = class_log_scores(bank, v)
    a = a - np.max(a)
    e = np.exp(a)
    return e / np.sum(e)


def predict(bank: ModelBank, v: np.ndarray) -> int:
    """Class of the single closest component mean; ties go to the lowest class id."""
    if not bank.mixtures:
        raise EmptyModel("model bank has no classes")
    v = np.asarray(v, dtype=np.float64)
    best_class = -1
    best = -np.inf
    for c in bank.class_ids:
        top = float(np.max(_row_dots(bank.mixtures[c].means, v)))
        if top > best:
            best = top
            best_class = c
    return best_class


def predict_batch(bank: ModelBank, vs: np.ndarray) -> np.ndarray:
    """Vectorized ``predict`` over the rows of an (n, d) matrix."""
    if not bank.mixtures:
        raise EmptyModel("model bank has no classes")
    vs = np.asarray(vs, dtype=np.float64)
    ids = bank.class_ids
    tops = np.empty((len(ids), vs.shape[0]))
    for i, c in enumerate(ids):
        tops[i] = np.max(vs @ bank.mixtures[c].means.T, axis=1)
    # argmax over rows ordered by ascending class id -> lowest id wins ties
    return np.asarray(ids, dtype=np.int64)[np.argmax(tops, axis=0)]


# ---------------------------------------------------------------------------
# Versioned binary snapshots ("VMFB" container, optional "THET" backbone block)
# ---------------------------------------------------------------------------


def save_snapshot(path, bank: ModelBank, layers=None):
    """Write a bank (and optionally backbone layers) as a VMFB snapshot.

    Layout, all little-endian: magic "VMFB", u32 version, u32 d, f32 kappa,
    u32 class count, then per class (ascending id) u32 id, u32 K and K*d
    float32 means. If ``layers`` is given (a list of (weight, bias) pairs),
    a "THET" section follows with u32 layer count and per layer u32 out/in
    dims, the float32 weight matrix and the float32 bias.
    """
    chunks = [
        SNAPSHOT_MAGIC,
        struct.pack("<IIfI", SNAPSHOT_VERSION, bank.dim, bank.kappa, len(bank.mixtures)),
    ]
    for c in bank.class_ids:
        mix = bank.mixtures[c]
        chunks.append(struct.pack("<II", c, mix.num_components))
        chunks.append(mix.means.astype("<f4").tobytes())
    if layers is not None:
        chunks.append(BACKBONE_TAG)
        chunks.append(struct.pack("<I", len(layers)))
        for w, b in layers:
            chunks.append(struct.pack("<II", w.shape[0], w.shape[1]))
            chunks.append(np.asarray(w).astype("<f4").tobytes())
            chunks.append(np.asarray(b).astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Cursor:
    """Byte reader that reports the failing offset on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError(f"truncated snapshot: needed {n} bytes", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_snapshot(path):
    """Read a VMFB snapshot; returns (bank, layers-or-None)."""
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(4) != SNAPSHOT_MAGIC:
        raise ParseError("bad magic, not a VMFB snapshot", offset=0)
    version, dim, kappa, n_classes = cur.unpack("<IIfI")
    if version != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {version}", offset=4)
    if dim < 2:
        raise ParseError(f"dimension must be at least 2, got {dim}", offset=8)
    if not 0.0 <= kappa < np.inf:  # NaN fails too
        raise ParseError(f"kappa must be finite and nonnegative, got {kappa}", offset=12)
    mixtures = {}
    for _ in range(n_classes):
        header_at = cur.pos
        class_id, k = cur.unpack("<II")
        if class_id in mixtures:
            raise ParseError(f"duplicate class id {class_id}", offset=header_at)
        if k == 0:
            raise ParseError(f"class {class_id} has no components", offset=header_at + 4)
        means_at = cur.pos
        raw = cur.take(4 * k * dim)
        means = np.frombuffer(raw, dtype="<f4").reshape(k, dim).astype(np.float64)
        norms = np.linalg.norm(means, axis=1, keepdims=True)
        bad = np.flatnonzero(~(np.isfinite(norms[:, 0]) & (norms[:, 0] >= ZERO_NORM_EPS)))
        if bad.size:
            raise ParseError(
                f"class {class_id} component {bad[0]} mean is zero or non-finite",
                offset=means_at + 4 * dim * int(bad[0]),
            )
        # float32 quantization leaves norms ~1e-8 off unit; re-project.
        mixtures[class_id] = ClassMixture(class_id, means / norms)
    bank = ModelBank(dim, float(kappa), mixtures)
    layers = None
    if cur.pos < len(cur.data):
        tag_at = cur.pos
        if cur.take(4) != BACKBONE_TAG:
            raise ParseError("unknown trailing section", offset=tag_at)
        (n_layers,) = cur.unpack("<I")
        layers = []
        for i in range(n_layers):
            out_dim, in_dim = cur.unpack("<II")
            block_at = cur.pos
            w = np.frombuffer(cur.take(4 * out_dim * in_dim), dtype="<f4")
            w = w.reshape(out_dim, in_dim).astype(np.float64)
            b = np.frombuffer(cur.take(4 * out_dim), dtype="<f4").astype(np.float64)
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ParseError(f"backbone layer {i} has non-finite weights", offset=block_at)
            layers.append((w, b))
    if cur.pos != len(cur.data):
        raise ParseError("trailing bytes after snapshot payload", offset=cur.pos)
    return bank, layers
