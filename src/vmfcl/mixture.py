"""Per-class vMF mixtures: posteriors, hard assignment, and class prediction.

Each class y owns K_y components with unit mean directions and an implicit
uniform component prior 1/K_y. All components across all classes share one
concentration kappa. Two inference rules are exposed and they are not the
same thing:

* ``class_posterior`` mean-pools components per class (used inside the
  training loss),
* ``predict`` max-pools over components (used for label prediction; the
  run's evaluation calls ``predict_batch`` once per session on every seen
  test record).

For a given input the argmax of ``class_posterior`` can legitimately differ
from ``predict``; both paths are part of the contract.

The shared kappa cancels from every hard decision, so each is an argmax of
dot products, and one BLAS-free kernel, ``_dots``, defines them all: an
exact tie goes to the lowest class id or component index.
``assign_components_batch`` (and ``assign_component``) take the argmax of
``_dots`` directly. ``predict_batch`` (and ``predict``) take one argmax
over all the bank's columns, which ascend by class id, and map the winning
column to its class; they score with BLAS and rescore with ``_dots`` every
row whose margin does not certify that both kernels pick the same column,
so they return the ``_dots`` answer on every row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyModel, ModelRegression, ParseError, UnknownClass
from .vmf import ZERO_NORM_EPS

SNAPSHOT_MAGIC = b"VMFB"
SNAPSHOT_VERSION = 1
BACKBONE_TAG = b"THET"

# Rows that predict_batch scores at once: bounds its (rows, K) block of dots.
PREDICT_BLOCK_ROWS = 1024


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


class BankLayout:
    """Index arrays that depend only on a bank's class ids and component counts.

    Built once when a bank is packed and shared, read-only, by every bank
    that ``with_means`` or ``copy`` derives from it, so one training step
    reads them instead of rebuilding them per batch:

    * ``ids``, ``offsets``, ``starts`` (= ``offsets[:-1]``), ``sizes`` and
      ``log_sizes``;
    * ``column_index`` (position in ``ids`` of each column's class) and
      ``column_class`` (its class id);
    * ``half_pair_weight`` (half of 1 / (K_c (K_c - 1)) per class, 0 for a
      single component) and ``column_pair_weight`` (-1 / (K_c (K_c - 1) C)
      per column), the spread penalty's weights.
    """

    def __init__(self, class_ids: list[int], sizes: list[int]):
        self.ids = np.asarray(class_ids, dtype=np.int64)
        self.offsets = np.cumsum([0] + sizes, dtype=np.int64)
        self.starts = self.offsets[:-1]
        self.sizes = np.diff(self.offsets)
        self.log_sizes = np.log(self.sizes)
        n_classes = self.ids.size
        self.column_index = np.repeat(np.arange(n_classes), self.sizes)
        self.column_class = self.ids[self.column_index]
        k = self.sizes.astype(np.float64)
        w_pair = np.divide(1.0, k * (k - 1), out=np.zeros(n_classes), where=self.sizes > 1)
        self.half_pair_weight = w_pair * 0.5
        self.column_pair_weight = np.repeat(-(w_pair / n_classes), self.sizes)
        for arr in vars(self).values():
            arr.flags.writeable = False
        self._teacher: tuple[BankLayout, np.ndarray, bool] | None = None

    def positions(self, y: np.ndarray) -> np.ndarray:
        """Position in ``ids`` of each label; UnknownClass for a label outside the layout."""
        at = np.searchsorted(self.ids, y)
        if at.size and not (self.ids.size and (self.ids.take(at, mode="clip") == y).all()):
            raise UnknownClass("a label the bank has never observed")
        return at

    def rows_of(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row of component ``z[i]`` of class ``y[i]`` for every i; ValueError for a
        component index outside its class."""
        at = self.positions(y)
        z = np.asarray(z, dtype=np.int64)
        if ((z < 0) | (z >= self.sizes[at])).any():
            raise ValueError("assignments must index a component of the record's class")
        return self.offsets[at] + z

    def teacher_columns(self, old: "BankLayout") -> tuple[np.ndarray, bool]:
        """This layout's columns of ``old``'s components, in ``old``'s column order,
        and whether every class of ``old`` kept its component count here.

        Expansion appends, so each of ``old``'s classes maps to the leading
        columns of the same class here. When no class grew, each of those
        column runs is a whole class block of this layout. The answer for
        the last ``old`` asked for is kept, so the check runs once per
        (layout, teacher layout) pair. Raises ModelRegression when a class or
        component of ``old`` is missing here.
        """
        if self._teacher is not None and self._teacher[0] is old:
            return self._teacher[1], self._teacher[2]
        at = np.searchsorted(self.ids, old.ids)
        if not np.array_equal(self.ids.take(at, mode="clip"), old.ids) or np.any(self.sizes[at] < old.sizes):
            raise ModelRegression("the bank lost a class or component of the previous session")
        cols = np.repeat(self.offsets[at] - old.starts, old.sizes) + np.arange(old.offsets[-1])
        cols.flags.writeable = False
        kept = bool(np.array_equal(self.sizes[at], old.sizes))
        self._teacher = (old, cols, kept)
        return cols, kept


class ModelBank:
    """All class mixtures observed so far, sharing dimension and kappa, packed in one array.

    Rows ``offsets[i]:offsets[i + 1]`` of the (K, d) ``means`` belong to
    ``class_ids[i]`` (ascending); ``mixtures`` and ``mixture(c)`` are views.
    ``layout`` holds the index arrays of that packing. The constructor packs
    ``ClassMixture``s; ``from_packed`` takes means that are packed already.
    """

    def __init__(self, dim: int, kappa: float, mixtures: dict[int, ClassMixture] | None = None):
        self.dim = dim
        self.kappa = kappa
        mixtures = mixtures or {}
        for mix in mixtures.values():
            if mix.means.shape[1] != self.dim:
                raise DimensionError(
                    f"class {mix.class_id} has dimension {mix.means.shape[1]}, bank has {self.dim}"
                )
        self.class_ids = sorted(mixtures)
        blocks = [mixtures[c].means for c in self.class_ids]
        self.layout = BankLayout(self.class_ids, [b.shape[0] for b in blocks])
        self.means = np.vstack(blocks) if blocks else np.zeros((0, self.dim))

    @classmethod
    def from_packed(cls, dim: int, kappa: float, layout: BankLayout, means: np.ndarray) -> "ModelBank":
        """A bank of (K, d) ``means`` packed in ``layout``'s class blocks, checked as
        ``ClassMixture`` checks them: DimensionError unless every block is
        nonempty and every row unit length within 1e-9."""
        if means.shape != (layout.offsets[-1], dim) or np.any(layout.sizes < 1):
            raise DimensionError(f"means of shape {means.shape} do not fill the layout's blocks")
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise DimensionError("all component means must be unit length within 1e-9")
        bank = cls(dim, kappa)
        bank.class_ids, bank.layout, bank.means = layout.ids.tolist(), layout, means
        return bank

    @property
    def offsets(self) -> np.ndarray:
        """(C + 1,) row offsets of the class blocks, read-only."""
        return self.layout.offsets

    @property
    def sizes(self) -> np.ndarray:
        """(C,) component count of each class, in ``class_ids`` order, read-only."""
        return self.layout.sizes

    @property
    def mixtures(self) -> dict[int, ClassMixture]:
        """Per-class views of the packed rows, keyed by class id."""
        return {c: self.mixture(c) for c in self.class_ids}

    def mixture(self, class_id: int) -> ClassMixture:
        """A view of one class's rows, not re-validated: they were checked on entry."""
        if class_id not in self.class_ids:
            raise UnknownClass(f"class {class_id} has never been observed")
        i = self.class_ids.index(class_id)
        view = object.__new__(ClassMixture)
        view.class_id, view.means = class_id, self.means[self.offsets[i] : self.offsets[i + 1]]
        return view

    def with_means(self, means: np.ndarray) -> "ModelBank":
        """A bank with this one's classes and layout and new (K, d) means."""
        out = object.__new__(ModelBank)
        out.__dict__.update(self.__dict__)
        out.means = means
        return out

    def copy(self) -> "ModelBank":
        return self.with_means(self.means.copy())


def segment_log_softmax(t: np.ndarray, layout: BankLayout) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``t`` (n, K) with its log-softmax within each class block of ``layout``.

    Returns the (n, C) log-sum-exp of every block and an (n, K) scratch
    array, free for the caller to reuse (it held the exponentials of the
    max-shifted scores). Every block must be nonempty.
    """
    m = np.maximum.reduceat(t, layout.starts, axis=1)
    t -= np.repeat(m, layout.sizes, axis=1)
    scratch = np.exp(t)
    log_s = np.log(np.add.reduceat(scratch, layout.starts, axis=1))
    t -= np.repeat(log_s, layout.sizes, axis=1)
    m += log_s
    return m, scratch


def component_posterior(bank: ModelBank, class_id: int, v: np.ndarray) -> np.ndarray:
    """Softmax over a class's kappa-scaled component scores (max-subtracted for stability)."""
    s = bank.kappa * (bank.mixture(class_id).means @ np.asarray(v, dtype=np.float64))
    s = s - np.max(s)
    e = np.exp(s)
    return e / np.sum(e)


def _dots(vs: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(n, K) dot products of the rows of ``vs`` with the rows of ``means``, without BLAS.

    Every entry is the same sum of products over d whatever the matrix
    shapes or row positions, so equal means give equal dots and an exact
    tie stays exact. C order is forced because strided operands are summed
    in another order.
    """
    vs, means = np.ascontiguousarray(vs, dtype=np.float64), np.ascontiguousarray(means)
    return np.einsum("nd,kd->nk", vs, means, optimize=False)


def assign_component(bank: ModelBank, class_id: int, v: np.ndarray) -> int:
    """Hard assignment: index of the component mean closest to v, ties to lowest index."""
    return int(assign_components_batch(bank, class_id, np.atleast_2d(v))[0])


def assign_components_batch(bank: ModelBank, class_id: int, vs: np.ndarray) -> np.ndarray:
    """``assign_component`` for every row of an (n, d) matrix."""
    return np.argmax(_dots(vs, bank.mixture(class_id).means), axis=1)


def class_log_scores(bank: ModelBank, v: np.ndarray) -> np.ndarray:
    """Per-class log of the 1/K_y-weighted sum of exponentiated component scores.

    Entries are ordered by ascending class id. These are unnormalized
    class-posterior logits.
    """
    if not bank.class_ids:
        raise EmptyModel("model bank has no classes")
    t = bank.kappa * (bank.means @ np.asarray(v, dtype=np.float64))
    lse, _ = segment_log_softmax(t[None, :], bank.layout)
    return lse[0] - bank.layout.log_sizes


def class_posterior(bank: ModelBank, v: np.ndarray) -> np.ndarray:
    """Posterior over classes (ascending class-id order), computed in log space."""
    a = class_log_scores(bank, v)
    a = a - np.max(a)
    e = np.exp(a)
    return e / np.sum(e)


def predict(bank: ModelBank, v: np.ndarray) -> int:
    """Class of the single closest component mean; ties go to the lowest class id."""
    return int(predict_batch(bank, np.atleast_2d(v))[0])


def predict_batch(bank: ModelBank, vs: np.ndarray) -> np.ndarray:
    """``predict`` for every row of an (n, d) matrix, scored in blocks of rows.

    Each block is scored with one BLAS product. In any summation order, with
    or without FMA, a computed d-term dot product v . mu lies within
    E = gamma_d * sum|v_i mu_i| <= gamma_d * |v|_1 * max|mu_ij| (plus an
    underflow term) of the exact one, and so does the ``_dots`` entry. Where
    the best column beats the runner-up by more than 4 E, ``_dots`` has the
    same unique argmax; the check below asks for twice that, which also covers
    the rounding in the check itself. Every other row (an exact or near tie,
    NaN, overflow) is rescored with ``_dots``. So every row gets the argmax
    of ``_dots``, ties to the lowest class id, as ``predict`` defines it.
    """
    if not bank.class_ids:
        raise EmptyModel("model bank has no classes")
    # columns ascend by class id, so the first maximal column is the lowest tied class's
    column_class, means = bank.layout.column_class, bank.means
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    # a row is certified when its margin exceeds 2 * 4 E = |v|_1 * per_l1 + floor; the
    # |v|_1 * per_l1 product is a BLAS matvec, whose own rounding the factor 2 covers
    du = bank.dim * 2.0**-53
    per_l1 = np.full(bank.dim, 8.0 * du / (1.0 - du) * float(np.max(np.abs(means))))
    floor = 8.0 * bank.dim * np.finfo(np.float64).tiny  # underflow: d * 2**-1022, far above its bound
    out = np.empty(len(vs), dtype=np.int64)
    for lo in range(0, len(vs), PREDICT_BLOCK_ROWS):
        block = vs[lo : lo + PREDICT_BLOCK_ROWS]
        s = block @ means.T
        rows = np.arange(len(block))
        top = np.argmax(s, axis=1)
        best = s[rows, top]
        s[rows, top] = -np.inf
        # the runner-up; a row argmax is faster than a row max on short rows
        margin = best - s[rows, np.argmax(s, axis=1)]  # inf for a single column
        tol = np.abs(block) @ per_l1
        tol += floor
        redo = np.flatnonzero(~((margin > tol) & (best < np.inf)))  # NaN and overflow fail
        if redo.size:
            top[redo] = np.argmax(_dots(block[redo], means), axis=1)
        out[lo : lo + len(block)] = column_class[top]
    return out


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
        struct.pack("<IIfI", SNAPSHOT_VERSION, bank.dim, bank.kappa, len(bank.class_ids)),
    ]
    for c, lo, hi in zip(bank.class_ids, bank.offsets[:-1], bank.offsets[1:]):
        chunks.append(struct.pack("<II", c, hi - lo))
        chunks.append(bank.means[lo:hi].astype("<f4").tobytes())
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
        count_at = cur.pos
        (n_layers,) = cur.unpack("<I")
        if n_layers == 0:
            raise ParseError("backbone section has no layers", offset=count_at)
        layers = []
        for i in range(n_layers):
            header_at = cur.pos
            out_dim, in_dim = cur.unpack("<II")
            if layers and in_dim != layers[-1][0].shape[0]:
                raise ParseError(
                    f"backbone layer {i} input dim {in_dim} does not match layer {i - 1}",
                    offset=header_at,
                )
            if i == n_layers - 1 and out_dim != dim:
                raise ParseError(
                    f"backbone output dim {out_dim} differs from the bank dim {dim}", offset=header_at
                )
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
