"""Per-class vMF mixtures: posteriors, hard assignment, and class prediction.

Each class y owns K_y components with unit mean directions and an implicit
uniform component prior 1/K_y. All components across all classes share one
concentration kappa. A ``ModelBank`` packs every class's means in one (K, d)
array, with the index arrays of its class blocks; ``mixtures`` views each
class's rows as a ``ClassMixture``. Two inference rules are exposed and they
are not the same thing:

* ``log_posteriors`` mean-pools components per class (the training loss,
  ``loss_and_grad``, calls it),
* ``predict_batch`` max-pools over components (used for label prediction;
  the run's evaluation calls it once per session on every seen test record).

For a given input the argmax of the class posterior can legitimately differ
from ``predict_batch``; both paths are part of the contract.

The shared kappa cancels from every hard decision, so each is an argmax of
dot products, and one BLAS-free kernel, ``_dots``, defines them all: an
exact tie goes to the lowest class id or component index.
``assign_components_batch`` takes the argmax of ``_dots`` over one class's means.
``predict_batch`` takes one argmax over all the bank's columns, which
ascend by class id, and maps the winning column to its class; it scores
with BLAS and rescores with ``_dots`` every row whose margin does not
certify that both kernels pick the same column, so it returns the ``_dots``
answer on every row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyModel, ModelRegression, UnknownClass

SNAPSHOT_MAGIC = b"VMFB"
SNAPSHOT_VERSION = 1
BACKBONE_TAG = b"THET"

# Rows that predict_batch scores at once, bounding its (rows, K) block of dots; the
# run's evaluation (bench.seen_accuracies) forwards and predicts seen records, the
# teacher (trainer._old_log_posteriors) normalises its posteriors, and the VMFS reader
# and writer (streams) decode and encode records in blocks of the same size.
PREDICT_BLOCK_ROWS = 1024


@dataclass
class ClassMixture:
    """A view of one class's vMF components: its rows of a bank's packed means."""

    means: np.ndarray  # (K, d)

    @property
    def num_components(self) -> int:
        return self.means.shape[0]


class ModelBank:
    """All class mixtures observed so far, sharing dimension and kappa, packed in one array.

    Rows ``offsets[i]:offsets[i + 1]`` of the (K, d) ``means`` belong to
    class ``ids[i]`` (``class_ids`` is the same list); ``mixtures`` views
    each class's rows. ``ModelBank(dim, kappa)`` is the empty bank. The
    index arrays depend only on the ids and sizes: they are read-only and
    shared by every bank that ``with_means`` derives, so a training step
    reads them instead of rebuilding them per batch. They are ``ids``,
    ``offsets``, ``starts``, ``sizes``, ``log_sizes``, ``column_index``
    (position in ``ids`` of each column's class), ``column_class`` (its
    class id) and the spread penalty's weights, ``half_pair_weight`` (half
    of 1 / (K_c (K_c - 1)) per class, 0 for one component) and
    ``column_pair_weight`` (-1 / (K_c (K_c - 1) C) per column).

    Raises DimensionError unless the ids strictly ascend, every size is at
    least 1, and the means fill the blocks, each unit length within 1e-9.
    """

    def __init__(self, dim: int, kappa: float, class_ids=(), sizes=(), means: np.ndarray | None = None):
        self.ids = np.array(class_ids, dtype=np.int64)  # a copy: the caller's array stays writeable
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise DimensionError(f"class ids must strictly ascend, got {list(class_ids)}")
        self.offsets = np.cumsum([0, *sizes], dtype=np.int64)
        self.starts = self.offsets[:-1]
        self.sizes = np.diff(self.offsets)
        if np.any(self.sizes < 1):
            raise DimensionError(f"every class needs at least one component, got sizes {list(sizes)}")
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
        means = np.zeros((0, dim)) if means is None else means
        if means.shape != (self.offsets[-1], dim):
            raise DimensionError(f"means of shape {means.shape} do not fill the class blocks")
        if not np.all(np.abs(np.linalg.norm(means, axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise DimensionError("all component means must be unit length within 1e-9")
        self.dim, self.kappa, self.means = dim, kappa, means
        self.class_ids: list[int] = self.ids.tolist()
        # teacher_columns's last (teacher offsets, columns, kept), shared with every with_means bank
        self._teacher: list = [None, None, None]

    @property
    def mixtures(self) -> dict[int, ClassMixture]:
        """Per-class views of the packed rows, keyed by class id; not re-validated."""
        at = self.offsets.tolist()
        return {c: ClassMixture(self.means[lo:hi]) for c, lo, hi in zip(self.class_ids, at, at[1:])}

    def with_means(self, means: np.ndarray) -> "ModelBank":
        """A bank with this one's classes and index arrays and new (K, d) means, unchecked."""
        out = object.__new__(ModelBank)
        out.__dict__.update(self.__dict__)
        out.means = means
        return out

    def positions(self, y: np.ndarray) -> np.ndarray:
        """Position in ``ids`` of each label; UnknownClass for a label outside the bank."""
        at = np.searchsorted(self.ids, y)
        if at.size and not (self.ids.size and (self.ids.take(at, mode="clip") == y).all()):
            raise UnknownClass("a label the bank has never observed")
        return at

    def rows_of(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row of component ``z[i]`` of class ``y[i]`` for every i; ValueError unless
        ``z`` holds one component index per label, each inside its class."""
        at = self.positions(y)
        z = np.asarray(z, dtype=np.int64)
        if z.shape != at.shape:
            raise ValueError(f"need one assignment per record, got shape {z.shape} for {at.size}")
        if ((z < 0) | (z >= self.sizes[at])).any():
            raise ValueError("assignments must index a component of the record's class")
        return self.offsets[at] + z

    def teacher_columns(self, old: "ModelBank") -> tuple[np.ndarray, bool]:
        """This bank's columns of ``old``'s components, in ``old``'s column order,
        and whether every class of ``old`` kept its component count here.

        Expansion appends, so each of ``old``'s classes maps to the leading
        columns of the same class here. When no class grew, each of those
        column runs is a whole class block of this bank. The answer for the
        last ``old`` packing asked for is kept, so the check runs once per
        (packing, teacher packing) pair. Raises ModelRegression when a class
        or component of ``old`` is missing here.
        """
        if self._teacher[0] is old.offsets:
            return self._teacher[1], self._teacher[2]
        at = np.searchsorted(self.ids, old.ids)
        if not np.array_equal(self.ids.take(at, mode="clip"), old.ids) or np.any(self.sizes[at] < old.sizes):
            raise ModelRegression("the bank lost a class or component of the previous session")
        cols = np.repeat(self.offsets[at] - old.starts, old.sizes) + np.arange(old.offsets[-1])
        cols.flags.writeable = False
        kept = bool(np.array_equal(self.sizes[at], old.sizes))
        self._teacher[:] = old.offsets, cols, kept
        return cols, kept


def segment_log_softmax(t: np.ndarray, bank: ModelBank) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``t`` (n, K) with its log-softmax within each class block of ``bank``.

    Returns the (n, C) log-sum-exp of every block and an (n, K) scratch
    array, free for the caller to reuse (it held the exponentials of the
    max-shifted scores). Every block must be nonempty.
    """
    m = np.maximum.reduceat(t, bank.starts, axis=1)
    t -= np.repeat(m, bank.sizes, axis=1)
    scratch = np.exp(t)
    log_s = np.log(np.add.reduceat(scratch, bank.starts, axis=1))
    t -= np.repeat(log_s, bank.sizes, axis=1)
    m += log_s
    return m, scratch


def log_posteriors(t: np.ndarray, bank: ModelBank) -> tuple[np.ndarray, np.ndarray]:
    """Class and within-class log posteriors of kappa-scaled (n, K) scores ``t``.

    Overwrites ``t`` with the within-class log posteriors (``segment_log_softmax``)
    and returns the (n, C) class log posteriors, the log-softmax over classes
    of each block's log-sum-exp minus ``log K_c`` (components weighted 1/K_c),
    with the (n, K) scratch array of ``segment_log_softmax``.
    """
    lse, scratch = segment_log_softmax(t, bank)
    lse -= bank.log_sizes
    lse -= np.maximum.reduce(lse, axis=1, keepdims=True)
    lse -= np.log(np.add.reduce(np.exp(lse), axis=1, keepdims=True))
    return lse, scratch


def spread_penalty(bank: ModelBank) -> tuple[float, np.ndarray]:
    """The spread penalty of the bank's packed (K, d) means and their (C, d) per-class sums.

    The penalty is the negated mean over classes of each class's mean
    pairwise dot product of its component means; a single component adds 0.
    The bank must have a class.
    """
    means = bank.means
    sm = np.add.reduceat(means, bank.starts, axis=0)  # (C, d) per-class sums
    # sum_{i<j} mu_i . mu_j, written so it stays exact off-sphere too
    sq_norms = np.add.reduceat(np.add.reduce(means * means, axis=1), bank.starts)
    pairs = np.add.reduce(sm * sm, axis=1) - sq_norms
    return -float(np.add.reduce(bank.half_pair_weight * pairs)) / bank.ids.size, sm


def _dots(vs: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(n, K) dot products of the rows of ``vs`` with the rows of ``means``, without BLAS.

    Every entry is the same sum of products over d whatever the matrix
    shapes or row positions, so equal means give equal dots and an exact
    tie stays exact. C order is forced because strided operands are summed
    in another order.
    """
    vs, means = np.ascontiguousarray(vs, dtype=np.float64), np.ascontiguousarray(means)
    return np.einsum("nd,kd->nk", vs, means, optimize=False)


def assign_components_batch(means: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Hard assignment of every row of an (n, d) matrix against one class's (K_c, d)
    component ``means``: index of the mean closest to the row, ties to the lowest index."""
    return np.argmax(_dots(vs, means), axis=1)


def predict_batch(bank: ModelBank, vs: np.ndarray) -> np.ndarray:
    """Class of the single closest component mean for every row of an (n, d) matrix,
    ties to the lowest class id, scored in blocks of rows.

    Each block is scored with one BLAS product. In any summation order, with
    or without FMA, a computed d-term dot product v . mu lies within
    E = gamma_d * sum|v_i mu_i| <= gamma_d * |v|_1 * max|mu_ij| (plus an
    underflow term) of the exact one, and so does the ``_dots`` entry. Where
    the best column beats the runner-up by more than 4 E, ``_dots`` has the
    same unique argmax; the check below asks for twice that, which also covers
    the rounding in the check itself. Every other row (an exact or near tie,
    NaN, overflow) is rescored with ``_dots``. So every row gets the argmax
    of ``_dots``, ties to the lowest class id.
    """
    if not bank.class_ids:
        raise EmptyModel("model bank has no classes")
    # columns ascend by class id, so the first maximal column is the lowest tied class's
    column_class, means = bank.column_class, bank.means
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
# Versioned binary snapshots ("VMFB" container, then a "THET" backbone block),
# written by ``vmfcl run`` as model.vmfb; the package has no reader
# ---------------------------------------------------------------------------


def save_snapshot(path, bank: ModelBank, layers):
    """Write a bank and the backbone layers as a VMFB snapshot.

    Layout, all little-endian: magic "VMFB", u32 version, u32 d, f32 kappa,
    u32 class count, then per class (ascending id) u32 id, u32 K and K*d
    float32 means. A "THET" section follows for ``layers`` (a list of
    (weight, bias) pairs) with u32 layer count and per layer u32 out/in
    dims, the float32 weight matrix and the float32 bias.
    """
    chunks = [
        SNAPSHOT_MAGIC,
        struct.pack("<IIfI", SNAPSHOT_VERSION, bank.dim, bank.kappa, len(bank.class_ids)),
    ]
    for c, lo, hi in zip(bank.class_ids, bank.offsets[:-1], bank.offsets[1:]):
        chunks += [struct.pack("<II", c, hi - lo), bank.means[lo:hi].astype("<f4").tobytes()]
    chunks += [BACKBONE_TAG, struct.pack("<I", len(layers))]
    for w, b in layers:
        chunks += [struct.pack("<II", *w.shape), np.asarray(w, "<f4").tobytes(), np.asarray(b, "<f4").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))
