"""Mixture expansion at session start and hierarchical reduction afterwards.

All of it works on the bank's packed (K, d) means in row order. Expansion
appends m randomly initialized rows to every incoming class's block (a new
class gets m rows at its sorted position). ``collect_stats`` turns an E-step
into (K,) counts and (K, d) feature sums. Reduction runs per class block,
after training: rows with fewer than ``min_count`` examples are dropped,
then the current closest pair of clusters is merged repeatedly while their
distance 1 - <mu_i, mu_j> stays below the threshold. Merging pools the raw
feature sums, so the merged mean is the renormalized average of every
member example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_ranges
from .errors import ConfigError, DegenerateMerge
from .mixture import ModelBank
from .vmf import ZERO_NORM_EPS, normalize, normalize_rows


@dataclass
class ReductionConfig:
    delta: float = field(default=0.7, metadata={"range": "(0, 2)"})
    min_components: int = field(default=1, metadata={"range": "[1, inf)"})
    # Components with fewer assigned examples than this are dropped along
    # with the empty ones. The default 1 only removes empties; benchmark
    # configs raise it so replay quotas never land on starved components.
    min_count: int = field(default=1, metadata={"range": "[1, inf)"})

    def __post_init__(self):
        check_ranges(self)


def expand(bank: ModelBank, incoming_classes, m: int, rng: np.random.Generator) -> ModelBank:
    """Append m fresh rows (uniform random directions) to each incoming class's block.

    Existing means are untouched and keep their order within their class;
    a new class gets a block of exactly m rows. Classes absent from
    ``incoming_classes`` are left alone. The fresh rows are drawn in
    ascending class order. Returns a new bank.
    """
    if m < 1:
        raise ConfigError(f"expansion size m must be at least 1, got {m}")
    incoming = sorted(set(int(c) for c in incoming_classes))
    sizes = dict(zip(bank.class_ids, bank.sizes.tolist()))
    for c in incoming:
        sizes[c] = sizes.get(c, 0) + m
    ids = sorted(sizes)
    fresh = normalize_rows(rng.standard_normal((len(incoming) * m, bank.dim)))
    # a class's block end, or where a new class's block starts, in the old rows
    ends = bank.offsets[np.searchsorted(bank.ids, incoming, side="right")]
    means = np.insert(bank.means, np.repeat(ends, m), fresh, axis=0)
    return ModelBank(bank.dim, bank.kappa, ids, [sizes[c] for c in ids], means)


def merge_pair(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]):
    """Merge two (count, feature sum) clusters; returns the renormalized pooled mean and (count, sum)."""
    total = a[0] + b[0]
    if total < 1:
        raise ValueError("cannot merge two empty clusters")
    vec_sum = np.add(a[1], b[1])
    if float(np.linalg.norm(vec_sum)) < ZERO_NORM_EPS:
        raise DegenerateMerge("merged feature sums cancel (antipodal clusters)")
    return normalize(vec_sum / total), (total, vec_sum)


def collect_stats(
    bank: ModelBank, y: np.ndarray, z: np.ndarray, feats: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(K,) example counts and (K, d) unit-feature sums of the bank's rows, from an E-step.

    Record i belongs to component ``z[i]`` of class ``y[i]``. Each entry of a
    row's sum adds its records in order onto +0.0, as NumPy 2's
    ``np.sum(feats[sel], axis=0)`` does, so the two agree bit for bit (-0.0
    entries alone sum to +0.0); one weighted ``bincount`` over (row, column)
    cells does that.
    """
    rows = bank.rows_of(y, z)
    k, d = bank.means.shape
    cells = (rows[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=np.ravel(feats), minlength=k * d)
    # with no records at all, bincount returns integer zeros
    return np.bincount(rows, minlength=k), sums.astype(np.float64, copy=False).reshape(k, d)


def _reduce_class(
    means: np.ndarray, counts: np.ndarray, sums: np.ndarray, cfg: ReductionConfig
) -> tuple[np.ndarray, list[int]]:
    """Reduce one class block; ``means``, ``counts`` and ``sums`` are its rows."""
    merge_map = np.full(counts.size, -1)
    alive = np.flatnonzero(counts >= cfg.min_count)
    if not alive.size:
        # Nothing (or too little) reached this class this session; keep the
        # single highest-count component rather than an empty mixture.
        keep = int(np.argmax(counts))
        merge_map[keep] = 0
        return means[keep : keep + 1], merge_map.tolist()

    means, counts, sums = means[alive], counts[alive].tolist(), list(sums[alive])
    members = [[k] for k in alive.tolist()]
    while len(members) > cfg.min_components:
        dist = 1.0 - means @ means.T
        np.fill_diagonal(dist, np.inf)
        i, j = divmod(int(np.argmin(dist)), len(members))  # first occurrence = lowest pair
        if i > j:
            i, j = j, i
        if dist[i, j] >= cfg.delta:
            break
        means[i], (counts[i], sums[i]) = merge_pair((counts[i], sums[i]), (counts[j], sums[j]))
        members[i] += members.pop(j)
        del counts[j], sums[j]
        means = np.delete(means, j, axis=0)

    for out_idx, orig in enumerate(members):
        merge_map[orig] = out_idx
    return means, merge_map.tolist()


def reduce(
    bank: ModelBank, counts: np.ndarray, sums: np.ndarray, cfg: ReductionConfig
) -> tuple[ModelBank, dict[int, list[int]]]:
    """Drop starved components, then agglomeratively merge each class's clusters.

    ``counts`` (K,) and ``sums`` (K, d) hold every bank row's statistics,
    as ``collect_stats`` returns them. Reduction never crosses class
    boundaries. Returns the reduced bank and each class id's merge map:
    ``merge_map[i]`` is the output component of the class's original
    component i, or -1 for one dropped with fewer than ``min_count``
    assigned examples. A map is onto ``0..k_after-1``, so the class had
    ``len(merge_map)`` components before and ``max(merge_map) + 1`` after.
    """
    if counts.shape != bank.means.shape[:1] or sums.shape != bank.means.shape:
        raise ValueError(f"stats do not cover the bank's {bank.means.shape[0]} components")
    blocks, sizes, merge_maps = [bank.means[:0]], [], {}
    for c, lo, hi in zip(bank.class_ids, bank.offsets[:-1].tolist(), bank.offsets[1:].tolist()):
        block, merge_maps[c] = _reduce_class(bank.means[lo:hi], counts[lo:hi], sums[lo:hi], cfg)
        blocks.append(block)
        sizes.append(block.shape[0])
    return ModelBank(bank.dim, bank.kappa, bank.class_ids, sizes, np.concatenate(blocks)), merge_maps
