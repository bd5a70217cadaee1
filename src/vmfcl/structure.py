"""Mixture expansion at session start and hierarchical reduction afterwards.

Expansion appends m randomly initialized components to every incoming class
(or creates a fresh mixture for a new class). Reduction runs per class, after
training: components that attracted no examples are dropped, then the current
closest pair of clusters is merged repeatedly while their distance
1 - <mu_i, mu_j> stays below the threshold. Merging pools the raw feature
sums, so the merged mean is the renormalized average of every member example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateMerge
from .mixture import ClassMixture, ModelBank
from .vmf import ZERO_NORM_EPS, normalize, normalize_rows


@dataclass
class ReductionConfig:
    delta: float = 0.7
    min_components: int = 1
    # Components with fewer assigned examples than this are dropped along
    # with the empty ones. The default 1 only removes empties; benchmark
    # configs raise it so replay quotas never land on starved components.
    min_count: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta < 2.0:
            raise ConfigError(f"delta must lie in (0, 2), got {self.delta}")
        if self.min_components < 1:
            raise ConfigError("min_components must be at least 1")
        if self.min_count < 1:
            raise ConfigError("min_count must be at least 1")


@dataclass
class ComponentStats:
    """Assignment statistics of one component: example count and feature sum."""

    count: int
    vec_sum: np.ndarray

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        self.vec_sum = np.asarray(self.vec_sum, dtype=np.float64)


@dataclass
class ReductionRecord:
    """Per-class reduction outcome: sizes and the original -> output merge map.

    ``merge_map[i]`` is the output slot of original component i, or -1 for
    components dropped because no example was assigned to them.
    """

    k_before: int
    k_after: int
    merge_map: list[int] = field(default_factory=list)


def expand(bank: ModelBank, incoming_classes, m: int, rng: np.random.Generator) -> ModelBank:
    """Append m fresh components (uniform random directions) per incoming class.

    Existing means are untouched and keep their indices; new classes get a
    mixture of exactly m components. Classes absent from ``incoming_classes``
    are left alone. Returns a new bank.
    """
    if m < 1:
        raise ConfigError(f"expansion size m must be at least 1, got {m}")
    mixtures = dict(bank.mixtures)
    for c in sorted(set(int(c) for c in incoming_classes)):
        means = normalize_rows(rng.standard_normal((m, bank.dim)))
        if c in mixtures:
            means = np.vstack([mixtures[c].means, means])
        mixtures[c] = ClassMixture(c, means)
    return ModelBank(bank.dim, bank.kappa, mixtures)


def merge_pair(a: ComponentStats, b: ComponentStats) -> tuple[np.ndarray, ComponentStats]:
    """Merge two clusters; the new mean is the renormalized pooled feature average."""
    total = a.count + b.count
    if total < 1:
        raise ValueError("cannot merge two empty clusters")
    vec_sum = a.vec_sum + b.vec_sum
    if float(np.linalg.norm(vec_sum)) < ZERO_NORM_EPS:
        raise DegenerateMerge("merged feature sums cancel (antipodal clusters)")
    mean = normalize(vec_sum / total)
    return mean, ComponentStats(total, vec_sum)


def collect_stats(
    bank: ModelBank, y: np.ndarray, z: np.ndarray, feats: np.ndarray
) -> dict[int, list[ComponentStats]]:
    """Per-class per-component counts and unit-feature sums from an E-step."""
    y = np.asarray(y)
    z = np.asarray(z)
    stats: dict[int, list[ComponentStats]] = {}
    for c, k_c in zip(bank.class_ids, bank.sizes.tolist()):
        rows = np.flatnonzero(y == c)
        per_comp = []
        for k in range(k_c):
            sel = rows[z[rows] == k]
            per_comp.append(ComponentStats(int(sel.size), np.sum(feats[sel], axis=0) if sel.size else np.zeros(bank.dim)))
        stats[c] = per_comp
    return stats


def _reduce_class(
    mix: ClassMixture, stats: list[ComponentStats], cfg: ReductionConfig
) -> tuple[ClassMixture, ReductionRecord]:
    k_before = mix.num_components
    record = ReductionRecord(k_before=k_before, k_after=0, merge_map=[-1] * k_before)

    alive = [k for k in range(k_before) if stats[k].count >= cfg.min_count]
    if not alive:
        # Nothing (or too little) reached this class this session; keep the
        # single highest-count component rather than an empty mixture.
        keep = int(np.argmax([s.count for s in stats]))
        record.merge_map[keep] = 0
        record.k_after = 1
        return ClassMixture(mix.class_id, mix.means[keep : keep + 1].copy()), record

    means = [mix.means[k].copy() for k in alive]
    cstats = [ComponentStats(stats[k].count, stats[k].vec_sum.copy()) for k in alive]
    members = [[k] for k in alive]

    while len(means) > cfg.min_components:
        m = np.vstack(means)
        dist = 1.0 - m @ m.T
        np.fill_diagonal(dist, np.inf)
        flat = int(np.argmin(dist))  # first occurrence = lexicographically lowest pair
        i, j = divmod(flat, len(means))
        if i > j:
            i, j = j, i
        if dist[i, j] >= cfg.delta:
            break
        new_mean, new_stats = merge_pair(cstats[i], cstats[j])
        means[i] = new_mean
        cstats[i] = new_stats
        members[i] = members[i] + members[j]
        del means[j], cstats[j], members[j]

    for out_idx, orig in enumerate(members):
        for k in orig:
            record.merge_map[k] = out_idx
    record.k_after = len(means)
    return ClassMixture(mix.class_id, np.vstack(means)), record


def reduce(
    bank: ModelBank, stats: dict[int, list[ComponentStats]], cfg: ReductionConfig
) -> tuple[ModelBank, dict[int, ReductionRecord]]:
    """Drop empty components, then agglomeratively merge each class's clusters.

    ``stats`` must cover every component of every class. Reduction never
    crosses class boundaries. Returns the reduced bank and per-class records.
    """
    reduced: dict[int, ClassMixture] = {}
    records: dict[int, ReductionRecord] = {}
    for c, mix in bank.mixtures.items():
        if c not in stats or len(stats[c]) != mix.num_components:
            raise ValueError(f"stats for class {c} do not cover its {mix.num_components} components")
        reduced[c], records[c] = _reduce_class(mix, stats[c], cfg)
    return ModelBank(bank.dim, bank.kappa, reduced), records
