"""Reference expansion, reduction statistics, reduction and memory selection, one class at a time.

These are ``vmfcl.structure`` and ``vmfcl.memory`` as written before they
worked on the bank's packed arrays: ``collect_stats`` builds one
``ComponentStats`` per component in a Python loop, ``reduce`` and
``expand`` round-trip through a dict of ``ClassMixture``, and
``select_memory`` rebuilds each class's candidate lists. The package must
return the same bytes; ``test_structure_reference.py`` checks that. Nothing
here imports the package's structure or memory code, only its data types
and errors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from vmfcl.errors import ConfigError, DegenerateMerge, InsufficientBudget
from vmfcl.memory import MemoryBuffer
from vmfcl.mixture import ClassMixture, ModelBank
from vmfcl.streams import ROLE_MEMORY, FeatureRecords
from vmfcl.vmf import ZERO_NORM_EPS, normalize, normalize_rows


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
    k_before: int
    k_after: int
    merge_map: list[int] = field(default_factory=list)


def expand(bank: ModelBank, incoming_classes, m: int, rng: np.random.Generator) -> ModelBank:
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


def _reduce_class(mix: ClassMixture, stats: list[ComponentStats], cfg) -> tuple[ClassMixture, ReductionRecord]:
    k_before = mix.num_components
    record = ReductionRecord(k_before=k_before, k_after=0, merge_map=[-1] * k_before)

    alive = [k for k in range(k_before) if stats[k].count >= cfg.min_count]
    if not alive:
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
        flat = int(np.argmin(dist))
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
    bank: ModelBank, stats: dict[int, list[ComponentStats]], cfg
) -> tuple[ModelBank, dict[int, ReductionRecord]]:
    reduced: dict[int, ClassMixture] = {}
    records: dict[int, ReductionRecord] = {}
    for c, mix in bank.mixtures.items():
        if c not in stats or len(stats[c]) != mix.num_components:
            raise ValueError(f"stats for class {c} do not cover its {mix.num_components} components")
        reduced[c], records[c] = _reduce_class(mix, stats[c], cfg)
    return ModelBank(bank.dim, bank.kappa, reduced), records


def _class_quotas(class_ids: list[int], budget: int) -> dict[int, int]:
    base, rem = divmod(budget, len(class_ids))
    return {c: base + (1 if i < rem else 0) for i, c in enumerate(class_ids)}


def select_memory(
    bank: ModelBank,
    records: FeatureRecords,
    assignments: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> MemoryBuffer:
    z = np.asarray(assignments, dtype=np.int64)
    if z.shape != (len(records),):
        raise ValueError(f"need one assignment per record, got shape {z.shape} for {len(records)}")
    class_ids = bank.class_ids
    if not class_ids:
        raise ValueError("cannot select memory before any class was observed")
    quotas = _class_quotas(class_ids, budget)
    if budget < len(class_ids):
        warnings.warn(
            f"memory budget {budget} is below the class count {len(class_ids)}",
            InsufficientBudget,
        )

    picked: list[np.ndarray] = []
    picked_comp: list[np.ndarray] = []
    for c, k_c in zip(class_ids, bank.sizes.tolist()):
        quota = quotas[c]
        if quota == 0:
            continue
        rows = np.flatnonzero(records.y == c)
        cands = [rows[z[rows] == k] for k in range(k_c)]
        base, rem = divmod(quota, k_c)
        take = np.full(k_c, base, dtype=np.int64)
        by_size = sorted(range(k_c), key=lambda k: (-cands[k].size, k))
        for k in by_size[:rem]:
            take[k] += 1
        shortfall = 0
        for k in range(k_c):
            over = take[k] - cands[k].size
            if over > 0:
                take[k] = cands[k].size
                shortfall += int(over)
        while shortfall > 0:
            spare = [(cands[k].size - take[k], k) for k in range(k_c) if cands[k].size > take[k]]
            if not spare:
                break
            k = max(spare, key=lambda sk: (sk[0], -sk[1]))[1]
            take[k] += 1
            shortfall -= 1
        for k in range(k_c):
            if take[k] == 0:
                continue
            chosen = rng.choice(cands[k], size=int(take[k]), replace=False)
            picked.append(np.sort(chosen))
            picked_comp.append(np.full(int(take[k]), k, dtype=np.int64))

    if picked:
        idx = np.concatenate(picked)
        comps = np.concatenate(picked_comp)
    else:
        idx = np.zeros(0, dtype=np.int64)
        comps = np.zeros(0, dtype=np.int64)
    subset = records.subset(idx)
    subset.role = np.full(len(subset), ROLE_MEMORY, np.uint8)
    return MemoryBuffer(budget, subset, comps)
