"""Bi-level balanced replay memory.

The budget is split evenly across classes first (remainder to the lowest
class ids), then each class's quota is split evenly across that class's
mixture components (remainder to the components with the most candidates).
Sampling inside a component is uniform without replacement. A component that
cannot fill its quota spills the shortfall to its siblings, largest
remaining pool first, so a class uses its whole quota whenever it has
enough examples overall.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBudget
from .mixture import ModelBank
from .streams import ROLE_MEMORY, FeatureRecords


@dataclass
class MemoryBuffer:
    """Bounded exemplar store with per-class / per-component provenance."""

    budget: int
    records: FeatureRecords
    components: np.ndarray  # component index each record was selected from
    insufficient_budget: bool = False

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=np.int64)
        if len(self.records) > self.budget:
            raise ValueError(f"buffer holds {len(self.records)} records over budget {self.budget}")

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def empty(cls, budget: int, dim: int) -> "MemoryBuffer":
        return cls(budget, FeatureRecords.empty(dim), np.zeros(0, np.int64))

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.records.y, return_counts=True)
        return {int(c): int(n) for c, n in zip(ids, counts)}

    def component_counts(self) -> dict[int, list[int]]:
        """Per class, how many stored exemplars came from each component."""
        out: dict[int, list[int]] = {}
        for c in sorted(np.unique(self.records.y).tolist()):
            rows = self.records.y == c
            comps = self.components[rows]
            counts = np.bincount(comps, minlength=int(np.max(comps)) + 1 if comps.size else 0)
            out[c] = counts.tolist()
        return out


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
    """Build the next session's replay buffer from all currently available data.

    ``assignments[i]`` is the component index of ``records[i]``, from the
    final post-reduction E-step. When the budget is smaller than the number
    of classes an InsufficientBudget warning is emitted and the lowest class
    ids receive quota 1 each.
    """
    z = np.asarray(assignments, dtype=np.int64)
    if z.shape != (len(records),):
        raise ValueError(f"need one assignment per record, got shape {z.shape} for {len(records)}")
    class_ids = bank.class_ids
    if not class_ids:
        raise ValueError("cannot select memory before any class was observed")
    quotas = _class_quotas(class_ids, budget)
    short = budget < len(class_ids)
    if short:
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
        # cap by availability, then spill the shortfall largest-pool-first
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
    return MemoryBuffer(budget, subset, comps, insufficient_budget=short)
