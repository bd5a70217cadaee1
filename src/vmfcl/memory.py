"""Bi-level balanced replay memory.

The budget is split evenly across classes first (remainder to the lowest
class ids), then each class's quota is split evenly across that class's
mixture components (remainder to the components with the most candidates).
Sampling inside a component is uniform without replacement. A component that
cannot fill its quota spills the shortfall to its siblings, largest
remaining pool first, so a class uses its whole quota whenever it has
enough examples overall.
Every record maps to the packed bank row of its (class, component); one
stable sort of those rows lists each component's candidates in record order.
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
    ids receive quota 1 each. A record whose class or component the bank
    lacks raises UnknownClass or ValueError.
    """
    z = np.asarray(assignments, dtype=np.int64)
    if z.shape != (len(records),):
        raise ValueError(f"need one assignment per record, got shape {z.shape} for {len(records)}")
    class_ids = bank.class_ids
    if not class_ids:
        raise ValueError("cannot select memory before any class was observed")
    if budget < len(class_ids):
        warnings.warn(
            f"memory budget {budget} is below the class count {len(class_ids)}",
            InsufficientBudget,
        )

    # one stable sort of the bank row index lists every row's candidates, ascending
    rows = bank.layout.rows_of(records.y, z)
    by_row = np.argsort(rows, kind="stable")
    sizes = np.bincount(rows, minlength=bank.means.shape[0])
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    picked, picked_comp = [], []
    base_quota, rem_quota = divmod(budget, len(class_ids))
    for i, (lo, hi) in enumerate(zip(bank.offsets[:-1].tolist(), bank.offsets[1:].tolist())):
        quota = base_quota + (i < rem_quota)
        if quota == 0:
            continue
        avail = sizes[lo:hi]
        base, rem = divmod(quota, hi - lo)
        take = np.full(hi - lo, base, dtype=np.int64)
        take[np.argsort(-avail, kind="stable")[:rem]] += 1  # most candidates first, then lowest k
        # cap by availability, then spill the shortfall largest-pool-first
        shortfall = int(np.sum(np.maximum(take - avail, 0)))
        np.minimum(take, avail, out=take)
        while shortfall > 0 and np.any(take < avail):
            take[np.argmax(avail - take)] += 1  # ties to the lowest k
            shortfall -= 1
        for k in np.flatnonzero(take).tolist():
            cands = by_row[bounds[lo + k] : bounds[lo + k + 1]]
            picked.append(np.sort(rng.choice(cands, size=int(take[k]), replace=False)))
            picked_comp.append(np.full(int(take[k]), k, dtype=np.int64))

    idx = np.concatenate([np.zeros(0, np.int64), *picked])
    comps = np.concatenate([np.zeros(0, np.int64), *picked_comp])
    subset = records.subset(idx)
    subset.role = np.full(len(subset), ROLE_MEMORY, np.uint8)
    return MemoryBuffer(budget, subset, comps)
