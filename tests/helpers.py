"""Test helpers: one way to build a bank, and one-row calls of the batch functions."""

import numpy as np

from vmfcl.backbone import forward_batch
from vmfcl.mixture import BankLayout, ModelBank, assign_components_batch, predict_batch


def make_bank(dim: int, kappa: float, mixtures: dict) -> ModelBank:
    """A bank of ``{class id: (K, d) means}``, packed in ascending class order by
    ``ModelBank.from_packed``, which checks the means."""
    ids = sorted(mixtures)
    blocks = [np.asarray(mixtures[c], dtype=np.float64) for c in ids]
    means = np.vstack(blocks) if blocks else np.zeros((0, dim))
    return ModelBank.from_packed(dim, kappa, BankLayout(ids, [len(b) for b in blocks]), means)


def predict_one(bank: ModelBank, v) -> int:
    return int(predict_batch(bank, np.atleast_2d(v))[0])


def assign_one(bank: ModelBank, class_id: int, v) -> int:
    return int(assign_components_batch(bank, class_id, np.atleast_2d(v))[0])


def forward_one(params, x) -> np.ndarray:
    return forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]
