"""Oracles of the packed objective terms.

``clf_loss``, ``distill_loss`` and ``reg_loss`` are per-class loops, one
mixture at a time, sharing none of the packed code of
``vmfcl.backbone.loss_and_grad``.
``old_log_posteriors`` is the teacher as one whole-array pass; the blocked
teacher of ``vmfcl.trainer`` must equal it byte for byte. ``pair_subset``
picks the records of some (class, domain) pairs with one mask per pair, the
way splits and evaluation found them before ``streams.pair_index``.
"""

from __future__ import annotations

import math

import numpy as np

from vmfcl import backbone as bb
from vmfcl import mixture as mx
from vmfcl.errors import ModelRegression, NumericalError
from vmfcl.mixture import segment_log_softmax
from vmfcl.streams import FeatureRecords


def clf_loss(
    bank: mx.ModelBank,
    params: bb.BackboneParams,
    records: FeatureRecords,
    assignments: np.ndarray,
    lam: float,
) -> float:
    """Inter-class CE plus lam times the intra-class CE on the assigned component.

    ``assignments[i]`` is the component index of ``records[i]``.
    """
    z = np.asarray(assignments, dtype=np.int64)
    if z.shape != (len(records),):
        raise ValueError(f"need one assignment per record, got shape {z.shape} for {len(records)}")
    feats = bb.forward_batch(params, records.x)
    ids, mixtures = bank.class_ids, bank.mixtures
    col = {c: i for i, c in enumerate(ids)}
    inter = 0.0
    intra = 0.0
    for c in sorted(np.unique(records.y).tolist()):
        rows = np.flatnonzero(records.y == c)
        scores = _class_log_scores_batch(bank, feats[rows])
        logp = scores - _logsumexp_rows(scores)
        inter -= float(np.sum(logp[:, col[c]]))
        t = bank.kappa * (feats[rows] @ mixtures[c].means.T)
        logq = t - _logsumexp_rows(t)
        intra -= float(np.sum(logq[np.arange(rows.size), z[rows]]))
    n = len(records)
    value = inter / n + lam * (intra / n)
    if not math.isfinite(value):
        raise NumericalError(f"classification loss is non-finite ({value})")
    return value


def _logsumexp_rows(t: np.ndarray) -> np.ndarray:
    m = np.max(t, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(t - m), axis=1, keepdims=True))


def _class_log_scores_batch(bank: mx.ModelBank, feats: np.ndarray) -> np.ndarray:
    out = np.empty((feats.shape[0], len(bank.class_ids)))
    for i, mix in enumerate(bank.mixtures.values()):
        t = bank.kappa * (feats @ mix.means.T)
        out[:, i] = _logsumexp_rows(t)[:, 0] - np.log(t.shape[1])
    return out


def distill_loss(
    bank: mx.ModelBank,
    params: bb.BackboneParams,
    old_params: bb.BackboneParams,
    old_bank: mx.ModelBank,
    records: FeatureRecords,
) -> float:
    """Mean KL between current and previous-session component posteriors.

    ``old_params`` and ``old_bank`` are the previous session's model. For
    every example and every class the old bank knows, the current posterior
    is restricted to the components inherited from it (the leading block,
    since expansion appends) and renormalized before comparing. Defined as 0
    in the first session, when the old bank has no class.
    """
    if not old_bank.class_ids:
        return 0.0
    feats = bb.forward_batch(params, records.x)
    old_feats = bb.forward_batch(old_params, records.x)
    total = 0.0
    old_ids, mixtures = old_bank.class_ids, bank.mixtures
    for c, old_mix in old_bank.mixtures.items():
        if c not in mixtures:
            raise ModelRegression(f"class {c} from the previous session is missing from the bank")
        k_old = old_mix.num_components
        if mixtures[c].num_components < k_old:
            raise ModelRegression(f"class {c} lost inherited components")
        t_new = bank.kappa * (feats @ mixtures[c].means[:k_old].T)
        t_old = old_bank.kappa * (old_feats @ old_mix.means.T)
        log_q = t_new - _logsumexp_rows(t_new)
        log_r = t_old - _logsumexp_rows(t_old)
        total += float(np.sum(np.exp(log_q) * (log_q - log_r)))
    value = total / (len(records) * len(old_ids))
    if not math.isfinite(value):
        raise NumericalError(f"distillation loss is non-finite ({value})")
    return value


def reg_loss(bank) -> float:
    """Negated mean pairwise dot product of each class's component means.

    Classes with a single component contribute zero; every class's value is
    bounded in [-0.5, 0.5] because the pair weights sum to one half.
    """
    if not bank.mixtures:
        raise ValueError("bank must have at least one class")
    total = 0.0
    for mix in bank.mixtures.values():
        m = mix.means
        k = m.shape[0]
        if k < 2:
            continue
        sm = np.sum(m, axis=0)
        total -= (float(sm @ sm) - float(np.sum(m * m))) * 0.5 / (k * (k - 1))
    return total / len(bank.mixtures)


def old_log_posteriors(teacher: mx.ModelBank, feats: np.ndarray) -> np.ndarray:
    """Teacher log posteriors, log-softmax per class, over the whole (n, K_old) array at once."""
    t = teacher.kappa * (feats @ teacher.means.T)
    segment_log_softmax(t, teacher)
    return t


def pair_subset(pool, pairs):
    """The records of the listed (class, domain) pairs, in pool order."""
    mask = np.zeros(len(pool), dtype=bool)
    for c, z in pairs:
        mask |= (pool.y == c) & (pool.domain == z)
    return pool.subset(mask)
