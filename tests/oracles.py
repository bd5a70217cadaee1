"""Oracles of the packed objective terms.

``reg_loss`` is a per-class loop sharing none of the packed code.
``old_log_posteriors`` is the teacher as one whole-array pass; the blocked
teacher of ``vmfcl.trainer`` must equal it byte for byte. ``pair_subset``
picks the records of some (class, domain) pairs with one mask per pair, the
way splits and evaluation found them before ``streams.pair_index``.
"""

import numpy as np

from vmfcl.mixture import segment_log_softmax


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


def old_log_posteriors(snapshot, feats: np.ndarray) -> np.ndarray:
    """Teacher log posteriors, log-softmax per class, over the whole (n, K_old) array at once."""
    t = snapshot.bank.kappa * (feats @ snapshot.bank.means.T)
    segment_log_softmax(t, snapshot.bank.layout)
    return t


def pair_subset(pool, pairs):
    """The records of the listed (class, domain) pairs, in pool order."""
    mask = np.zeros(len(pool), dtype=bool)
    for c, z in pairs:
        mask |= (pool.y == c) & (pool.domain == z)
    return pool.subset(mask)
