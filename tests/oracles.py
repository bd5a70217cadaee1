"""Per-class oracles of the packed objective terms, sharing none of its code."""

import numpy as np


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
