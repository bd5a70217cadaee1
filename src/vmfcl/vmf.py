"""Unit-sphere projection of feature vectors.

Every feature and component mean lives on the unit sphere S^{d-1}. All
components share one concentration kappa, so the vMF normalizer cancels
from every posterior and no density is evaluated: ``normalize`` and
``normalize_rows`` project onto the sphere. Norms below ``ZERO_NORM_EPS``
count as zero, and an infinite norm (a vector whose squared entries
overflow) is rejected too: dividing by it would give a zero vector.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFeature, DimensionError

# Norms below this are treated as zero (dead feature vectors).
ZERO_NORM_EPS = 1e-12


def normalize(v) -> np.ndarray:
    """Project a vector onto the unit sphere.

    Already-unit inputs are returned unchanged, which makes the operation
    bitwise idempotent: normalize(normalize(v)) == normalize(v) exactly.

    Raises:
        DimensionError: fewer than 2 entries.
        DegenerateFeature: (near-)zero, infinite or NaN norm.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise DimensionError(f"expected a vector with d >= 2 entries, got shape {arr.shape}")
    n = float(np.linalg.norm(arr))
    if not ZERO_NORM_EPS <= n < np.inf:  # NaN fails too
        raise DegenerateFeature(f"cannot normalize a vector with norm {n:.3e}")
    if abs(n - 1.0) < ZERO_NORM_EPS:
        return arr
    return arr / n


def row_norms(x: np.ndarray) -> np.ndarray:
    """(n, 1) Euclidean norms of the rows of a real (n, d) matrix.

    The same reduction ``np.linalg.norm(x, axis=1, keepdims=True)`` runs,
    without its argument handling.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))


def normalize_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise unit projection of an (n, d) matrix, into ``out`` when given (may be ``x``).

    Raises DegenerateFeature if any row is non-finite or has a (near-)zero
    or infinite norm.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = row_norms(x)
    # a NaN or infinite entry gives a NaN or infinite norm, so one test on the norms covers it
    ok = (norms >= ZERO_NORM_EPS) & (norms < np.inf)
    if not ok.all():
        if not np.isfinite(x).all():
            raise DegenerateFeature("non-finite entries in feature rows")
        row = int(np.argmin(ok))
        raise DegenerateFeature(f"row {row} has norm {float(norms[row, 0]):.3e}")
    return np.divide(x, norms, out=out)
