"""Property tests: the BLAS-scored ``predict_batch`` returns the ``_dots`` argmax on every row.

``predict_batch`` scores each block of rows with one BLAS product and
rescores with ``_dots`` every row whose margin between the best and the
runner-up column does not certify that both kernels pick the same column.
The banks here share means exactly (exact ties), hold means a few ulps
apart (margins inside the tolerance) and are scored on rows of many scales,
NaN rows included, on both sides of ``PREDICT_BLOCK_ROWS``. Whatever path a
row takes, the answer must be ``column_class[argmax(_dots)]``, ties to the
lowest class id.
"""

from unittest import mock

import numpy as np
from helpers import make_bank
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vmfcl import mixture
from vmfcl.mixture import PREDICT_BLOCK_ROWS, ModelBank, predict_batch
from vmfcl.vmf import normalize_rows

SCALES = np.array([1e-310, 1e-200, 1e-3, 1.0, 7.5, 1e150, 1e306])


def nudged(mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``mean`` with a few entries moved a few ulps: still unit within 1e-9."""
    out = mean.copy()
    for i in rng.choice(out.size, size=min(3, out.size), replace=False):
        for _ in range(rng.integers(1, 4)):
            out[i] = np.nextafter(out[i], np.inf if rng.random() < 0.5 else -np.inf)
    return out


@st.composite
def scored_banks(draw):
    """A bank of K 1-600 columns (d 2-64) with shared and ulp-apart means, and rows to score."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 64))
    k = draw(st.integers(1, 600))
    n_classes = draw(st.integers(1, min(k, 30)))
    ids = np.sort(rng.choice(1000, size=n_classes, replace=False)).tolist()
    cuts = np.sort(rng.choice(np.arange(1, k), size=n_classes - 1, replace=False)) if n_classes > 1 else []
    offsets = np.concatenate([[0], cuts, [k]]).astype(int)
    p_shared = draw(st.sampled_from([0.0, 0.2, 0.5]))
    p_ulps = draw(st.sampled_from([0.0, 0.2, 0.5]))
    means = normalize_rows(rng.standard_normal((k, d)))
    for j in range(1, k):
        u = rng.random()
        if u < p_shared:
            means[j] = means[rng.integers(j)]
        elif u < p_shared + p_ulps:
            means[j] = nudged(means[rng.integers(j)], rng)
    bank = make_bank(d, 16.0, {
        c: means[lo:hi] for c, lo, hi in zip(ids, offsets[:-1], offsets[1:])
    })
    n = draw(st.one_of(st.integers(1, 40), st.integers(PREDICT_BLOCK_ROWS - 2, PREDICT_BLOCK_ROWS + 40)))
    # rows at a mean (where shared and ulp-apart means compete) or anywhere, at many scales
    vs = rng.standard_normal((n, d))
    at_mean = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    vs[at_mean] = means[rng.integers(k, size=int(at_mean.sum()))]
    vs *= rng.choice(SCALES, size=(n, 1))
    vs[rng.random(n) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    return bank, vs


def rescored_rows(bank: ModelBank, vs: np.ndarray) -> tuple[np.ndarray, int]:
    """``predict_batch(bank, vs)`` and the number of rows it rescored with ``_dots``."""
    seen = []
    dots = mixture._dots

    def counting(rows, means):
        seen.append(len(rows))
        return dots(rows, means)

    with mock.patch.object(mixture, "_dots", counting):
        pred = predict_batch(bank, vs)
    return pred, sum(seen)


def dots_argmax(bank: ModelBank, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The defining answer, and which rows tie at their maximum under ``_dots``."""
    dots = mixture._dots(vs, bank.means)
    with np.errstate(invalid="ignore"):
        tied = (dots == np.max(dots, axis=1, keepdims=True)).sum(axis=1) > 1
    return bank.column_class[np.argmax(dots, axis=1)], tied


@settings(max_examples=120, deadline=None, database=None)
@given(scored_banks())
def test_certified_argmax_equals_the_dots_argmax(case):
    bank, vs = case
    pred, rescored = rescored_rows(bank, vs)
    want, tied = dots_argmax(bank, vs)
    np.testing.assert_array_equal(pred, want)
    # a row tied under _dots, or a NaN row, can never be certified
    assert rescored >= int(tied.sum()) + int(np.isnan(vs).any(axis=1).sum())
    event("rows rescored" if rescored else "no row rescored")
    event("rows certified" if rescored < len(vs) else "no row certified")


def test_both_paths_run_on_one_bank():
    rng = np.random.default_rng(5)
    d = 16
    base = normalize_rows(rng.standard_normal((40, d)))
    means = np.vstack([base, base[:10], [nudged(m, rng) for m in base[10:20]]])
    bank = make_bank(d, 16.0, {c: means[c * 10 : c * 10 + 10] for c in range(6)})
    vs = np.vstack([rng.standard_normal((1500, d)), means[rng.integers(60, size=600)]])
    vs[7] = np.nan
    pred, rescored = rescored_rows(bank, vs)
    want, tied = dots_argmax(bank, vs)
    np.testing.assert_array_equal(pred, want)
    assert tied.sum() > 0
    assert int(tied.sum()) + 1 <= rescored < len(vs)
