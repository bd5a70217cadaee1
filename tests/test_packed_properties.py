"""Property tests: the packed loss, gradient and SGD step against per-class oracles.

``loss_and_grad`` works on one (n, K) score matrix with segment reductions
over the bank's class offsets. ``clf_loss``, ``distill_loss`` and
``reg_loss`` in ``oracles`` loop over classes one mixture at a time and
share none of that code, so agreement on random banks, batches and teachers
checks the packed indexing: the class blocks, the inherited columns of a
teacher and classes with a single component. ``clf_loss`` and
``distill_loss`` in ``vmfcl.trainer`` evaluate ``loss_and_grad`` over all the
records, so they equal its terms bit for bit.

The hard decisions, ``predict_batch``, ``assign_components_batch`` and the
E-step ``_e_step_array``, are checked on banks whose classes share some
means exactly, against a per-class ``np.sum(means * v, axis=1)`` oracle: an
exact tie must go to the lowest class id or component index.
"""

import numpy as np
import oracles
import pytest
from helpers import make_bank, make_records
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfcl.backbone import forward_batch, init_params, loss_and_grad, sgd_step
from vmfcl.mixture import ModelBank, assign_components_batch, predict_batch
from vmfcl.structure import expand
from vmfcl.trainer import (
    _e_step_array,
    _old_log_posteriors,
    clf_loss,
    distill_loss,
)
from vmfcl.vmf import normalize_rows

TOL = 1e-10


@st.composite
def cases(draw):
    """A bank of 1-8 classes with 1-12 components each, the teacher and a batch.

    The teacher is the previous session's ``(params, bank)``. Its bank holds
    a proper subset of the classes, none in a first session; the current
    bank grows from it by ``expand``, as a session does, so the inherited
    components lead each class block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 8))
    kappa = draw(st.sampled_from([0.0, 1.0, 16.0, 100.0]))
    n_classes = draw(st.integers(1, 8))
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=n_classes, max_size=n_classes)))
    n_old = draw(st.integers(0, n_classes - 1))
    old_ids = sorted(draw(st.permutations(ids))[:n_old])
    if old_ids:
        old = make_bank(d, kappa, {
            c: normalize_rows(rng.standard_normal((draw(st.integers(1, 6)), d)))
            for c in old_ids
        })
        m = draw(st.integers(1, 6))
        grown = [c for c in ids if c not in old_ids or draw(st.booleans())]
        bank = expand(old, grown, m, rng)
    else:
        old = ModelBank(d, kappa)
        bank = make_bank(d, kappa, {
            c: normalize_rows(rng.standard_normal((draw(st.integers(1, 12)), d)))
            for c in ids
        })
    n = draw(st.integers(1, 10))
    hidden = draw(st.sampled_from([0, 3]))
    params = init_params(d + 1, d, hidden, rng)
    x = rng.standard_normal((n, d + 1))
    y = rng.choice(ids, size=n)
    z = rng.integers(0, bank.sizes[np.searchsorted(ids, y)])
    teacher = (init_params(d + 1, d, hidden, rng) if old_ids else params, old)
    return bank, teacher, params, x, y, z


def teacher_log_post(teacher, x):
    """``loss_and_grad``'s ``old_log_post`` for the teacher ``(params, bank)``; None in a first session."""
    old_params, old = teacher
    return (old, _old_log_posteriors(old, forward_batch(old_params, x))) if old.class_ids else None


@settings(max_examples=200, deadline=None, database=None)
@given(cases())
def test_packed_terms_match_the_per_class_oracles(case):
    bank, teacher, params, x, y, z = case
    recs = make_records(x, y)
    old_lp = teacher_log_post(teacher, x)
    _, _, terms = loss_and_grad(params, bank, x, y, z, lam=1.0, beta=1.0, eta=1.0, old_log_post=old_lp)
    inter = oracles.clf_loss(bank, params, recs, z, 0.0)
    assert terms["inter"] == pytest.approx(inter, rel=TOL, abs=TOL)
    assert terms["inter"] + terms["intra"] == pytest.approx(oracles.clf_loss(bank, params, recs, z, 1.0),
                                                            rel=TOL, abs=TOL)
    assert terms["distill"] == pytest.approx(oracles.distill_loss(bank, params, *teacher, recs),
                                             rel=TOL, abs=TOL)
    assert terms["reg"] == pytest.approx(oracles.reg_loss(bank), rel=TOL, abs=TOL)


@settings(max_examples=100, deadline=None, database=None)
@given(cases(), st.sampled_from([0.0, 0.1, 1.0]))
def test_trainer_losses_are_the_packed_terms_bit_for_bit(case, lam):
    bank, teacher, params, x, y, z = case
    recs = make_records(x, y)
    old_lp = teacher_log_post(teacher, x)
    _, _, terms = loss_and_grad(params, bank, x, y, z, lam=lam, beta=1.0, eta=0.0, old_log_post=old_lp)
    assert clf_loss(bank, params, recs, z, lam) == terms["inter"] + lam * terms["intra"]
    assert distill_loss(bank, params, *teacher, recs) == terms["distill"]


@settings(max_examples=100, deadline=None, database=None)
@given(cases(), st.sampled_from([0.01, 0.5]))
def test_packed_sgd_step_is_a_per_class_normalized_update(case, lr):
    bank, teacher, params, x, y, z = case
    old_lp = teacher_log_post(teacher, x)
    _, grad, _ = loss_and_grad(params, bank, x, y, z, lam=0.1, beta=1.0, eta=0.1, old_log_post=old_lp)
    _, new_bank = sgd_step(params, bank, grad, lr, 0.0, lr)
    assert new_bank.class_ids == bank.class_ids
    np.testing.assert_array_equal(new_bank.offsets, bank.offsets)
    for i, c in enumerate(bank.class_ids):
        rows = slice(bank.offsets[i], bank.offsets[i + 1])
        expected = normalize_rows(bank.mixtures[c].means - lr * grad.means[rows])
        np.testing.assert_array_equal(new_bank.mixtures[c].means, expected)


@st.composite
def tie_cases(draw):
    """A bank of 1-8 classes (K 1-12, d 2-40) sharing 1-3 unit means, and rows near them.

    Each shared mean is planted at random rows of a random subset of the
    classes, so it ties across classes and within one. Each feature row
    equals a shared mean or is a small perturbation of one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 40))
    n_classes = draw(st.integers(1, 8))
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=n_classes, max_size=n_classes)))
    blocks = {c: normalize_rows(rng.standard_normal((draw(st.integers(1, 12)), d))) for c in ids}
    shared = normalize_rows(rng.standard_normal((draw(st.integers(1, 3)), d)))
    for mu in shared:
        for c in rng.choice(ids, size=int(rng.integers(1, n_classes + 1)), replace=False):
            k = len(blocks[c])
            blocks[c][rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)] = mu
    bank = make_bank(d, 16.0, {c: m for c, m in blocks.items()})
    n = draw(st.integers(1, 40))
    near = shared[rng.integers(len(shared), size=n)]
    noise = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    vs = normalize_rows(near + noise * rng.standard_normal((n, d)))
    exact = rng.random(n) < 0.5
    vs[exact] = near[exact]
    return bank, vs, rng.choice(ids, size=n)


def oracle_dots(bank, c, v):
    return np.sum(bank.mixtures[c].means * v, axis=1)


@settings(max_examples=200, deadline=None, database=None)
@given(tie_cases())
def test_predict_batch_gives_exact_ties_to_the_lowest_class(case):
    bank, vs, _ = case
    expected = []
    for v in vs:
        tops = [float(np.max(oracle_dots(bank, c, v))) for c in bank.class_ids]
        expected.append(bank.class_ids[tops.index(max(tops))])
    np.testing.assert_array_equal(predict_batch(bank, vs), expected)


@settings(max_examples=200, deadline=None, database=None)
@given(tie_cases())
def test_assignments_give_exact_ties_to_the_lowest_component(case):
    bank, vs, y = case
    expected = []
    for v, c in zip(vs, y):
        dots = oracle_dots(bank, c, v).tolist()
        expected.append(dots.index(max(dots)))
    np.testing.assert_array_equal(_e_step_array(bank, vs, y), expected)
    for c in bank.class_ids:
        rows = np.flatnonzero(y == c)
        np.testing.assert_array_equal(assign_components_batch(bank.mixtures[c].means, vs[rows]),
                                      np.asarray(expected, dtype=np.int64)[rows])
