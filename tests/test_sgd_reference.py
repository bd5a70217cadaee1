"""Property tests: one SGD step equals the fresh-array reference byte for byte.

``vmfcl.backbone.loss_and_grad`` reads the bank's index arrays and its
teacher column map (``ModelBank.teacher_columns``), built once per packing,
and reuses its temporaries in place;
``sgd_step`` steps and re-projects the means in one buffer and leaves a
frozen backbone as it is. ``reference_sgd`` is the same step written with
every array rebuilt and freshly allocated, so the two must agree on every
byte of the loss, the terms and the gradients. The frozen path
(``with_layers=False``) must return what the full path returns, minus the
layer gradient. Teachers are drawn whose classes all kept their component
count (``loss_and_grad`` then reuses the step's own posteriors), some of
which grew, or all of which grew.
"""

import numpy as np
import pytest
import reference_sgd as ref
from helpers import make_bank
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfcl.backbone import init_params, loss_and_grad, sgd_step
from vmfcl.errors import ModelRegression
from vmfcl.mixture import ModelBank
from vmfcl.structure import expand
from vmfcl.trainer import ModelState
from vmfcl.vmf import normalize_rows


def teacher_log_post(teacher: ModelState, x):
    feats = ref.normalize_rows(ref._forward_raw(teacher.params, x)[0])
    t = teacher.bank.kappa * (feats @ teacher.bank.means.T)
    return ref.segment_log_softmax(t, teacher.bank.offsets)[1]


@st.composite
def steps(draw, teacher_growth=st.sampled_from(["kept", "some", "all"]), min_old=0):
    """A bank of 1-8 classes (K 1-12, d 2-8), an optional teacher it grew from, a batch and coefficients.

    The bank adds the classes the teacher lacks. Of the teacher's own
    classes none grows (``kept``, a session that only adds classes), a drawn
    subset grows (``some``) or every one grows (``all``).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 8))
    kappa = draw(st.sampled_from([0.0, 1.0, 16.0, 100.0]))
    n_classes = draw(st.integers(max(1, min_old), 8))
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=n_classes, max_size=n_classes)))
    n_old = draw(st.integers(min_old, n_classes))
    old_ids = sorted(draw(st.permutations(ids))[:n_old])
    hidden = draw(st.sampled_from([0, 3]))
    teacher = None
    if old_ids:
        old = make_bank(d, kappa, {
            c: normalize_rows(rng.standard_normal((draw(st.integers(1, 6)), d)))
            for c in old_ids
        })
        growth = draw(teacher_growth)
        grown = [c for c in ids
                 if c not in old_ids or growth == "all" or (growth == "some" and draw(st.booleans()))]
        bank = expand(old, grown, draw(st.integers(1, 6)), rng) if grown else old
        teacher = ModelState(init_params(d + 1, d, hidden, rng), old)
    else:
        bank = make_bank(d, kappa, {
            c: normalize_rows(rng.standard_normal((draw(st.integers(1, 12)), d)))
            for c in ids
        })
    n = draw(st.integers(1, 16))
    params = init_params(d + 1, d, hidden, rng)
    x = rng.standard_normal((n, d + 1))
    y = rng.choice(ids, size=n)
    z = rng.integers(0, bank.sizes[np.searchsorted(ids, y)])
    coef = {name: draw(st.sampled_from([0.0, 0.07, 1.0])) for name in ("lam", "beta", "eta")}
    old_lp = None if teacher is None else (teacher.bank, teacher_log_post(teacher, x))
    return params, bank, x, y, z, coef, old_lp


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_result(got, want, layers=True):
    loss, grad, terms = got
    want_loss, want_grad, want_terms = want
    assert same_bytes(loss, want_loss)
    assert terms.keys() == want_terms.keys()
    for name in terms:
        assert same_bytes(terms[name], want_terms[name]), name
    assert same_bytes(grad.means, want_grad.means)
    if layers:
        assert len(grad.layers) == len(want_grad.layers)
        for (gw, gb), (rw, rb) in zip(grad.layers, want_grad.layers):
            assert same_bytes(gw, rw) and same_bytes(gb, rb)
    else:
        assert grad.layers is None


@settings(max_examples=300, deadline=None, database=None)
@given(steps())
def test_loss_and_grad_matches_the_reference_byte_for_byte(case):
    params, bank, x, y, z, coef, old_lp = case
    want = ref.loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **coef)
    assert_same_result(loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **coef), want)
    # the same bank and teacher again: the teacher map is cached now
    assert_same_result(loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **coef), want)
    frozen = loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, with_layers=False, **coef)
    assert_same_result(frozen, want, layers=False)


@settings(max_examples=150, deadline=None, database=None)
@given(steps(), st.sampled_from([0.0, 0.01, 0.5]), st.sampled_from([None, 0.0, 0.02]),
       st.sampled_from([0.0, 0.0005]))
def test_sgd_step_matches_the_reference_byte_for_byte(case, lr, backbone_lr, weight_decay):
    params, bank, x, y, z, coef, old_lp = case
    _, grad, _ = ref.loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **coef)
    want_params, want_bank = ref.sgd_step(params, bank, grad, lr, weight_decay, backbone_lr)
    layer_lr = lr if backbone_lr is None else backbone_lr  # the reference's None is the means' rate
    new_params, new_bank = sgd_step(params, bank, grad, lr, weight_decay, layer_lr)
    assert same_bytes(new_bank.means, want_bank.means)
    for name, arr in vars(bank).items():
        if isinstance(arr, np.ndarray) and name != "means":
            assert getattr(new_bank, name) is arr, name
    for (w, b), (rw, rb) in zip(new_params.layers, want_params.layers):
        assert same_bytes(w, rw) and same_bytes(b, rb)
    if layer_lr == 0.0:
        assert new_params is params
        # the frozen step needs no layer gradient
        _, frozen, _ = loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, with_layers=False,
                                     **coef)
        frozen_params, frozen_bank = sgd_step(params, bank, frozen, lr, weight_decay, layer_lr)
        assert frozen_params is params
        assert same_bytes(frozen_bank.means, want_bank.means)


@settings(max_examples=200, deadline=None, database=None)
@given(steps(min_old=1), st.sampled_from([0.07, 1.0]), st.integers(0, 2**32 - 1))
def test_teacher_reuse_matches_the_reference_byte_for_byte(case, beta, seed):
    params, bank, x, y, z, coef, (old, log_r) = case
    coef["beta"] = beta
    cols, kept = bank.teacher_columns(old)
    assert kept == all(bank.mixtures[c].num_components == old.mixtures[c].num_components
                       for c in old.class_ids)
    # a second teacher packing, recomputed: the first class loses a component where it can
    first = old.class_ids[0]
    mixtures = {c: old.mixtures[c].means for c in old.class_ids}
    mixtures[first] = mixtures[first][: max(1, old.sizes[0] - 1)]
    other = make_bank(old.dim, old.kappa, mixtures)
    rng = np.random.default_rng(seed)
    other_lp = ref.segment_log_softmax(rng.standard_normal((len(y), other.means.shape[0])), other.offsets)[1]
    for teacher in ((old, log_r), (old, log_r), (other, other_lp), (other, other_lp), (old, log_r)):
        want = ref.loss_and_grad(params, bank, x, y, z, old_log_post=teacher, **coef)
        assert_same_result(loss_and_grad(params, bank, x, y, z, old_log_post=teacher, **coef), want)
        frozen = loss_and_grad(params, bank, x, y, z, old_log_post=teacher, with_layers=False, **coef)
        assert_same_result(frozen, want, layers=False)
    # the map of the last teacher asked for is the cached one
    assert bank.teacher_columns(old)[0] is bank.teacher_columns(old)[0]


def test_frozen_gradient_cannot_train_the_backbone():
    rng = np.random.default_rng(3)
    params = init_params(4, 3, 0, rng)
    bank = make_bank(3, 16.0, {0: normalize_rows(rng.standard_normal((2, 3)))})
    x, y, z = rng.standard_normal((5, 4)), np.zeros(5, np.int64), np.zeros(5, np.int64)
    _, grad, _ = loss_and_grad(params, bank, x, y, z, 0.1, 0.0, 0.1, with_layers=False)
    with pytest.raises(ValueError):
        sgd_step(params, bank, grad, 0.1, 0.0, 0.1)


@settings(max_examples=100, deadline=None, database=None)
@given(steps(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_a_spliced_pack_equals_a_fresh_pack(case, k, seed):
    params, bank, x, y, z, coef, _ = case
    i = seed % len(bank.class_ids)
    c = bank.class_ids[i]
    # one class replaced by k new means: spliced into the packed rows by hand, and
    # packed afresh from a {class: means} dict that lists that class last
    means = normalize_rows(np.random.default_rng(seed).standard_normal((k, bank.dim)))
    sizes = bank.sizes.tolist()
    sizes[i] = k
    rows = np.vstack([bank.means[: bank.offsets[i]], means, bank.means[bank.offsets[i + 1] :]])
    packed = ModelBank(bank.dim, bank.kappa, bank.class_ids, sizes, rows)
    mixtures = {k: m.means for k, m in bank.mixtures.items() if k != c}
    fresh = make_bank(bank.dim, bank.kappa, {**mixtures, c: means})
    assert packed.class_ids == fresh.class_ids
    assert same_bytes(packed.means, fresh.means)
    for name, arr in vars(fresh).items():
        if isinstance(arr, np.ndarray):
            assert same_bytes(getattr(packed, name), arr), name
    # the spread penalty's weights, from their definition
    w = [1.0 / (s * (s - 1)) if s > 1 else 0.0 for s in sizes]
    assert packed.half_pair_weight.tolist() == [0.5 * wc for wc in w]
    assert packed.column_pair_weight.tolist() == [
        -(wc / len(sizes)) for wc, s in zip(w, sizes) for _ in range(s)
    ]
    z = np.minimum(z, packed.sizes[np.searchsorted(packed.class_ids, y)] - 1)
    want = ref.loss_and_grad(params, fresh, x, y, z, **coef)
    assert_same_result(loss_and_grad(params, packed, x, y, z, **coef), want)
    assert_same_result(loss_and_grad(params, fresh, x, y, z, **coef), want)


def test_mismatched_teacher_after_a_cached_hit_still_raises():
    # every teacher class grows, one grows, or none does (the session only adds class 8)
    for grown in ([1, 5, 8], [5, 8], [8]):
        rng = np.random.default_rng(11)
        d = 4
        old = make_bank(d, 16.0, {
            c: normalize_rows(rng.standard_normal((2, d))) for c in (1, 5)
        })
        bank = expand(old, grown, 3, rng)
        assert bank.teacher_columns(old)[1] == (grown == [8])
        params = init_params(d + 1, d, 0, rng)
        x = rng.standard_normal((6, d + 1))
        y, z = np.array([1, 5, 8, 1, 5, 8]), np.zeros(6, np.int64)
        teacher = ModelState(params, old)
        args = dict(lam=0.1, beta=1.0, eta=0.1)
        old_lp = (old, teacher_log_post(teacher, x))
        for _ in range(2):  # the second call hits the cached teacher map
            want = ref.loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **args)
            assert_same_result(loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **args), want)
        lost_class = make_bank(d, 16.0, {c: old.mixtures[1].means for c in (1, 3)})
        more_components = make_bank(d, 16.0, {1: normalize_rows(rng.standard_normal((6, d)))})
        for bad in (lost_class, more_components):
            log_r = np.zeros((len(y), bad.means.shape[0]))
            with pytest.raises(ModelRegression):
                ref.loss_and_grad(params, bank, x, y, z, old_log_post=(bad, log_r), **args)
            with pytest.raises(ModelRegression):
                loss_and_grad(params, bank, x, y, z, old_log_post=(bad, log_r), **args)
        # the valid teacher still works after the failures
        assert_same_result(loss_and_grad(params, bank, x, y, z, old_log_post=old_lp, **args), want)
