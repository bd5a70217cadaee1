"""Property tests: packed structure and memory code equals the per-class reference byte for byte.

``vmfcl.structure`` and ``vmfcl.memory`` work on the bank's packed (K, d)
means in bank row order. ``reference_structure`` is the same code written
one class and one component at a time, with per-component statistics
objects and dict round trips. On random banks of 1-8 classes (1-40
components each, d 2-16) and E-steps over them, with empty and starved
components, exact duplicate means (tied distances), features with signed
zeros, records that share an id and antipodal pairs whose merge must fail,
both must give the same bytes: the counts and sums, the reduced means and
layout, the merge maps, the expanded bank under the same generator, and
the memory records and components.
"""

import warnings

import numpy as np
import pytest
import reference_structure as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from vmfcl import memory, structure
from vmfcl.errors import DegenerateMerge
from vmfcl.mixture import ClassMixture, ModelBank
from vmfcl.streams import ROLE_TRAIN, FeatureRecords
from vmfcl.vmf import normalize_rows


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_bank(got: ModelBank, want: ModelBank):
    assert got.class_ids == want.class_ids
    assert (got.dim, got.kappa) == (want.dim, want.kappa)
    assert same_bytes(got.means, want.means)
    for name, arr in vars(want.layout).items():
        if isinstance(arr, np.ndarray):
            assert same_bytes(getattr(got.layout, name), arr), name


def _features(rng, means, z_means, d):
    """Unit features near their component's mean, random, or signed axes (-0.0 entries)."""
    n = len(z_means)
    kind = rng.integers(0, 3, size=n)
    near = normalize_rows(means[z_means] + 0.3 * rng.standard_normal((n, d))) if n else np.zeros((0, d))
    rand = normalize_rows(rng.standard_normal((n, d))) if n else np.zeros((0, d))
    axes = np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0) * np.eye(d)[rng.integers(0, d, size=n)]
    return np.where((kind == 0)[:, None], near, np.where((kind == 1)[:, None], rand, axes))


@st.composite
def sessions(draw):
    """A bank, one E-step over it (labels, component indices, features) and record ids.

    Each class's means cluster around a few directions at several spreads,
    with exact duplicates among them. Some components get no records, some
    only a few. With ``antipodal``, one class gets two equal means whose
    records point in opposite directions, so merging them cancels.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 16))
    n_classes = draw(st.integers(1, 8))
    ids = sorted(draw(st.sets(st.integers(0, 50), min_size=n_classes, max_size=n_classes)))
    min_count = draw(st.integers(1, 5))
    antipodal = draw(st.booleans())
    mixtures, ys, zs, feats = {}, [], [], []
    for c in ids:
        k = draw(st.integers(1, 40))
        bases = normalize_rows(rng.standard_normal((int(rng.integers(1, k + 1)), d)))
        spread = rng.choice([0.0, 0.05, 0.5, 3.0], size=(k, 1))
        means = normalize_rows(bases[rng.integers(0, len(bases), size=k)] + spread * rng.standard_normal((k, d)))
        weights = rng.exponential(size=k) * (rng.random(k) < 0.7)
        if antipodal and k >= 2:
            antipodal = False
            a, b = rng.choice(k, size=2, replace=False)
            means[b] = means[a]
            weights[[a, b]] = 0.0
            f = normalize_rows(rng.standard_normal((1, d)))[0]
            reps = int(rng.integers(min_count, min_count + 3))
            ys += [c] * (2 * reps)
            zs += [a] * reps + [b] * reps
            feats += [f] * reps + [-f] * reps
        mixtures[c] = ClassMixture(c, means)
        n_c = int(rng.integers(0, 60)) if weights.sum() > 0 else 0
        z_c = rng.choice(k, size=n_c, p=weights / weights.sum()) if n_c else np.zeros(0, np.int64)
        ys += [c] * n_c
        zs += z_c.tolist()
        feats += list(_features(rng, means, z_c, d))
    order = rng.permutation(len(ys))
    y = np.array(ys, dtype=np.int64)[order]
    z = np.array(zs, dtype=np.int64)[order]
    x = np.array(feats, dtype=np.float64).reshape(len(ys), d)[order]
    kappa = draw(st.sampled_from([0.0, 16.0]))
    records = FeatureRecords(
        rng.integers(0, max(1, len(y) // 2), size=len(y)).astype(np.uint64),  # shared ids
        x, y, rng.integers(-1, 3, size=len(y)).astype(np.int32), np.full(len(y), ROLE_TRAIN, np.uint8),
    )
    cfg = structure.ReductionConfig(
        delta=draw(st.sampled_from([0.05, 0.3, 0.7, 1.0, 1.5, 1.95])),
        min_components=draw(st.integers(1, 3)),
        min_count=min_count,
    )
    return ModelBank(d, kappa, mixtures), records, z, cfg


@settings(max_examples=150, deadline=None, database=None)
@given(sessions())
def test_stats_and_reduction_equal_the_reference(case):
    bank, records, z, cfg = case
    counts, sums = structure.collect_stats(bank, records.y, z, records.x)
    want = ref.collect_stats(bank, records.y, z, records.x)
    want_stats = [s for c in bank.class_ids for s in want[c]]
    assert same_bytes(counts, np.array([s.count for s in want_stats], dtype=np.int64))
    assert same_bytes(sums, np.array([s.vec_sum for s in want_stats]).reshape(sums.shape))

    try:
        want_bank, want_records = ref.reduce(bank, want, cfg)
    except DegenerateMerge:
        with pytest.raises(DegenerateMerge):
            structure.reduce(bank, counts, sums, cfg)
        return
    got_bank, got_records = structure.reduce(bank, counts, sums, cfg)
    assert_same_bank(got_bank, want_bank)
    assert sorted(got_records) == sorted(want_records)
    for c, rec in want_records.items():
        got = got_records[c]
        assert (got.k_before, got.k_after, got.merge_map) == (rec.k_before, rec.k_after, rec.merge_map)


@settings(max_examples=150, deadline=None, database=None)
@given(sessions(), st.sets(st.integers(0, 60), max_size=10), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_expansion_equals_the_reference(case, incoming, m, seed):
    bank = case[0]
    incoming = sorted(incoming) + bank.class_ids[::2]  # new classes and some existing ones
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = structure.expand(bank, incoming, m, got_rng)
    assert_same_bank(got, ref.expand(bank, incoming, m, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None, database=None)
@given(sessions(), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_memory_selection_equals_the_reference(case, budget, seed):
    bank, records, z, _ = case
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = ref.select_memory(bank, records, z, budget, np.random.default_rng(seed))
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = memory.select_memory(bank, records, z, budget, np.random.default_rng(seed))
    assert [w.category for w in got_warned] == [w.category for w in want_warned]
    assert got.budget == want.budget
    assert same_bytes(got.components, want.components)
    for name in ("ids", "x", "y", "domain", "role"):
        assert same_bytes(getattr(got.records, name), getattr(want.records, name)), name


def test_antipodal_merge_fails_in_both():
    f = np.array([0.6, 0.8])
    bank = ModelBank(2, 16.0, {3: ClassMixture(3, np.vstack([f, f]))})
    y, z, x = np.array([3, 3]), np.array([0, 1]), np.vstack([f, -f])
    cfg = structure.ReductionConfig(delta=0.7)
    with pytest.raises(DegenerateMerge):
        ref.reduce(bank, ref.collect_stats(bank, y, z, x), cfg)
    with pytest.raises(DegenerateMerge):
        structure.reduce(bank, *structure.collect_stats(bank, y, z, x), cfg)
