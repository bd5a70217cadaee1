"""Tests for mixture expansion and agglomerative reduction."""

import numpy as np
import pytest

from vmfcl.errors import ConfigError, DegenerateMerge
from vmfcl.mixture import ClassMixture, ModelBank
from vmfcl.structure import ReductionConfig, collect_stats, expand, merge_pair, reduce
from vmfcl.vmf import normalize, normalize_rows


def stats_for(means, counts):
    """Per-row counts and feature sums whose sums point exactly at the given means."""
    counts = np.asarray(counts)
    return counts, np.asarray(means, dtype=float) * counts[:, None]


class TestExpand:
    def test_existing_class_grows_by_m(self):
        bank = ModelBank(4, 16.0, {0: ClassMixture(0, np.eye(4)[:2])})
        out = expand(bank, [0], 30, np.random.default_rng(0))
        assert out.mixtures[0].num_components == 32
        np.testing.assert_array_equal(out.mixtures[0].means[:2], np.eye(4)[:2])

    def test_new_class_created_with_m(self):
        bank = ModelBank(4, 16.0)
        out = expand(bank, [7], 5, np.random.default_rng(0))
        assert out.mixtures[7].num_components == 5
        np.testing.assert_allclose(np.linalg.norm(out.mixtures[7].means, axis=1), 1.0, atol=1e-12)

    def test_absent_class_untouched(self):
        bank = ModelBank(4, 16.0, {0: ClassMixture(0, np.eye(4)[:1]), 1: ClassMixture(1, np.eye(4)[1:2])})
        out = expand(bank, [0], 3, np.random.default_rng(0))
        assert out.mixtures[1].num_components == 1
        np.testing.assert_array_equal(out.mixtures[1].means, bank.mixtures[1].means)

    def test_does_not_mutate_input(self):
        bank = ModelBank(4, 16.0, {0: ClassMixture(0, np.eye(4)[:1])})
        expand(bank, [0], 4, np.random.default_rng(0))
        assert bank.mixtures[0].num_components == 1

    def test_deterministic_under_seed(self):
        bank = ModelBank(4, 16.0, {0: ClassMixture(0, np.eye(4)[:1])})
        a = expand(bank, [0], 8, np.random.default_rng(3))
        b = expand(bank, [0], 8, np.random.default_rng(3))
        np.testing.assert_array_equal(a.mixtures[0].means, b.mixtures[0].means)

    def test_zero_m_rejected(self):
        with pytest.raises(ConfigError):
            expand(ModelBank(4, 16.0), [0], 0, np.random.default_rng(0))


class TestMergePair:
    def test_pooled_mean(self):
        mean, (count, vec_sum) = merge_pair((2, [2.0, 0.0]), (1, [0.0, 1.0]))
        np.testing.assert_allclose(mean, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-15)
        assert count == 3
        np.testing.assert_array_equal(vec_sum, [2.0, 1.0])

    def test_commutative(self):
        a = (3, [1.5, -0.5])
        b = (5, [0.2, 4.0])
        m1, s1 = merge_pair(a, b)
        m2, s2 = merge_pair(b, a)
        np.testing.assert_array_equal(m1, m2)
        assert s1[0] == s2[0]

    def test_duplicate_merge_keeps_direction(self):
        a = (4, [3.0, 4.0])
        m1, _ = merge_pair(a, (4, [3.0, 4.0]))
        np.testing.assert_allclose(m1, [0.6, 0.8], atol=1e-15)

    def test_antipodal_cancellation(self):
        with pytest.raises(DegenerateMerge):
            merge_pair((1, [1.0, 0.0]), (1, [-1.0, 0.0]))


def brute_force_reduce(means, counts, sums, delta, min_components=1, min_count=1):
    """Independent closest-pair agglomeration used as the oracle."""
    clusters = [
        {"mean": np.array(means[k], dtype=float), "count": counts[k], "sum": np.array(sums[k], dtype=float)}
        for k in range(len(means))
        if counts[k] >= min_count
    ]
    if not clusters:
        keep = int(np.argmax(counts))
        return [np.array(means[keep], dtype=float)]
    while len(clusters) > min_components:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = 1.0 - float(clusters[i]["mean"] @ clusters[j]["mean"])
                if best is None or d < best[0]:
                    best = (d, i, j)
        if best is None or best[0] >= delta:
            break
        _, i, j = best
        total = clusters[i]["count"] + clusters[j]["count"]
        s = clusters[i]["sum"] + clusters[j]["sum"]
        clusters[i] = {"mean": s / np.linalg.norm(s), "count": total, "sum": s}
        del clusters[j]
    return [c["mean"] for c in clusters]


class TestReduce:
    def test_identical_means_merge(self):
        mu = normalize([1.0, 1.0])
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.vstack([mu, mu]))})
        out, recs = reduce(bank, *stats_for([mu, mu], [5, 3]), ReductionConfig(delta=0.7))
        assert out.mixtures[0].num_components == 1
        assert recs[0].k_before == 2 and recs[0].k_after == 1
        assert recs[0].merge_map == [0, 0]

    def test_orthogonal_means_kept(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2))})
        out, _ = reduce(bank, *stats_for(np.eye(2), [4, 4]), ReductionConfig(delta=0.7))
        assert out.mixtures[0].num_components == 2

    def test_empty_components_dropped(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2))})
        out, recs = reduce(bank, *stats_for(np.eye(2), [4, 0]), ReductionConfig(delta=0.7))
        assert out.mixtures[0].num_components == 1
        assert recs[0].merge_map == [0, -1]

    def test_all_empty_keeps_one(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2))})
        out, recs = reduce(bank, *stats_for(np.eye(2), [0, 0]), ReductionConfig(delta=0.7))
        assert out.mixtures[0].num_components == 1
        np.testing.assert_array_equal(out.mixtures[0].means[0], np.eye(2)[0])

    def test_min_count_drops_starved_components(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2))})
        out, recs = reduce(bank, *stats_for(np.eye(2), [40, 2]), ReductionConfig(delta=0.7, min_count=5))
        assert out.mixtures[0].num_components == 1
        assert recs[0].merge_map == [0, -1]

    def test_min_components_respected(self):
        mu = normalize([1.0, 1.0])
        near = normalize([1.0, 1.1])
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.vstack([mu, near]))})
        out, _ = reduce(bank, *stats_for([mu, near], [5, 5]), ReductionConfig(delta=0.7, min_components=2))
        assert out.mixtures[0].num_components == 2

    def test_never_crosses_classes(self):
        mu = normalize([1.0, 0.5])
        bank = ModelBank(2, 16.0, {
            0: ClassMixture(0, mu[None, :]),
            1: ClassMixture(1, mu[None, :]),
        })
        out, _ = reduce(bank, *stats_for([mu, mu], [3, 3]), ReductionConfig(delta=0.7))
        assert out.mixtures[0].num_components == 1
        assert out.mixtures[1].num_components == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 9))
            pts = normalize_rows(rng.standard_normal((k, d)))
            counts = rng.integers(0, 6, size=k)
            if not np.any(counts > 0):
                counts[0] = 1
            sums = [pts[i] * counts[i] for i in range(k)]
            means = normalize_rows(pts)
            delta = float(rng.uniform(0.2, 1.2))
            bank = ModelBank(d, 16.0, {0: ClassMixture(0, means)})
            out, _ = reduce(bank, counts, np.array(sums), ReductionConfig(delta=delta))
            expected = brute_force_reduce(means, counts, sums, delta)
            got = out.mixtures[0].means
            assert got.shape[0] == len(expected), trial
            for a, b in zip(got, expected):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_expanded_components_over_four_domains_match_oracle(self):
        # 32 components (2 trained + 30 expanded) over data from 4 true
        # domains: after an E-step the reduction must agree with the naive
        # agglomeration and land near the domain count
        rng = np.random.default_rng(34)
        from vmfcl.streams import sample_vmf

        d = 10
        centers = normalize_rows(rng.standard_normal((4, d)))
        x = np.vstack([sample_vmf(rng, c, 60.0, 50) for c in centers])
        bank = ModelBank(d, 16.0, {0: ClassMixture(0, normalize_rows(rng.standard_normal((2, d))))})
        bank = expand(bank, [0], 30, rng)
        assert bank.mixtures[0].num_components == 32
        means = bank.mixtures[0].means
        z = np.argmax(x @ means.T, axis=1)
        counts, sums = [], []
        for k in range(32):
            rows = np.flatnonzero(z == k)
            counts.append(rows.size)
            sums.append(np.sum(x[rows], axis=0) if rows.size else np.zeros(d))
        out, _ = reduce(bank, np.array(counts), np.array(sums), ReductionConfig(delta=0.7))
        expected = brute_force_reduce(means, counts, sums, 0.7)
        got = out.mixtures[0].means
        assert got.shape[0] == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, atol=1e-12)
        assert got.shape[0] <= 8  # redundant expansion collapsed

    def test_merge_map_is_surjective_partition(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            means = normalize_rows(rng.standard_normal((k, 3)))
            counts = rng.integers(0, 5, size=k)
            if not np.any(counts > 0):
                counts[0] = 2
            bank = ModelBank(3, 16.0, {0: ClassMixture(0, means)})
            out, recs = reduce(bank, *stats_for(means, counts), ReductionConfig(delta=0.7))
            rec = recs[0]
            k_out = out.mixtures[0].num_components
            mapped = [m for m in rec.merge_map if m >= 0]
            assert set(mapped) == set(range(k_out))  # surjective onto outputs
            for orig, m in enumerate(rec.merge_map):
                assert m == -1 or 0 <= m < k_out
                if counts[orig] > 0:
                    assert m >= 0  # nonempty originals always map somewhere

    def test_k_non_increasing_in_delta(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            k = int(rng.integers(3, 12))
            means = normalize_rows(rng.standard_normal((k, 4)))
            counts = rng.integers(1, 7, size=k)
            bank = ModelBank(4, 16.0, {0: ClassMixture(0, means)})
            ks = []
            for delta in (0.5, 0.6, 0.7, 0.8, 0.9):
                out, _ = reduce(bank, *stats_for(means, counts), ReductionConfig(delta=delta))
                ks.append(out.mixtures[0].num_components)
            assert all(a >= b for a, b in zip(ks, ks[1:])), ks

    def test_missing_stats_rejected(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2))})
        with pytest.raises(ValueError):
            reduce(bank, *stats_for([np.eye(2)[0]], [1]), ReductionConfig())


class TestCollectStats:
    def test_counts_and_sums(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2)), 1: ClassMixture(1, np.eye(2)[:1])})
        y = np.array([0, 0, 0, 1])
        z = np.array([0, 1, 1, 0])
        feats = normalize_rows(np.array([[1.0, 0.1], [0.1, 1.0], [0.2, 1.0], [1.0, 0.0]]))
        counts, sums = collect_stats(bank, y, z, feats)
        assert counts.tolist() == [1, 2, 1]  # rows: class 0's two components, then class 1's
        np.testing.assert_allclose(sums[1], feats[1] + feats[2], atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ReductionConfig(delta=2.5)
        with pytest.raises(ConfigError):
            ReductionConfig(min_components=0)
        with pytest.raises(ConfigError):
            ReductionConfig(min_count=0)
