"""Tests for synthetic stream generation, splits, and the VMFS file format."""

import inspect

import numpy as np
import pytest

from vmfcl.errors import ConfigError, ParseError
from vmfcl.streams import (
    ROLE_MEMORY,
    ROLE_TEST,
    ROLE_TRAIN,
    FeatureRecords,
    SynthConfig,
    concat_records,
    generate_synthetic,
    make_splits,
    read_stream,
    sample_vmf,
    write_stream,
)


class TestSampleVmf:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        mu = np.zeros(5)
        mu[0] = 1.0
        s = sample_vmf(rng, mu, 10.0, 200)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-9)

    def test_high_concentration_hugs_center(self):
        rng = np.random.default_rng(1)
        mu = np.zeros(4)
        mu[1] = 1.0
        s = sample_vmf(rng, mu, 1e6, 500)
        angles = np.arccos(np.clip(s @ mu, -1, 1))
        assert float(np.max(angles)) < 1e-2

    def test_empirical_mean_direction(self):
        rng = np.random.default_rng(2)
        mu = np.zeros(6)
        mu[2] = 1.0
        s = sample_vmf(rng, mu, 50.0, 1000)
        mean_dir = np.mean(s, axis=0)
        mean_dir /= np.linalg.norm(mean_dir)
        angle = np.degrees(np.arccos(np.clip(float(mean_dir @ mu), -1, 1)))
        assert angle < 5.0

    def test_kappa_zero_is_uniform(self):
        rng = np.random.default_rng(3)
        mu = np.zeros(3)
        mu[0] = 1.0
        s = sample_vmf(rng, mu, 0.0, 4000)
        assert abs(float(np.mean(s @ mu))) < 0.05

    def test_works_on_circle(self):
        rng = np.random.default_rng(4)
        s = sample_vmf(rng, np.array([0.0, 1.0]), 8.0, 100)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-9)


class TestGenerateSynthetic:
    def test_counts_per_pair(self):
        cfg = SynthConfig(2, 2, 5, 20.0, 100, 10, seed=5)
        train, test, centers = generate_synthetic(cfg)
        assert len(train) == 800 // 2 and len(test) == 80 // 2
        for c in range(2):
            for z in range(2):
                assert int(np.sum((train.y == c) & (train.domain == z))) == 100
        assert centers.shape == (2, 2, 5)
        assert np.all(train.role == ROLE_TRAIN) and np.all(test.role == ROLE_TEST)

    def test_ids_globally_unique(self):
        cfg = SynthConfig(3, 2, 4, 20.0, 50, 20, seed=6)
        train, test, _ = generate_synthetic(cfg)
        all_ids = np.concatenate([train.ids, test.ids])
        assert len(np.unique(all_ids)) == len(all_ids)

    def test_concentration_limit_pins_samples_to_center(self):
        cfg = SynthConfig(1, 1, 6, 1e6, 50, 0, seed=7)
        train, _, centers = generate_synthetic(cfg)
        angles = np.arccos(np.clip(train.x @ centers[0, 0], -1, 1))
        assert float(np.max(angles)) < 1e-2

    def test_separation_respected(self):
        cfg = SynthConfig(3, 2, 8, 30.0, 10, 0, min_angle_deg=60.0, seed=8)
        _, _, centers = generate_synthetic(cfg)
        flat = centers.reshape(-1, 8)
        dots = flat @ flat.T
        np.fill_diagonal(dots, -1)
        assert float(np.max(dots)) <= np.cos(np.deg2rad(60.0)) + 1e-9

    def test_unsatisfiable_separation_raises(self):
        cfg = SynthConfig(20, 2, 3, 30.0, 5, 0, min_angle_deg=90.0, seed=9)
        with pytest.raises(ConfigError):
            generate_synthetic(cfg)

    def test_truncation_cap_respected(self):
        cfg = SynthConfig(2, 2, 8, 10.0, 200, 0, max_angle_deg=50.0, seed=10)
        train, _, centers = generate_synthetic(cfg)
        for c in range(2):
            for z in range(2):
                rows = (train.y == c) & (train.domain == z)
                dots = train.x[rows] @ centers[c, z]
                assert float(np.min(dots)) >= np.cos(np.deg2rad(50.0)) - 1e-9

    def test_deterministic_under_seed(self):
        cfg = SynthConfig(2, 2, 4, 20.0, 30, 5, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        np.testing.assert_array_equal(a[0].x, b[0].x)
        np.testing.assert_array_equal(a[1].x, b[1].x)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(2, 2, 4, 0.0, 10, 5)
        with pytest.raises(ConfigError):
            SynthConfig(0, 2, 4, 1.0, 10, 5)
        with pytest.raises(ConfigError):
            SynthConfig(2, 2, 1, 1.0, 10, 5)
        with pytest.raises(ConfigError):
            SynthConfig(2, 2, 4, 1.0, 10, 5, max_angle_deg=0.0)


def small_pool(n_classes, domains, per_pair=6, d=4, seed=0):
    cfg = SynthConfig(n_classes, domains, d, 25.0, per_pair, 0, seed=seed)
    train, _, _ = generate_synthetic(cfg)
    return train


class TestMakeSplits:
    def test_nc_disjoint_fresh_classes(self):
        pool = small_pool(4, 1)
        plan, sessions = make_splits(pool, "NC", 2, seed=1)
        seen = set()
        for t, pairs in enumerate(plan.sessions):
            classes = {c for c, _ in pairs}
            assert len(classes) == 2
            assert not (classes & seen)
            seen |= classes
        assert seen == {0, 1, 2, 3}

    def test_nd_every_class_one_new_domain(self):
        pool = small_pool(3, 4)
        plan, sessions = make_splits(pool, "ND", 4, seed=2)
        per_class_domains = {c: [] for c in range(3)}
        for pairs in plan.sessions:
            assert {c for c, _ in pairs} == {0, 1, 2}
            for c, z in pairs:
                per_class_domains[c].append(z)
        for c, zs in per_class_domains.items():
            assert sorted(zs) == [0, 1, 2, 3]

    def test_ncd_exact_pair_coverage_and_frontloading(self):
        pool = small_pool(5, 2)
        plan, sessions = make_splits(pool, "NCD", 4, seed=3)
        all_pairs = [p for pairs in plan.sessions for p in pairs]
        assert sorted(all_pairs) == sorted((c, z) for c in range(5) for z in range(2))
        intro = {}
        news = []
        for t, pairs in enumerate(plan.sessions):
            fresh = 0
            for c, _ in pairs:
                if c not in intro:
                    intro[c] = t
                    fresh += 1
            news.append(fresh)
        assert all(a >= b for a, b in zip(news, news[1:])), news
        # a class never brings two domains in one session
        for pairs in plan.sessions:
            classes = [c for c, _ in pairs]
            assert len(classes) == len(set(classes))

    def test_sessions_partition_pool(self):
        pool = small_pool(4, 3)
        for mode, n in (("NC", 2), ("ND", 3), ("NCD", 5)):
            plan, sessions = make_splits(pool, mode, n, seed=4)
            ids = np.concatenate([s.records.ids for s in sessions])
            assert sorted(ids.tolist()) == sorted(pool.ids.tolist()), mode

    def test_nc_too_many_sessions(self):
        with pytest.raises(ConfigError):
            make_splits(small_pool(2, 1), "NC", 3, seed=5)

    def test_nd_wrong_domain_count(self):
        with pytest.raises(ConfigError) as err:
            make_splits(small_pool(3, 4), "ND", 3, seed=6)
        assert "one new domain" in str(err.value)

    def test_ncd_too_few_sessions(self):
        with pytest.raises(ConfigError):
            make_splits(small_pool(2, 4), "NCD", 3, seed=7)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            make_splits(small_pool(2, 1), "XX", 1, seed=8)

    def test_deterministic_under_seed(self):
        pool = small_pool(4, 2)
        p1, _ = make_splits(pool, "NCD", 3, seed=9)
        p2, _ = make_splits(pool, "NCD", 3, seed=9)
        assert p1.sessions == p2.sessions


def random_records(rng, n=1000, d=6):
    # float32-representable payloads make the round trip bit-exact
    x = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    return FeatureRecords(
        rng.choice(10 * n, size=n, replace=False).astype(np.uint64),
        x,
        rng.integers(0, 5, size=n),
        rng.integers(-1, 4, size=n).astype(np.int32),
        rng.integers(0, 3, size=n).astype(np.uint8),
    )


class TestStreamFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        records = random_records(rng)
        path = tmp_path / "pool.vmfs"
        write_stream(path, records)
        back = read_stream(path)
        np.testing.assert_array_equal(back.ids, records.ids)
        np.testing.assert_array_equal(back.x, records.x)
        np.testing.assert_array_equal(back.y, records.y)
        np.testing.assert_array_equal(back.domain, records.domain)
        np.testing.assert_array_equal(back.role, records.role)

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(21)
        records = random_records(rng, n=64)
        p1, p2 = tmp_path / "a.vmfs", tmp_path / "b.vmfs"
        write_stream(p1, records)
        write_stream(p2, read_stream(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.vmfs"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert err.value.offset == 0

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(22)
        path = tmp_path / "v.vmfs"
        write_stream(path, random_records(rng, n=4))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert "version" in str(err.value)

    def test_truncated_record_offset(self, tmp_path):
        rng = np.random.default_rng(23)
        records = random_records(rng, n=3, d=4)
        path = tmp_path / "cut.vmfs"
        write_stream(path, records)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert "truncated" in str(err.value)
        record_size = 8 + 4 + 4 + 1 + 4 * 4
        assert err.value.offset == 20 + 2 * record_size

    def test_count_mismatch_names_both(self, tmp_path):
        rng = np.random.default_rng(24)
        records = random_records(rng, n=5, d=3)
        path = tmp_path / "count.vmfs"
        write_stream(path, records)
        raw = bytearray(path.read_bytes())
        raw[12:20] = (9).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert "9" in str(err.value) and "5" in str(err.value)

    # 4 records of dim 3, 29 bytes each, after the 20-byte header
    @pytest.mark.parametrize("at, value, offset", [
        (20 + 2 * 29, (0).to_bytes(8, "little"), 20 + 2 * 29),  # record 2 repeats record 0's id
        (8, (2**31).to_bytes(4, "little"), 8),  # no record type holds that dim
    ], ids=["duplicate-id", "oversized-dim"])
    def test_corrupt_payload_raises_with_offset(self, tmp_path, at, value, offset):
        records = random_records(np.random.default_rng(26), n=4, d=3)
        records.ids = np.arange(4, dtype=np.uint64)
        path = tmp_path / "bad.vmfs"
        write_stream(path, records)
        raw = bytearray(path.read_bytes())
        raw[at : at + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as err:
            read_stream(path)
        assert err.value.offset == offset

    def test_zero_record_file_round_trips(self, tmp_path):
        path = tmp_path / "empty.vmfs"
        write_stream(path, FeatureRecords.empty(3))
        assert len(read_stream(path)) == 0

    def test_negative_class_label_rejected_on_write(self, tmp_path):
        records = FeatureRecords(
            np.arange(1, dtype=np.uint64), np.zeros((1, 2)), np.array([-4]),
            np.zeros(1, np.int32), np.zeros(1, np.uint8),
        )
        with pytest.raises(ValueError):
            write_stream(tmp_path / "neg.vmfs", records)

    def test_memory_role_round_trip(self, tmp_path):
        rng = np.random.default_rng(25)
        records = random_records(rng, n=10)
        records.role[:] = ROLE_MEMORY
        path = tmp_path / "mem.vmfs"
        write_stream(path, records)
        assert np.all(read_stream(path).role == ROLE_MEMORY)

    def test_concat_preserves_order(self):
        rng = np.random.default_rng(26)
        a, b = random_records(rng, n=4), random_records(rng, n=3)
        both = concat_records(a, b)
        assert len(both) == 7
        np.testing.assert_array_equal(both.ids[:4], a.ids)
        np.testing.assert_array_equal(both.x[4:], b.x)


class TestDomainQuarantine:
    def test_training_modules_never_read_domain_labels(self):
        # the hidden-domain channel is evaluation-only: no training or
        # memory-selection module may touch the ``.domain`` column
        import vmfcl.backbone
        import vmfcl.memory
        import vmfcl.mixture
        import vmfcl.structure
        import vmfcl.trainer

        for module in (vmfcl.trainer, vmfcl.memory, vmfcl.backbone, vmfcl.structure, vmfcl.mixture):
            source = inspect.getsource(module)
            assert ".domain" not in source, module.__name__
