"""Tests for synthetic stream generation, splits, and the VMFS file format."""

import inspect
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import empty_records, make_records
from oracles import pair_subset

from vmfcl import streams
from vmfcl.errors import ConfigError, ParseError
from vmfcl.mixture import PREDICT_BLOCK_ROWS
from vmfcl.streams import (
    ROLE_MEMORY,
    ROLE_TEST,
    ROLE_TRAIN,
    FeatureRecords,
    SynthConfig,
    concat_records,
    generate_synthetic,
    make_splits,
    pair_index,
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
        # the uniform law's s.mu has mean 0 and second moment 1/d; an antipodally
        # symmetric law that is not uniform passes the first check only
        for d in (2, 3, 16):
            mu = np.eye(d)[0]
            t = sample_vmf(np.random.default_rng(3), mu, 0.0, 4000) @ mu
            assert abs(float(np.mean(t))) < 0.05, d
            assert abs(float(np.mean(t**2)) - 1.0 / d) < 0.02, d

    def test_works_on_circle(self):
        rng = np.random.default_rng(4)
        s = sample_vmf(rng, np.array([0.0, 1.0]), 8.0, 100)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, 1e9, 1e12, 1e200, np.float64(1e200)])
    def test_concentration_out_of_float_range_raises(self, kappa):
        # at d = 16 Wood's envelope constants round away from about 6e8: no draw is ever accepted
        mu = np.eye(16)[0]
        with pytest.raises(ConfigError, match="cannot sample a vMF"):
            sample_vmf(np.random.default_rng(5), mu, kappa, 3)

    @pytest.mark.parametrize("mu", [[2.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1.0], [[1.0, 0.0]]])
    def test_mean_direction_that_is_not_a_unit_vector_raises(self, mu):
        with pytest.raises(ValueError, match="unit vector"):
            sample_vmf(np.random.default_rng(6), np.array(mu), 8.0, 3)

    def test_negative_concentration_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_vmf(np.random.default_rng(7), np.array([1.0, 0.0]), -1.0, 3)


class TestGenerateSynthetic:
    def test_counts_per_pair(self):
        cfg = SynthConfig(2, 2, 5, 20.0, 100, 10, seed=5)
        train, test, centers = generate_synthetic(cfg)
        assert len(train) == 800 // 2 and len(test) == 80 // 2
        for c in range(2):
            for z in range(2):
                assert int(np.sum((train.y == c) & (train.domain == z))) == 100
        assert centers.shape == (2, 2, 5)

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

    @pytest.mark.parametrize("count, dim, angle, bound", [
        (12, 16, 120.0, "95.22"), (12, 16, 95.5, "95.22"), (12, 3, 95.0, "90.00"),
        (7, 3, 90.0, "90.00"), (5, 2, 90.0, "90.00"), (33, 16, 90.0, "90.00"),
    ])
    def test_separation_past_a_packing_bound_raises_before_any_repair(self, count, dim, angle, bound):
        # 12 unit vectors always have a pair within arccos(-1/11) = 95.22 deg, more
        # than dim + 1 of them a pair within 90 deg (Rankin), and more than 2 * dim
        # a pair closer than 90 deg
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=rf"{count} centers .* dimension {dim}: some pair is within {bound} deg"):
            streams._draw_centers(rng, count, dim, angle)
        assert rng.bit_generator.state == before  # not one direction drawn

    @pytest.mark.parametrize("count, dim, angle", [(12, 16, 95.0), (4, 3, 109.0), (3, 2, 119.0), (6, 3, 90.0)])
    def test_separation_inside_the_packing_bounds_still_places(self, count, dim, angle):
        x = streams._draw_centers(np.random.default_rng(0), count, dim, angle)
        dots = x @ x.T
        np.fill_diagonal(dots, -1)
        assert x.shape == (count, dim) and float(np.max(dots)) <= np.cos(np.deg2rad(angle)) + 1e-9

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

    @pytest.mark.parametrize("max_angle_deg", [None, 30.0], ids=["plain", "truncated"])
    def test_generating_holds_little_beyond_its_pools(self, max_angle_deg):
        # each cluster is drawn into its slice of the pools, so no second pool-sized copy exists
        cfg = SynthConfig(8, 2, 16, 50.0, 200, 200, max_angle_deg=max_angle_deg, seed=3)
        generate_synthetic(cfg)  # the first call in a process also sets up numpy's one-time state
        (train, test, _), peak = traced_peak(generate_synthetic, cfg)
        assert peak < 1.25 * (record_bytes(train) + record_bytes(test))

    def test_pools_are_laid_out_pair_by_pair(self):
        cfg = SynthConfig(3, 2, 4, 20.0, 5, 2, seed=12)
        train, test, _ = generate_synthetic(cfg)
        for pool, per_pair in ((train, 5), (test, 2)):
            pairs = [(c, z) for c in range(3) for z in range(2) for _ in range(per_pair)]
            assert list(zip(pool.y.tolist(), pool.domain.tolist())) == pairs
            assert pool.y.dtype == np.int64 and pool.domain.dtype == np.int32
        np.testing.assert_array_equal(test.ids, np.arange(30, 42, dtype=np.uint64))


def record_bytes(records: FeatureRecords) -> int:
    return sum(a.nbytes for a in (records.ids, records.x, records.y, records.domain))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


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
            plan, rows = make_splits(pool, mode, n, seed=4)
            ids = np.concatenate([pool.subset(r).ids for r in rows])
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

    @pytest.mark.parametrize("mode", ["NC", "ND", "NCD"])
    def test_nd_and_ncd_need_known_domain_labels(self, mode):
        pool = small_pool(2, 2)
        pool.domain -= 1  # domains -1 (unknown) and 0: a uniform grid of two per class
        if mode == "NC":
            assert len(make_splits(pool, mode, 2, seed=8)[1]) == 2
        else:
            with pytest.raises(ConfigError, match=f"^{mode} requires known domain labels$"):
                make_splits(pool, mode, 2, seed=8)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            make_splits(small_pool(2, 1), "XX", 1, seed=8)

    def test_labels_two_to_the_32_apart_are_two_pairs(self):
        # labels that differ by a multiple of 2**32 are distinct classes
        pool = make_records(np.eye(2), np.array([0, 2**32]), 0)
        plan, rows = make_splits(pool, "NC", 2, 0)
        assert sorted(plan.sessions) == [[(0, 0)], [(2**32, 0)]]
        assert sorted(pool.subset(r).y.tolist() for r in rows) == [[0], [2**32]]

    def test_session_count_checks_the_exact_pair_count(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            y = rng.choice([0, 1, 2**32, 2**32 + 1, -(2**40), 2**62], n)
            domain = rng.choice([-1, 0, 3, 2**31 - 1, -(2**31)], n).astype(np.int32)
            pool = make_records(np.zeros((n, 2)), y, domain)
            n_pairs = len(set(zip(y.tolist(), domain.tolist())))
            try:  # NC may still want more classes, but not more pairs
                make_splits(pool, "NC", n_pairs, 0)
            except ConfigError as e:
                assert "(class, domain) pairs" not in str(e)
            with pytest.raises(ConfigError, match=f"has {n_pairs} \\(class, domain\\) pairs"):
                make_splits(pool, "NC", n_pairs + 1, 0)

    @pytest.mark.parametrize("mode", ["NC", "ND", "NCD"])
    def test_session_count_below_one_rejected(self, mode):
        with pytest.raises(ConfigError, match="need at least one session"):
            make_splits(small_pool(2, 2), mode, 0, seed=11)

    def test_nd_without_a_count_takes_the_first_class_s_domain_count(self):
        pool = small_pool(3, 4)
        for seed in (0, 1, 2**40 + 7):
            plan, rows = make_splits(pool, "ND", None, seed)
            want_plan, want_rows = make_splits(pool, "ND", 4, seed)
            assert plan.sessions == want_plan.sessions
            assert [pool.subset(r).ids.tolist() for r in rows] == [pool.subset(r).ids.tolist() for r in want_rows]

    @pytest.mark.parametrize("mode", ["NC", "NCD"])
    def test_nc_and_ncd_need_a_count(self, mode):
        with pytest.raises(ConfigError, match=f"{mode} split requires an explicit session count"):
            make_splits(small_pool(2, 2), mode, None, seed=12)

    @pytest.mark.parametrize("mode", ["NC", "ND", "NCD"])
    def test_more_sessions_than_pairs_rejected_before_planning(self, mode):
        # 4 (class, domain) pairs fill at most 4 sessions, and NCD sizes its plan by the count
        with pytest.raises(ConfigError, match=r"5 sessions, but the train pool has 4 \(class, domain\) pairs"):
            make_splits(small_pool(2, 2), mode, 5, seed=10)

    def test_deterministic_under_seed(self):
        pool = small_pool(4, 2)
        p1, _ = make_splits(pool, "NCD", 3, seed=9)
        p2, _ = make_splits(pool, "NCD", 3, seed=9)
        assert p1.sessions == p2.sessions


LABELS = st.sampled_from([0, 1, 2**32, 2**32 + 1, -(2**40), 2**62])
DOMAINS = st.sampled_from([-(2**31), -1, 0, 3, 2**31 - 1])


def pair_pool(pairs) -> FeatureRecords:
    """One record per listed (class, domain) pair, in list order."""
    n = len(pairs)
    return make_records(np.arange(2.0 * n).reshape(n, 2), np.array([c for c, _ in pairs], dtype=np.int64),
                        np.array([z for _, z in pairs], dtype=np.int32))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(LABELS, DOMAINS), max_size=40))
@example([])
def test_pair_index_names_each_record_s_pair_among_the_distinct_pairs(records):
    pairs, codes = pair_index(pair_pool(records))
    assert pairs == sorted(set(records))  # distinct and ascending
    assert codes.dtype == np.uint8
    assert [pairs[i] for i in codes.tolist()] == records


@pytest.mark.parametrize("n_pairs, dtype", [(255, np.uint8), (256, np.uint16), (65_536, np.uint32)])
def test_pair_index_codes_widen_with_the_pair_count(n_pairs, dtype):
    records = [(c, -c % 3) for c in range(n_pairs)][::-1] * 2
    pairs, codes = pair_index(pair_pool(records))
    assert codes.dtype == dtype
    assert pairs == sorted(set(records))
    assert [pairs[i] for i in codes.tolist()] == records


@st.composite
def split_pools(draw):
    """A shuffled pool over a class x domain grid, uniform or ragged, with 1-3 records per pair."""
    classes = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    domains = draw(st.lists(st.sampled_from([-1, 0, 1, 2, 7]), min_size=1, max_size=4, unique=True))
    uniform = draw(st.booleans())
    records = []
    for c in classes:
        zs = domains if uniform else draw(st.lists(st.sampled_from(domains), min_size=1, unique=True))
        for z in zs:
            records += [(c, z)] * draw(st.integers(1, 3))
    return pair_pool(draw(st.permutations(records))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, database=None)
@given(split_pools())
def test_sessions_hold_the_records_the_per_pair_masks_pick(case):
    pool, seed = case
    n_pairs = len(set(zip(pool.y.tolist(), pool.domain.tolist())))
    accepted = 0
    for mode in ("NC", "ND", "NCD"):
        for n in range(1, min(n_pairs, 8) + 1):
            try:
                plan, rows = make_splits(pool, mode, n, seed)
            except ConfigError:
                continue  # the regime does not accept this grid with n sessions
            accepted += 1
            assert len(rows) == len(plan.sessions) == n
            for pairs, r in zip(plan.sessions, rows):
                assert pool.subset(r).ids.tolist() == pair_subset(pool, pairs).ids.tolist()
    assert accepted  # one NC session always fits


@settings(max_examples=100, deadline=None, database=None)
@given(split_pools())
def test_session_rows_ascend_are_disjoint_and_cover_the_pool(case):
    pool, seed = case
    for mode, n in (("NC", 1), ("NC", 2), ("ND", None), ("NCD", 3)):
        try:
            _, rows = make_splits(pool, mode, n, seed)
        except ConfigError:
            continue
        assert all(r.dtype == np.int64 and np.all(np.diff(r) > 0) for r in rows)
        np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(len(pool)))


def random_records(rng, n=1000, d=6):
    # float32-representable payloads make the round trip bit-exact
    x = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    return FeatureRecords(
        rng.choice(10 * n, size=n, replace=False).astype(np.uint64),
        x,
        rng.integers(0, 5, size=n),
        rng.integers(-1, 4, size=n).astype(np.int32),
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
        write_stream(path, empty_records(3))
        assert len(read_stream(path)) == 0

    def test_negative_class_label_rejected_on_write(self, tmp_path):
        records = make_records(np.zeros((1, 2)), np.array([-4]), 0)
        with pytest.raises(ValueError):
            write_stream(tmp_path / "neg.vmfs", records)

    def test_class_label_beyond_32_bits_rejected_on_write(self, tmp_path):
        # a u32 field would keep only the low bits: 2**32 + 7 would read back as class 7
        for y, fits in ((2**32 - 1, True), (2**32, False), (2**32 + 7, False)):
            records = make_records(np.zeros((1, 2)), np.array([y]), 0)
            path = tmp_path / f"{y}.vmfs"
            if fits:
                write_stream(path, records)
                assert read_stream(path).y.tolist() == [y]
            else:
                with pytest.raises(ValueError):
                    write_stream(path, records)

    def test_writing_holds_one_copy_of_the_records(self, tmp_path):
        records = random_records(np.random.default_rng(27), n=20_000, d=16)
        path = tmp_path / "big.vmfs"
        tracemalloc.start()
        try:
            write_stream(path, records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size

    def test_memory_role_round_trip(self, tmp_path):
        rng = np.random.default_rng(25)
        records = random_records(rng, n=10)
        path = tmp_path / "mem.vmfs"
        write_stream(path, records, ROLE_MEMORY)
        back = read_stream(path)
        np.testing.assert_array_equal(back.ids, records.ids)
        np.testing.assert_array_equal(back.x, records.x)

    @pytest.mark.parametrize("role", [3, 255, -1, None])
    def test_role_outside_0_to_2_rejected_on_write(self, tmp_path, role):
        # the reader would reject the file, so the writer does not make it
        path = tmp_path / "bad.vmfs"
        with pytest.raises(ValueError, match="role"):
            write_stream(path, random_records(np.random.default_rng(28), n=3), role)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39, -1e39])
    def test_feature_not_finite_in_float32_rejected_on_write(self, tmp_path, bad):
        # 1e39 is finite in float64 but casts to inf in float32; the record sits in a later block
        records = random_records(np.random.default_rng(29), n=PREDICT_BLOCK_ROWS + 5)
        records.x[PREDICT_BLOCK_ROWS + 2, 1] = bad
        path = tmp_path / "bad.vmfs"
        with pytest.raises(ValueError, match=f"record {PREDICT_BLOCK_ROWS + 2} has a feature"):
            write_stream(path, records)
        assert not path.exists()

    def test_repeated_id_rejected_on_write(self, tmp_path):
        records = make_records(np.ones((4, 2)), np.zeros(4, int))
        records.ids[[1, 3]] = 3
        path = tmp_path / "dup.vmfs"
        with pytest.raises(ValueError, match="duplicate example id 3 in record 3"):
            write_stream(path, records)
        assert not path.exists()

    def test_concat_preserves_order(self):
        rng = np.random.default_rng(26)
        a, b = random_records(rng, n=4), random_records(rng, n=3)
        both = concat_records(a, b)
        assert len(both) == 7
        np.testing.assert_array_equal(both.ids[:4], a.ids)
        np.testing.assert_array_equal(both.x[4:], b.x)


B = PREDICT_BLOCK_ROWS  # records the VMFS reader and writer handle at once


def record_size(d: int) -> int:
    return 8 + 4 + 4 + 1 + 4 * d


def whole_file_bytes(records: FeatureRecords, role: int) -> bytes:
    """The VMFS encoding of ``records`` with ``role``, built as one record array, the layout's definition."""
    n, d = len(records), records.dim
    arr = np.empty(n, np.dtype([("id", "<u8"), ("y", "<u4"), ("z", "<i4"), ("role", "u1"), ("x", "<f4", (d,))]))
    arr["id"], arr["y"], arr["z"], arr["role"], arr["x"] = records.ids, records.y, records.domain, role, records.x
    return b"VMFS" + (1).to_bytes(4, "little") + d.to_bytes(4, "little") + n.to_bytes(8, "little") + arr.tobytes()


class TestStreamChunks:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_round_trip_across_chunk_boundaries(self, tmp_path, n):
        records = random_records(np.random.default_rng(n), n=n, d=3)
        path = tmp_path / "s.vmfs"
        for role in (ROLE_TEST, ROLE_MEMORY, ROLE_TRAIN):
            write_stream(path, records, role)
            assert path.read_bytes() == whole_file_bytes(records, role)
        back = read_stream(path)
        for name in ("ids", "x", "y", "domain"):
            got, want = getattr(back, name), getattr(records, name)
            if name == "x":  # a read keeps the file's float32
                want = want.astype(np.float32)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want)

    def write_pool(self, tmp_path, ids=None, x_edits=(), roles=None):
        records = random_records(np.random.default_rng(30), n=2 * B + 3, d=3)
        records.ids = np.arange(len(records), dtype=np.uint64)
        for row, value in (ids or {}).items():
            records.ids[row] = value
        for row, col, value in x_edits:
            records.x[row, col] = value
        # encoded by the layout's definition, as write_stream refuses a repeated id or a bad feature
        raw = bytearray(whole_file_bytes(records, ROLE_TRAIN))
        for row, value in (roles or {}).items():  # the role byte follows the id, class and domain
            raw[20 + row * record_size(3) + 16] = value
        path = tmp_path / "pool.vmfs"
        path.write_bytes(bytes(raw))
        return path

    # the reported record is the first one whose id already appeared earlier in the file
    @pytest.mark.parametrize("ids, first", [
        ({B + 5: 7, 2 * B + 1: 9}, B + 5),  # two repeats of first-chunk ids
        ({B + 5: 2 * B}, 2 * B),  # record B + 5 takes record 2B's id: 2B is the repeat
        ({2 * B + 1: B + 3}, 2 * B + 1),  # both copies past the first chunk
        ({2 * B + 2: 2 * B}, 2 * B + 2),  # both copies in the last chunk
    ], ids=["first-chunk-ids", "copy-moved-earlier", "later-chunks", "last-chunk"])
    def test_duplicate_id_in_a_later_chunk_keeps_its_offset(self, tmp_path, ids, first):
        path = self.write_pool(tmp_path, ids=ids)
        with pytest.raises(ParseError, match="duplicate example id") as err:
            read_stream(path)
        assert err.value.offset == 20 + first * record_size(3)

    @pytest.mark.parametrize("row", [B + 7, 2 * B + 2])
    def test_truncation_in_a_later_chunk_keeps_its_offset(self, tmp_path, row):
        path = self.write_pool(tmp_path)
        path.write_bytes(path.read_bytes()[: 20 + row * record_size(3) + 5])
        with pytest.raises(ParseError, match="truncated record") as err:
            read_stream(path)
        assert err.value.offset == 20 + row * record_size(3)

    @pytest.mark.parametrize("extra", [0, 5])
    def test_a_file_that_shrinks_while_it_is_read_is_a_truncated_record(self, tmp_path, monkeypatch, extra):
        path = self.write_pool(tmp_path)
        raw = path.read_bytes()
        # sized from the whole file, then read from a cut one: only the chunk read comes back short
        path.write_bytes(raw[: 20 + (B + 7) * record_size(3) + extra])
        with monkeypatch.context() as m:
            m.setattr(streams.os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
            with pytest.raises(ParseError, match="truncated record") as err:
                read_stream(path)
        assert err.value.offset == 20 + (B + 7) * record_size(3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, B + 2])
    def test_nonfinite_feature_rejected_at_its_record(self, tmp_path, value, row):
        # a second bad record later in the file is not the one reported
        path = self.write_pool(tmp_path, x_edits=[(row, 1, value), (2 * B + 1, 0, np.nan)])
        with pytest.raises(ParseError, match="non-finite") as err:
            read_stream(path)
        assert err.value.offset == 20 + row * record_size(3)

    @pytest.mark.parametrize("value", [3, 0x7F, 0xFF])
    @pytest.mark.parametrize("row", [0, B + 2])
    def test_role_above_2_rejected_at_its_record(self, tmp_path, value, row):
        # a second bad record later in the file is not the one reported
        path = self.write_pool(tmp_path, roles={row: value, 2 * B + 1: 3})
        with pytest.raises(ParseError, match=f"role {value} ") as err:
            read_stream(path)
        assert err.value.offset == 20 + row * record_size(3)

    @pytest.mark.parametrize("first", ["role", "feature"])
    def test_the_first_bad_record_of_a_chunk_is_reported(self, tmp_path, first):
        rows = {"role": B + 2, "feature": B + 9} if first == "role" else {"role": B + 9, "feature": B + 2}
        path = self.write_pool(tmp_path, roles={rows["role"]: 3}, x_edits=[(rows["feature"], 0, np.inf)])
        with pytest.raises(ParseError, match="role 3" if first == "role" else "non-finite") as err:
            read_stream(path)
        assert err.value.offset == 20 + (B + 2) * record_size(3)

    def test_reading_holds_the_output_two_chunks_and_the_id_sort(self, tmp_path):
        n, d = 20_000, 16
        path = tmp_path / "big.vmfs"
        write_stream(path, random_records(np.random.default_rng(31), n=n, d=d))
        back, peak = traced_peak(read_stream, path)
        # on a valid file the duplicate-id check holds a sorted copy of the ids and a
        # mask of equal neighbours, 9 bytes per record, so under 12
        assert peak < record_bytes(back) + 2 * B * record_size(d) + 12 * n

    def test_writing_holds_two_chunks_and_the_id_sort(self, tmp_path):
        n, d = 20_000, 16
        records = random_records(np.random.default_rng(32), n=n, d=d)
        _, peak = traced_peak(write_stream, tmp_path / "big.vmfs", records)
        # the duplicate-id check holds a sorted copy of the ids and a mask of equal
        # neighbours, 9 bytes per record, before the file is opened
        assert peak < 2 * B * record_size(d) + 9 * n


class TestFeatureRecords:
    @staticmethod
    def columns(**kw):
        cols = dict(ids=np.arange(1, dtype=np.uint64), x=np.zeros((1, 2)), y=np.zeros(1, np.int64),
                    domain=np.zeros(1, np.int32))
        cols.update(kw)
        return cols

    # each of these used to be stored wrapped: as 2**64 - 1, 5, -2**63 and 44
    @pytest.mark.parametrize("column, value", [
        ("ids", np.array([-1])),
        ("domain", np.array([2**32 + 5])),
        ("y", np.array([2**63], dtype=np.uint64)),
    ], ids=["negative-id", "domain-beyond-int32", "label-beyond-int64"])
    def test_out_of_range_cast_rejected(self, column, value):
        with pytest.raises(ValueError, match="must lie in"):
            FeatureRecords(**self.columns(**{column: value}))

    def test_nan_label_rejected(self):
        with pytest.raises(ValueError, match="class labels"):
            FeatureRecords(**self.columns(y=np.array([np.nan])))

    @pytest.mark.parametrize("column", ["ids", "y", "domain"])
    def test_fractional_value_rejected(self, column):
        # a cast would truncate 1.5 to 1
        with pytest.raises(ValueError, match="whole numbers"):
            FeatureRecords(**self.columns(**{column: np.array([1.5])}))
        assert getattr(FeatureRecords(**self.columns(**{column: np.array([1.0])})), column).tolist() == [1]

    def test_in_range_casts_keep_their_values(self):
        r = FeatureRecords(np.array([0, 2**40]), np.zeros((2, 2)), np.array([3, 2**63 - 1], np.uint64),
                           np.array([-(2**31), 2**31 - 1]))
        assert r.ids.dtype == np.uint64 and r.ids.tolist() == [0, 2**40]
        assert r.y.dtype == np.int64 and r.y.tolist() == [3, 2**63 - 1]
        assert r.domain.dtype == np.int32 and r.domain.tolist() == [-(2**31), 2**31 - 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_and_float64_features_are_kept_as_they_are(self, dtype):
        x = np.zeros((1, 2), dtype)
        assert FeatureRecords(**self.columns(x=x)).x is x

    @pytest.mark.parametrize("x, dtype", [
        (np.zeros((1, 2), np.float16), np.float16), (np.zeros((1, 2), np.int64), np.int64),
        ([[0.5, 1.0]], float), (np.zeros((1, 2), np.complex128), np.complex128),
    ], ids=["float16", "int64", "list", "complex-without-imaginary-part"])
    def test_other_real_features_become_float64(self, x, dtype):
        r = FeatureRecords(**self.columns(x=x))
        assert r.x.dtype == np.float64
        np.testing.assert_array_equal(r.x, np.asarray(x, dtype).real)

    def test_complex_features_rejected(self):
        # a cast used to drop the imaginary part, with only a ComplexWarning
        with pytest.raises(ValueError, match="real numbers"):
            FeatureRecords(**self.columns(x=np.array([[1 + 2j, 0]])))

    def test_columns_of_their_own_dtype_are_kept_as_they_are(self):
        cols = self.columns()
        r = FeatureRecords(**cols)
        assert all(getattr(r, name) is column for name, column in cols.items())


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
