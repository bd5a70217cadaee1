"""Tests for the bi-level balanced replay memory."""

import numpy as np
import pytest
from helpers import make_bank, make_records

from vmfcl.errors import InsufficientBudget
from vmfcl.memory import MemoryBuffer, select_memory
from vmfcl.mixture import ModelBank
from vmfcl.vmf import normalize_rows


def build_case(rng, class_components, per_component):
    """A bank, records whose component membership is dictated exactly, and
    each record's component index by position.

    ``class_components``: {class_id: K}; ``per_component``: {(c, k): count}.
    """
    d = 4
    mixtures = {}
    xs, ys, zs = [], [], []
    for c, k_c in class_components.items():
        mixtures[c] = normalize_rows(rng.standard_normal((k_c, d)))
        for k in range(k_c):
            for _ in range(per_component.get((c, k), 0)):
                xs.append(rng.standard_normal(d))
                ys.append(c)
                zs.append(k)
    bank = make_bank(d, 16.0, mixtures)
    records = make_records(np.array(xs), np.array(ys), np.array(zs, np.int32))
    return bank, records, np.array(zs, np.int64)


class TestSelectMemory:
    def test_exact_division(self):
        rng = np.random.default_rng(1)
        bank, records, z = build_case(
            rng, {0: 2, 1: 2}, {(0, 0): 5, (0, 1): 6, (1, 0): 7, (1, 1): 4}
        )
        buf = select_memory(bank, records, z, 8, np.random.default_rng(2))
        assert len(buf) == 8
        counts = buf.component_counts()
        assert counts[0] == [2, 2] and counts[1] == [2, 2]

    def test_remainder_goes_to_larger_component(self):
        # budget 10, two classes -> 5 each; K=2 splits 3/2 with 3 to the
        # component holding more candidates
        rng = np.random.default_rng(3)
        bank, records, z = build_case(
            rng, {0: 2, 1: 1}, {(0, 0): 4, (0, 1): 9, (1, 0): 8}
        )
        buf = select_memory(bank, records, z, 10, np.random.default_rng(4))
        counts = buf.component_counts()
        assert counts[0] == [2, 3]
        assert buf.class_counts() == {0: 5, 1: 5}

    def test_class_remainder_to_lowest_ids(self):
        rng = np.random.default_rng(5)
        bank, records, z = build_case(
            rng, {3: 1, 8: 1, 11: 1}, {(3, 0): 10, (8, 0): 10, (11, 0): 10}
        )
        buf = select_memory(bank, records, z, 11, np.random.default_rng(6))
        assert buf.class_counts() == {3: 4, 8: 4, 11: 3}

    def test_shortfall_spills_largest_first(self):
        rng = np.random.default_rng(7)
        bank, records, z = build_case(
            rng, {0: 3}, {(0, 0): 1, (0, 1): 20, (0, 2): 10}
        )
        buf = select_memory(bank, records, z, 9, np.random.default_rng(8))
        counts = buf.component_counts()
        # quotas 3/3/3 -> comp 0 yields 1, shortfall 2 spills to comp 1 (largest)
        assert counts[0] == [1, 5, 3]
        assert len(buf) == 9

    def test_insufficient_budget_warns_and_prioritizes_low_ids(self):
        rng = np.random.default_rng(9)
        bank, records, z = build_case(
            rng, {0: 1, 1: 1, 2: 1}, {(0, 0): 4, (1, 0): 4, (2, 0): 4}
        )
        with pytest.warns(InsufficientBudget):
            buf = select_memory(bank, records, z, 2, np.random.default_rng(10))
        assert buf.class_counts() == {0: 1, 1: 1}

    def test_total_is_min_of_budget_and_supply(self):
        rng = np.random.default_rng(11)
        bank, records, z = build_case(rng, {0: 2, 1: 1}, {(0, 0): 3, (0, 1): 2, (1, 0): 4})
        buf = select_memory(bank, records, z, 50, np.random.default_rng(12))
        assert len(buf) == len(records)

    def test_selection_is_subset_without_duplicates(self):
        rng = np.random.default_rng(13)
        bank, records, z = build_case(
            rng, {0: 3, 1: 2}, {(0, 0): 9, (0, 1): 14, (0, 2): 3, (1, 0): 11, (1, 1): 6}
        )
        buf = select_memory(bank, records, z, 16, np.random.default_rng(14))
        chosen = buf.records.ids.tolist()
        assert len(set(chosen)) == len(chosen)
        assert set(chosen) <= set(records.ids.tolist())

    def test_identical_seeds_identical_selections(self):
        rng = np.random.default_rng(15)
        bank, records, z = build_case(
            rng, {0: 2, 1: 2}, {(0, 0): 30, (0, 1): 30, (1, 0): 30, (1, 1): 30}
        )
        a = select_memory(bank, records, z, 20, np.random.default_rng(16))
        b = select_memory(bank, records, z, 20, np.random.default_rng(16))
        np.testing.assert_array_equal(a.records.ids, b.records.ids)
        np.testing.assert_array_equal(a.components, b.components)

    def test_balance_when_supply_is_plentiful(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n_classes = int(rng.integers(1, 5))
            comp = {}
            shape = {}
            for c in range(n_classes):
                k = int(rng.integers(1, 5))
                shape[c] = k
                for kk in range(k):
                    comp[(c, kk)] = int(rng.integers(25, 40))
            bank, records, z = build_case(rng, shape, comp)
            budget = int(rng.integers(n_classes, 4 * n_classes + 10))
            buf = select_memory(bank, records, z, budget, np.random.default_rng(trial))
            cc = buf.class_counts()
            values = [cc.get(c, 0) for c in range(n_classes)]
            assert max(values) - min(values) <= 1
            for c, counts in buf.component_counts().items():
                padded = counts + [0] * (shape[c] - len(counts))
                assert max(padded) - min(padded) <= 1, (trial, c, padded)

    @pytest.mark.filterwarnings("ignore::vmfcl.errors.InsufficientBudget")
    def test_matches_quota_oracle(self):
        # independent re-derivation of the two-level quota arithmetic
        rng = np.random.default_rng(18)
        for trial in range(100):
            n_classes = int(rng.integers(1, 6))
            shape, comp = {}, {}
            for c in range(n_classes):
                k = int(rng.integers(1, 8))
                shape[c] = k
                for kk in range(k):
                    comp[(c, kk)] = int(rng.integers(0, 12))
            if sum(comp.values()) == 0:
                comp[(0, 0)] = 1
            bank, records, z = build_case(rng, shape, comp)
            budget = int(rng.integers(1, 30))
            buf = select_memory(bank, records, z, budget, np.random.default_rng(100 + trial))

            base, rem = divmod(budget, n_classes)
            got_class = buf.class_counts()
            for i, c in enumerate(sorted(shape)):
                quota = base + (1 if i < rem else 0)
                supply = sum(comp.get((c, kk), 0) for kk in range(shape[c]))
                assert got_class.get(c, 0) == min(quota, supply), (trial, c)
            got_comp = buf.component_counts()
            for c in sorted(shape):
                quota = base + (1 if sorted(shape).index(c) < rem else 0)
                counts = got_comp.get(c, [])
                counts = counts + [0] * (shape[c] - len(counts))
                for kk in range(shape[c]):
                    assert counts[kk] <= comp.get((c, kk), 0)

    def test_shared_ids_select_by_position(self):
        rng = np.random.default_rng(21)
        bank, records, z = build_case(rng, {0: 2}, {(0, 0): 6, (0, 1): 6})
        a = select_memory(bank, records, z, 6, np.random.default_rng(22))
        records.ids[:] = 0
        b = select_memory(bank, records, z, 6, np.random.default_rng(22))
        assert a.component_counts() == b.component_counts() == {0: [3, 3]}
        np.testing.assert_array_equal(a.records.x, b.records.x)

    def test_buffer_resumes_through_stream_file(self, tmp_path):
        # cross-process resumption: persist the buffer in a VMFS file of
        # the memory role, reload, and train on it
        rng = np.random.default_rng(19)
        bank, records, z = build_case(rng, {0: 1, 1: 1}, {(0, 0): 20, (1, 0): 20})
        records.x[:] = normalize_rows(records.x)
        buf = select_memory(bank, records, z, 8, np.random.default_rng(20))
        path = tmp_path / "memory.vmfs"
        from vmfcl.streams import ROLE_MEMORY, concat_records, read_stream, write_stream

        write_stream(path, buf.records, ROLE_MEMORY)
        reloaded = read_stream(path)
        np.testing.assert_array_equal(reloaded.ids, buf.records.ids)
        resumed = MemoryBuffer(8, reloaded, np.zeros(len(reloaded), np.int64))

        from vmfcl.backbone import init_params
        from vmfcl.structure import ReductionConfig
        from vmfcl.trainer import LossConfig, train_session

        fresh = records.subset(np.concatenate([np.arange(5), np.arange(20, 25)]))
        fresh.ids = fresh.ids + 5000
        params = init_params(4, 4, 0, np.random.default_rng(0))
        loss = LossConfig(epochs=1, batch_size=16, lr=0.05, backbone_lr=0.0)
        _, _, final = train_session(params, ModelBank(4, 16.0), concat_records(fresh, resumed.records),
                                    np.unique(fresh.y), m=4, loss=loss, reduction=ReductionConfig(), seed=1)
        assert len(final) == 10 + len(resumed)

    def test_buffer_over_budget_rejected(self):
        records = make_records(np.zeros((3, 2)), np.zeros(3, np.int64))
        with pytest.raises(ValueError):
            MemoryBuffer(2, records, np.zeros(3, np.int64))

    def test_components_misaligned_with_records_rejected(self):
        records = make_records(np.zeros((3, 2)), np.zeros(3, np.int64))
        for components in (np.zeros(2, np.int64), np.zeros(4, np.int64), np.zeros((3, 1), np.int64)):
            with pytest.raises(ValueError, match="one component per record"):
                MemoryBuffer(5, records, components)
