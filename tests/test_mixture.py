"""Tests for per-class mixtures: posteriors, assignment, prediction, snapshots."""

import math
import struct

import numpy as np
import pytest
from helpers import assign_one, decode_snapshot, make_bank, predict_one

from vmfcl.errors import DimensionError, EmptyModel, UnknownClass
from vmfcl.mixture import (
    PREDICT_BLOCK_ROWS,
    ModelBank,
    log_posteriors,
    predict_batch,
    save_snapshot,
)
from vmfcl.vmf import normalize, normalize_rows


def bank_2d(kappa=1.0) -> ModelBank:
    return make_bank(2, kappa, {
        0: np.array([[1.0, 0.0], [0.0, 1.0]]),
    })


def posteriors(bank: ModelBank, vs) -> tuple[np.ndarray, np.ndarray]:
    """Within-class (n, K) and class (n, C) posteriors of the rows of ``vs``, as
    ``loss_and_grad`` computes them."""
    t = bank.kappa * (np.atleast_2d(np.asarray(vs, dtype=np.float64)) @ bank.means.T)
    log_p, _ = log_posteriors(t, bank)
    return np.exp(t), np.exp(log_p)


def component_post(bank: ModelBank, class_id: int, v) -> np.ndarray:
    """The within-class posterior of one class for one input."""
    i = bank.class_ids.index(class_id)
    return posteriors(bank, v)[0][0, bank.offsets[i] : bank.offsets[i + 1]]


def class_post(bank: ModelBank, v) -> np.ndarray:
    """The class posterior (ascending class ids) for one input."""
    return posteriors(bank, v)[1][0]


def random_bank(rng, n_classes=3, max_k=5, d=4, kappa=16.0) -> ModelBank:
    mixtures = {}
    for c in range(n_classes):
        k = int(rng.integers(1, max_k + 1))
        mixtures[c] = normalize_rows(rng.standard_normal((k, d)))
    return make_bank(d, kappa, mixtures)


class TestComponentPosterior:
    def test_single_component(self):
        bank = make_bank(2, 16.0, {5: np.array([[0.0, 1.0]])})
        np.testing.assert_array_equal(component_post(bank, 5, [1.0, 0.0]), [1.0])

    def test_two_term_softmax(self):
        post = component_post(bank_2d(kappa=1.0), 0, np.array([1.0, 0.0]))
        e = math.e
        np.testing.assert_allclose(post, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)

    def test_symmetric_input_splits_evenly(self):
        v = normalize([1.0, 1.0])
        post = component_post(bank_2d(kappa=16.0), 0, v)
        np.testing.assert_allclose(post, [0.5, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 16.0, 100.0])
    def test_sums_to_one(self, kappa):
        rng = np.random.default_rng(7)
        bank = random_bank(rng, kappa=kappa)
        for _ in range(100):
            v = normalize(rng.standard_normal(4))
            post = component_post(bank, int(rng.integers(3)), v)
            assert np.all(post >= 0)
            assert abs(float(np.sum(post)) - 1.0) < 1e-9


class TestAssignComponent:
    def test_larger_dot_wins(self):
        assert assign_one(bank_2d(), 0, np.array([0.6, 0.8])) == 1

    def test_single_component(self):
        bank = make_bank(2, 16.0, {0: np.array([[0.0, 1.0]])})
        assert assign_one(bank, 0, [1.0, 0.0]) == 0

    def test_tie_breaks_to_lowest_index(self):
        mu = normalize([1.0, 1.0])
        bank = make_bank(2, 16.0, {0: np.vstack([mu, mu, mu])})
        assert assign_one(bank, 0, [1.0, 0.0]) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            bank = random_bank(rng, n_classes=1, max_k=5)
            v = normalize(rng.standard_normal(4))
            dots = [float(m @ v) for m in bank.mixtures[0].means]
            assert assign_one(bank, 0, v) == dots.index(max(dots))

    def test_agrees_with_posterior_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            bank = random_bank(rng, n_classes=2, max_k=6)
            c = int(rng.integers(2))
            v = normalize(rng.standard_normal(4))
            assert assign_one(bank, c, v) == int(np.argmax(component_post(bank, c, v)))


class TestClassPosterior:
    def test_single_class(self):
        bank = make_bank(2, 16.0, {3: np.array([[1.0, 0.0]])})
        np.testing.assert_array_equal(class_post(bank, [0.0, 1.0]), [1.0])

    def test_two_class_softmax(self):
        bank = make_bank(2, 1.0, {
            0: np.array([[1.0, 0.0]]),
            1: np.array([[0.0, 1.0]]),
        })
        e = math.e
        np.testing.assert_allclose(
            class_post(bank, [1.0, 0.0]), [e / (e + 1), 1 / (e + 1)], rtol=1e-12
        )

    def test_duplicate_components_cancel(self):
        # 1/K_y weighting makes two identical components equal one
        mu = normalize([1.0, 2.0])
        bank = make_bank(2, 16.0, {
            0: np.vstack([mu, mu]),
            1: mu[None, :],
        })
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = normalize(rng.standard_normal(2))
            np.testing.assert_allclose(class_post(bank, v), [0.5, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 16.0, 100.0])
    def test_sums_to_one(self, kappa):
        rng = np.random.default_rng(10)
        bank = random_bank(rng, kappa=kappa)
        for _ in range(100):
            post = class_post(bank, normalize(rng.standard_normal(4)))
            assert np.all(post >= 0)
            assert abs(float(np.sum(post)) - 1.0) < 1e-9


class TestPredict:
    def test_exact_component_match(self):
        means = np.eye(4)
        bank = make_bank(4, 16.0, {
            0: means[0:2],
            1: means[2:3],
            2: means[3:4],
        })
        assert predict_one(bank, means[2]) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            bank = random_bank(rng, n_classes=3, max_k=4)
            v = normalize(rng.standard_normal(4))
            best = max(
                ((c, float(np.max(bank.mixtures[c].means @ v))) for c in bank.class_ids),
                key=lambda t: (t[1], -t[0]),
            )
            assert predict_one(bank, v) == best[0]

    def test_empty_bank_raises(self):
        with pytest.raises(EmptyModel):
            predict_batch(ModelBank(2, 16.0), np.eye(2))

    def test_exact_tie_goes_to_lower_class(self):
        mu = normalize([1.0, 3.0])
        other = normalize([-3.0, 1.0])
        bank = make_bank(2, 16.0, {
            4: np.vstack([mu, other]),
            7: mu[None, :],
        })
        assert predict_one(bank, mu) == 4

    def test_invariant_to_kappa_rescaling(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, kappa=16.0)
        for kappa in (0.5, 4.0, 64.0):
            scaled = make_bank(4, kappa, {c: m.means.copy() for c, m in bank.mixtures.items()})
            for _ in range(25):
                v = normalize(rng.standard_normal(4))
                assert predict_one(bank, v) == predict_one(scaled, v)

    def test_batch_variant_matches(self):
        # the second size spans two full blocks of predict_batch and a partial third
        rng = np.random.default_rng(14)
        bank = random_bank(rng)
        mixtures = bank.mixtures
        for n in (40, 2 * PREDICT_BLOCK_ROWS + 3):
            vs = normalize_rows(rng.standard_normal((n, 4)))
            expected = [
                max(
                    ((c, float(np.max(mixtures[c].means @ v))) for c in bank.class_ids),
                    key=lambda t: (t[1], -t[0]),
                )[0]
                for v in vs
            ]
            np.testing.assert_array_equal(predict_batch(bank, vs), expected)

    def test_max_pooling_can_disagree_with_mean_pooling(self):
        # predict_batch max-pools components; log_posteriors mean-pools. Both are
        # part of the contract and they genuinely diverge on inputs like this.
        v = np.array([1.0, 0.0])
        near, far = normalize([0.95, np.sqrt(1 - 0.95**2)]), np.array([-1.0, 0.0])
        bank = make_bank(2, 1.0, {
            0: normalize([0.9, np.sqrt(1 - 0.81)])[None, :],
            1: np.vstack([near, far]),
        })
        assert predict_one(bank, v) == 1
        assert int(np.argmax(class_post(bank, v))) == 0


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        bank = random_bank(rng, n_classes=4, max_k=6, d=5)
        layers = [(rng.standard_normal((6, 5)), rng.standard_normal(6)),
                  (rng.standard_normal((5, 6)), rng.standard_normal(5))]
        path = tmp_path / "model.vmfb"
        save_snapshot(path, bank, layers)
        snap = decode_snapshot(path.read_bytes())
        assert (snap.magic, snap.version) == (b"VMFB", 1)
        assert snap.dim == bank.dim
        assert snap.kappa == np.float32(bank.kappa)
        assert list(snap.means) == bank.class_ids
        for c in bank.class_ids:
            np.testing.assert_array_equal(snap.means[c], bank.mixtures[c].means.astype("<f4"))
        assert len(snap.layers) == len(layers)
        for (w, b), (lw, lb) in zip(layers, snap.layers):
            np.testing.assert_array_equal(lw, w.astype("<f4"))
            np.testing.assert_array_equal(lb, b.astype("<f4"))

    def test_round_trip_without_backbone(self, tmp_path):
        bank = make_bank(3, 16.0, {0: np.eye(3)[:2]})
        path = tmp_path / "bankonly.vmfb"
        save_snapshot(path, bank)
        snap = decode_snapshot(path.read_bytes())
        assert snap.layers is None
        np.testing.assert_array_equal(snap.means[0], np.eye(3)[:2])

    def test_byte_layout(self, tmp_path):
        bank = make_bank(3, 16.0, {
            0: np.eye(3)[:2],
            5: np.eye(3)[2:],
        })
        path = tmp_path / "golden.vmfb"
        layers = [(np.arange(6.0).reshape(2, 3), np.full(2, 20.0)),
                  (np.arange(10.0, 16.0).reshape(3, 2), np.full(3, 30.0))]
        save_snapshot(path, bank, layers)
        raw = path.read_bytes()
        fields = [  # (offset, format, values), in file order
            (0, "<4sIIfI", (b"VMFB", 1, 3, 16.0, 2)),  # dim at 8, kappa at 12
            (20, "<II", (0, 2)),  # class 0, K at 24
            (28, "<6f", (1, 0, 0, 0, 1, 0)),
            (52, "<II", (5, 1)),
            (60, "<3f", (0, 0, 1)),
            (72, "<4sI", (b"THET", 2)),
            (80, "<II", (2, 3)),  # layer 0: out, in, row-major weights, biases
            (88, "<6f", (0, 1, 2, 3, 4, 5)),
            (112, "<2f", (20, 20)),
            (120, "<II", (3, 2)),
            (128, "<6f", (10, 11, 12, 13, 14, 15)),
            (152, "<3f", (30, 30, 30)),
        ]
        at = 0
        for offset, fmt, values in fields:
            assert offset == at
            assert struct.unpack_from(fmt, raw, offset) == values
            at += struct.calcsize(fmt)
        assert at == len(raw) == 164


class TestClassMixture:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mean_rejected(self, bad):
        with pytest.raises(DimensionError):
            make_bank(2, 16.0, {0: np.array([[bad, 0.0]])})

    def test_means_of_another_dimension_rejected(self):
        for means in (np.array([[1.0, 0.0]]), np.array([1.0, 0.0, 0.0]), np.ones((1, 1, 3))):
            with pytest.raises(DimensionError):
                ModelBank(3, 16.0, [0], [1], means)

    def test_mixture_is_a_view_of_the_packed_rows(self):
        bank = make_bank(2, 16.0, {0: np.eye(2), 4: np.array([[0.6, 0.8]])})
        view = bank.mixtures[4]
        assert view.num_components == 1 and np.array_equal(view.means, [[0.6, 0.8]])
        assert np.shares_memory(view.means, bank.means)
        assert [m.num_components for m in bank.mixtures.values()] == bank.sizes.tolist()


class TestPackedBank:
    def test_constructor_checks_its_rows(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        bank = ModelBank(2, 16.0, [0, 3], [1, 2], good)
        assert bank.class_ids == [0, 3]
        np.testing.assert_array_equal(bank.mixtures[3].means, good[1:])
        for bad in (good[:2], np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.9]]), np.full((3, 2), np.nan)):
            with pytest.raises(DimensionError):
                ModelBank(2, 16.0, [0, 3], [1, 2], bad)

    def test_the_empty_bank(self):
        bank = ModelBank(3, 16.0)
        assert bank.class_ids == [] and bank.means.shape == (0, 3)
        assert bank.offsets.tolist() == [0] and bank.sizes.size == 0

    @pytest.mark.parametrize("sizes", [[2, 0], [0, 1], [3, -1]])
    def test_layout_rejects_a_class_without_components(self, sizes):
        # the means fill the blocks, so only the size check can refuse them
        means = np.tile([1.0, 0.0], (sum(sizes), 1))
        with pytest.raises(DimensionError, match="at least one component"):
            ModelBank(2, 16.0, [0, 3], sizes, means)

    @pytest.mark.parametrize("ids", [[3, 1], [1, 1], [0, 2, 2]])
    def test_layout_rejects_class_ids_that_do_not_strictly_ascend(self, ids):
        with pytest.raises(DimensionError, match="strictly ascend"):
            ModelBank(2, 16.0, ids, [1] * len(ids), np.tile([1.0, 0.0], (len(ids), 1)))

    def test_index_arrays_are_read_only_and_shared_by_with_means(self):
        ids = np.array([0, 3])
        bank = ModelBank(2, 16.0, ids, [1, 2], np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        assert ids.flags.writeable  # the bank froze its own copy
        moved = bank.with_means(bank.means[::-1].copy())
        for name in ("ids", "offsets", "starts", "sizes", "log_sizes", "column_index", "column_class",
                     "half_pair_weight", "column_pair_weight"):
            assert not getattr(bank, name).flags.writeable, name
            assert getattr(moved, name) is getattr(bank, name), name
        assert moved.class_ids == bank.class_ids and bank.means[0, 0] == 1.0
        # the teacher map one bank computed is the other's cached answer
        assert moved.teacher_columns(bank)[0] is bank.teacher_columns(bank)[0]

    def test_rows_of_maps_class_and_component_to_the_packed_row(self):
        bank = ModelBank(2, 16.0, [0, 3], [1, 2], np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        assert bank.rows_of(np.array([3, 0, 3]), np.array([1, 0, 0])).tolist() == [2, 0, 1]
        with pytest.raises(UnknownClass):
            bank.rows_of(np.array([1]), np.array([0]))
        with pytest.raises(UnknownClass):
            ModelBank(2, 16.0).rows_of(np.array([0]), np.array([0]))
        for z in (-1, 2):
            with pytest.raises(ValueError):
                bank.rows_of(np.array([3]), np.array([z]))
