"""Tests for per-class mixtures: posteriors, assignment, prediction, snapshots."""

import math
import struct

import numpy as np
import pytest

from vmfcl.errors import DimensionError, EmptyModel, ParseError, UnknownClass
from vmfcl.mixture import (
    PREDICT_BLOCK_ROWS,
    BankLayout,
    ClassMixture,
    ModelBank,
    assign_component,
    class_posterior,
    component_posterior,
    load_snapshot,
    predict,
    predict_batch,
    save_snapshot,
)
from vmfcl.vmf import normalize, normalize_rows


def bank_2d(kappa=1.0) -> ModelBank:
    return ModelBank(2, kappa, {
        0: ClassMixture(0, np.array([[1.0, 0.0], [0.0, 1.0]])),
    })


def random_bank(rng, n_classes=3, max_k=5, d=4, kappa=16.0) -> ModelBank:
    mixtures = {}
    for c in range(n_classes):
        k = int(rng.integers(1, max_k + 1))
        mixtures[c] = ClassMixture(c, normalize_rows(rng.standard_normal((k, d))))
    return ModelBank(d, kappa, mixtures)


class TestComponentPosterior:
    def test_single_component(self):
        bank = ModelBank(2, 16.0, {5: ClassMixture(5, np.array([[0.0, 1.0]]))})
        np.testing.assert_array_equal(component_posterior(bank, 5, [1.0, 0.0]), [1.0])

    def test_two_term_softmax(self):
        post = component_posterior(bank_2d(kappa=1.0), 0, np.array([1.0, 0.0]))
        e = math.e
        np.testing.assert_allclose(post, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)

    def test_symmetric_input_splits_evenly(self):
        v = normalize([1.0, 1.0])
        post = component_posterior(bank_2d(kappa=16.0), 0, v)
        np.testing.assert_allclose(post, [0.5, 0.5], rtol=1e-12)

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            component_posterior(bank_2d(), 9, [1.0, 0.0])

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 16.0, 100.0])
    def test_sums_to_one(self, kappa):
        rng = np.random.default_rng(7)
        bank = random_bank(rng, kappa=kappa)
        for _ in range(100):
            v = normalize(rng.standard_normal(4))
            post = component_posterior(bank, int(rng.integers(3)), v)
            assert np.all(post >= 0)
            assert abs(float(np.sum(post)) - 1.0) < 1e-9


class TestAssignComponent:
    def test_larger_dot_wins(self):
        assert assign_component(bank_2d(), 0, np.array([0.6, 0.8])) == 1

    def test_single_component(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.array([[0.0, 1.0]]))})
        assert assign_component(bank, 0, [1.0, 0.0]) == 0

    def test_tie_breaks_to_lowest_index(self):
        mu = normalize([1.0, 1.0])
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.vstack([mu, mu, mu]))})
        assert assign_component(bank, 0, [1.0, 0.0]) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            bank = random_bank(rng, n_classes=1, max_k=5)
            v = normalize(rng.standard_normal(4))
            dots = [float(m @ v) for m in bank.mixtures[0].means]
            assert assign_component(bank, 0, v) == dots.index(max(dots))

    def test_agrees_with_posterior_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            bank = random_bank(rng, n_classes=2, max_k=6)
            c = int(rng.integers(2))
            v = normalize(rng.standard_normal(4))
            assert assign_component(bank, c, v) == int(np.argmax(component_posterior(bank, c, v)))


class TestClassPosterior:
    def test_single_class(self):
        bank = ModelBank(2, 16.0, {3: ClassMixture(3, np.array([[1.0, 0.0]]))})
        np.testing.assert_array_equal(class_posterior(bank, [0.0, 1.0]), [1.0])

    def test_two_class_softmax(self):
        bank = ModelBank(2, 1.0, {
            0: ClassMixture(0, np.array([[1.0, 0.0]])),
            1: ClassMixture(1, np.array([[0.0, 1.0]])),
        })
        e = math.e
        np.testing.assert_allclose(
            class_posterior(bank, [1.0, 0.0]), [e / (e + 1), 1 / (e + 1)], rtol=1e-12
        )

    def test_duplicate_components_cancel(self):
        # 1/K_y weighting makes two identical components equal one
        mu = normalize([1.0, 2.0])
        bank = ModelBank(2, 16.0, {
            0: ClassMixture(0, np.vstack([mu, mu])),
            1: ClassMixture(1, mu[None, :]),
        })
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = normalize(rng.standard_normal(2))
            np.testing.assert_allclose(class_posterior(bank, v), [0.5, 0.5], rtol=1e-12)

    def test_empty_bank(self):
        with pytest.raises(EmptyModel):
            class_posterior(ModelBank(2, 16.0), [1.0, 0.0])

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 16.0, 100.0])
    def test_sums_to_one(self, kappa):
        rng = np.random.default_rng(10)
        bank = random_bank(rng, kappa=kappa)
        for _ in range(100):
            post = class_posterior(bank, normalize(rng.standard_normal(4)))
            assert np.all(post >= 0)
            assert abs(float(np.sum(post)) - 1.0) < 1e-9


class TestPredict:
    def test_exact_component_match(self):
        means = np.eye(4)
        bank = ModelBank(4, 16.0, {
            0: ClassMixture(0, means[0:2]),
            1: ClassMixture(1, means[2:3]),
            2: ClassMixture(2, means[3:4]),
        })
        assert predict(bank, means[2]) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            bank = random_bank(rng, n_classes=3, max_k=4)
            v = normalize(rng.standard_normal(4))
            best = max(
                ((c, float(np.max(bank.mixtures[c].means @ v))) for c in bank.class_ids),
                key=lambda t: (t[1], -t[0]),
            )
            assert predict(bank, v) == best[0]

    def test_exact_tie_goes_to_lower_class(self):
        mu = normalize([1.0, 3.0])
        other = normalize([-3.0, 1.0])
        bank = ModelBank(2, 16.0, {
            4: ClassMixture(4, np.vstack([mu, other])),
            7: ClassMixture(7, mu[None, :]),
        })
        assert predict(bank, mu) == 4

    def test_invariant_to_kappa_rescaling(self):
        rng = np.random.default_rng(13)
        bank = random_bank(rng, kappa=16.0)
        for kappa in (0.5, 4.0, 64.0):
            scaled = ModelBank(4, kappa, {c: m.copy() for c, m in bank.mixtures.items()})
            for _ in range(25):
                v = normalize(rng.standard_normal(4))
                assert predict(bank, v) == predict(scaled, v)

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
        # predict max-pools components; class_posterior mean-pools. Both are
        # part of the contract and they genuinely diverge on inputs like this.
        v = np.array([1.0, 0.0])
        near, far = normalize([0.95, np.sqrt(1 - 0.95**2)]), np.array([-1.0, 0.0])
        bank = ModelBank(2, 1.0, {
            0: ClassMixture(0, normalize([0.9, np.sqrt(1 - 0.81)])[None, :]),
            1: ClassMixture(1, np.vstack([near, far])),
        })
        assert predict(bank, v) == 1
        assert int(np.argmax(class_posterior(bank, v))) == 0


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        bank = random_bank(rng, n_classes=4, max_k=6, d=5)
        layers = [(rng.standard_normal((6, 5)), rng.standard_normal(6)),
                  (rng.standard_normal((5, 6)), rng.standard_normal(5))]
        path = tmp_path / "model.vmfb"
        save_snapshot(path, bank, layers)
        loaded, loaded_layers = load_snapshot(path)
        assert loaded.dim == bank.dim
        assert loaded.kappa == pytest.approx(bank.kappa)
        assert loaded.class_ids == bank.class_ids
        for c in bank.class_ids:
            np.testing.assert_allclose(loaded.mixtures[c].means, bank.mixtures[c].means, atol=1e-6)
        for (w, b), (lw, lb) in zip(layers, loaded_layers):
            np.testing.assert_allclose(lw, w, atol=1e-5)
            np.testing.assert_allclose(lb, b, atol=1e-6)

    def test_round_trip_without_backbone(self, tmp_path):
        bank = ModelBank(3, 16.0, {0: ClassMixture(0, np.eye(3)[:2])})
        path = tmp_path / "bankonly.vmfb"
        save_snapshot(path, bank)
        loaded, layers = load_snapshot(path)
        assert layers is None
        assert loaded.mixtures[0].num_components == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vmfb"
        path.write_bytes(b"XXXX" + b"\0" * 30)
        with pytest.raises(ParseError) as err:
            load_snapshot(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.array([[1.0, 0.0]]))})
        path = tmp_path / "v9.vmfb"
        save_snapshot(path, bank)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            load_snapshot(path)

    def test_truncated(self, tmp_path):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.array([[1.0, 0.0]]))})
        path = tmp_path / "cut.vmfb"
        save_snapshot(path, bank)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError):
            load_snapshot(path)

    # Layout of the snapshot below: dim at 8, kappa at 12, class 0 header at
    # 20 (K at 24) and means at 28, class 5 header at 52 and means at 60,
    # THET at 72, layer 0 dims at 80, weights at 88, biases at 112, layer 1
    # dims at 120 (its input dim at 124).
    @pytest.mark.parametrize("at, fmt, value, offset", [
        (40, "<3f", (0.0, 0.0, 0.0), 40),  # all-zero mean would load as NaN
        (28, "<f", math.nan, 28),
        (32, "<f", math.inf, 28),
        (68, "<f", -math.inf, 60),
        (12, "<f", math.nan, 12),
        (12, "<f", math.inf, 12),
        (12, "<f", -1.0, 12),
        (52, "<I", 0, 52),  # duplicate class id
        (24, "<I", 0, 24),  # K = 0
        (8, "<I", 0, 8),
        (8, "<I", 1, 8),
        (96, "<f", math.nan, 88),
        (112, "<f", math.inf, 88),
        (124, "<I", 5, 120),  # layers (2, 3), (3, 5) do not compose
        (120, "<I", 4, 120),  # output dim 4, bank dim 3
    ], ids=[
        "zero-mean", "nan-mean", "inf-mean", "neg-inf-mean", "nan-kappa", "inf-kappa",
        "negative-kappa", "duplicate-class", "k-zero", "dim-zero", "dim-one",
        "nan-weight", "inf-bias", "layers-do-not-compose", "output-dim-mismatch",
    ])
    def test_corrupt_payload_raises_with_offset(self, tmp_path, at, fmt, value, offset):
        bank = ModelBank(3, 16.0, {
            0: ClassMixture(0, np.eye(3)[:2]),
            5: ClassMixture(5, np.eye(3)[2:]),
        })
        path = tmp_path / "bad.vmfb"
        save_snapshot(path, bank, [(np.ones((2, 3)), np.ones(2)), (np.ones((3, 2)), np.ones(3))])
        raw = bytearray(path.read_bytes())
        assert len(raw) == 164
        values = value if isinstance(value, tuple) else (value,)
        struct.pack_into(fmt, raw, at, *values)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as err:
            load_snapshot(path)
        assert err.value.offset == offset


class TestClassMixture:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mean_rejected(self, bad):
        with pytest.raises(DimensionError):
            ClassMixture(0, np.array([[bad, 0.0]]))


class TestPackedBank:
    def test_from_packed_checks_its_rows(self):
        layout = BankLayout([0, 3], [1, 2])
        good = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        bank = ModelBank.from_packed(2, 16.0, layout, good)
        assert bank.class_ids == [0, 3]
        np.testing.assert_array_equal(bank.mixtures[3].means, good[1:])
        for bad in (good[:2], np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.9]]), np.full((3, 2), np.nan)):
            with pytest.raises(DimensionError):
                ModelBank.from_packed(2, 16.0, layout, bad)
        with np.errstate(divide="ignore"):  # the layout's log(0)
            empty_class = BankLayout([0, 3], [2, 0])
        with pytest.raises(DimensionError):
            ModelBank.from_packed(2, 16.0, empty_class, good[:2])

    def test_rows_of_maps_class_and_component_to_the_packed_row(self):
        layout = BankLayout([0, 3], [1, 2])
        assert layout.rows_of(np.array([3, 0, 3]), np.array([1, 0, 0])).tolist() == [2, 0, 1]
        with pytest.raises(UnknownClass):
            layout.rows_of(np.array([1]), np.array([0]))
        with pytest.raises(UnknownClass):
            BankLayout([], []).rows_of(np.array([0]), np.array([0]))
        for z in (-1, 2):
            with pytest.raises(ValueError):
                layout.rows_of(np.array([3]), np.array([z]))
