"""Tests for the per-session hard-EM training loop and its loss terms."""

import io
import math
import tracemalloc

import numpy as np
import oracles
import pytest
from helpers import empty_records, make_bank, make_records

from vmfcl.backbone import BackboneParams, forward_batch, init_params, loss_and_grad
from vmfcl.bench import log_to
from vmfcl.errors import ModelRegression, NumericalError, UnknownClass, VmfclError
from vmfcl.memory import select_memory
from vmfcl.mixture import PREDICT_BLOCK_ROWS, ModelBank
from vmfcl.streams import SynthConfig, concat_records, generate_synthetic
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import (
    _e_step_array as e_step,
    LossConfig,
    _old_log_posteriors,
    clf_loss,
    distill_loss,
    lambda_at,
    reg_loss,
    train_session,
)
from vmfcl.vmf import normalize, normalize_rows


def identity_backbone(d: int) -> BackboneParams:
    return BackboneParams([(np.eye(d), np.zeros(d))])


class TestLambdaAt:
    def test_starts_at_zero(self):
        assert lambda_at(0, LossConfig()) == 0.0

    def test_linear_midpoint(self):
        assert lambda_at(5, LossConfig()) == pytest.approx(0.05)

    def test_clamped_after_warmup(self):
        assert lambda_at(25, LossConfig()) == pytest.approx(0.1)

    def test_non_decreasing_and_clamped(self):
        cfg = LossConfig()
        seq = [lambda_at(e, cfg) for e in range(40)]
        assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
        assert max(seq) <= cfg.lambda_max

    def test_zero_warmup_jumps_to_max(self):
        assert lambda_at(0, LossConfig(lambda_warmup_epochs=0)) == pytest.approx(0.1)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lambda_at(-1, LossConfig())


class TestEStep:
    def test_feature_on_mean_assigned_there(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)})
        recs = make_records(np.array([[0.0, 5.0]]), np.array([0]))
        z = e_step(bank, forward_batch(identity_backbone(2), recs.x), recs.y)
        assert z.tolist() == [1]

    def test_equidistant_tie_goes_to_first(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)})
        recs = make_records(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([0, 0]))
        z = e_step(bank, forward_batch(identity_backbone(2), recs.x), recs.y)
        assert z.tolist() == [0, 0]

    def test_separated_generators_recovered(self):
        rng = np.random.default_rng(40)
        from vmfcl.streams import sample_vmf

        centers = np.eye(8)[:2]
        x = np.vstack([sample_vmf(rng, centers[0], 16.0, 50), sample_vmf(rng, centers[1], 16.0, 50)])
        true = np.repeat([0, 1], 50)
        bank = make_bank(8, 16.0, {0: centers})
        recs = make_records(x, np.zeros(100, dtype=int))
        got = e_step(bank, forward_batch(identity_backbone(8), recs.x), recs.y)
        agreement = max(np.mean(got == true), np.mean(got == 1 - true))
        assert agreement == 1.0

    def test_fixed_point(self):
        rng = np.random.default_rng(41)
        bank = make_bank(4, 16.0, {0: normalize_rows(rng.standard_normal((3, 4)))})
        recs = make_records(rng.standard_normal((30, 4)), np.zeros(30, dtype=int))
        params = identity_backbone(4)
        first = e_step(bank, forward_batch(params, recs.x), recs.y)
        second = e_step(bank, forward_batch(params, recs.x), recs.y)
        np.testing.assert_array_equal(first, second)

    def test_label_the_bank_lacks_raises(self):
        feats = np.eye(2)
        bank = make_bank(2, 16.0, {0: np.eye(2), 2: np.eye(2)})
        for y in ([0, 1], [3, 0], [-1, 2]):
            with pytest.raises(UnknownClass):
                e_step(bank, feats, np.array(y))
        with pytest.raises(UnknownClass):
            e_step(ModelBank(2, 16.0), feats, np.array([0, 0]))


class TestLossTerms:
    def setup_bank(self):
        bank = make_bank(2, 16.0, {
            0: np.eye(2),
            1: normalize(np.array([-1.0, -1.0]))[None, :],
        })
        return bank, identity_backbone(2)

    def test_single_class_inter_is_zero(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)})
        recs = make_records(np.array([[1.0, 0.2]]), np.array([0]))
        assert clf_loss(bank, identity_backbone(2), recs, [0], lam=0.0) == pytest.approx(0.0)

    def test_matches_posterior_composition(self):
        bank, params = self.setup_bank()
        x = normalize_rows(np.array([[0.9, 0.1], [-0.5, -0.6]]))
        recs = make_records(x, np.array([0, 1]))
        z = [1, 0]
        lam = 0.1
        expected = 0.0
        for i in range(2):
            v = x[i]
            # each class's mean of exp(kappa mu . v) over its components, and each component's share
            e = {c: np.exp(bank.kappa * (mix.means @ v)) for c, mix in bank.mixtures.items()}
            cp = {c: np.mean(ec) / sum(np.mean(ek) for ek in e.values()) for c, ec in e.items()}
            expected -= math.log(cp[int(recs.y[i])])
            comp = e[int(recs.y[i])] / np.sum(e[int(recs.y[i])])
            expected -= lam * math.log(comp[z[i]])
        expected /= 2
        assert clf_loss(bank, params, recs, z, lam) == pytest.approx(expected, abs=1e-9)

    def test_certain_assignment_kills_intra_term(self):
        bank = make_bank(2, 16.0, {0: np.array([[1.0, 0.0]])})
        recs = make_records(np.array([[1.0, 0.0]]), np.array([0]))
        assert clf_loss(bank, identity_backbone(2), recs, [0], lam=0.7) == pytest.approx(0.0)

    def test_distill_zero_for_identical_models(self):
        bank, params = self.setup_bank()
        recs = make_records(normalize_rows(np.array([[0.3, 0.9], [-0.8, 0.1]])), np.array([0, 1]))
        assert distill_loss(bank, params, params, bank, recs) == pytest.approx(0.0, abs=1e-12)

    def test_distill_zero_without_snapshot(self):
        bank, params = self.setup_bank()
        recs = make_records(np.array([[1.0, 0.0]]), np.array([0]))
        assert distill_loss(bank, params, params, ModelBank(2, 16.0), recs) == 0.0

    def test_distill_direct_kl_value(self):
        # current posterior (0.9, 0.1) against a uniform teacher (0.5, 0.5)
        kappa = 16.0
        v = np.array([1.0, 0.0])
        gap = math.log(9.0) / kappa
        mu2 = normalize([1.0 - gap, math.sqrt(1.0 - (1.0 - gap) ** 2)])
        # mu2 chosen so dot(v, mu2) = 1 - gap exactly
        mu2 = np.array([1.0 - gap, math.sqrt(1 - (1 - gap) ** 2)])
        cur = make_bank(2, kappa, {0: np.vstack([v, mu2])})
        same = normalize([0.7, 0.7])
        old = make_bank(2, kappa, {0: np.vstack([same, same])})
        recs = make_records(v[None, :], np.array([0]))
        q = np.array([0.9, 0.1])
        expected = float(np.sum(q * np.log(q / 0.5)))
        assert distill_loss(cur, identity_backbone(2), identity_backbone(2), old, recs) == pytest.approx(
            expected, abs=1e-9
        )

    def test_distill_restricts_to_inherited_block(self):
        kappa = 16.0
        v = np.array([1.0, 0.0])
        old_means = np.vstack([v, normalize([0.6, 0.8])])
        old = make_bank(2, kappa, {0: old_means})
        # current model inherited both components and gained an expansion one
        cur = make_bank(2, kappa, {0: np.vstack([old_means, normalize([0.0, 1.0])])})
        recs = make_records(v[None, :], np.array([0]))
        # identical inherited block and identical features: KL must vanish
        assert distill_loss(cur, identity_backbone(2), identity_backbone(2), old, recs) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_distill_missing_class_raises(self):
        bank, params = self.setup_bank()
        old = make_bank(2, 16.0, {9: np.eye(2)[:1]})
        recs = make_records(np.array([[1.0, 0.0]]), np.array([0]))
        with pytest.raises(ModelRegression):
            distill_loss(bank, params, params, old, recs)

    def test_reg_all_singletons_zero(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)[:1], 1: np.eye(2)[1:]})
        assert reg_loss(bank) == 0.0

    def test_reg_orthogonal_pair_zero(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)})
        assert reg_loss(bank) == pytest.approx(0.0, abs=1e-15)

    def test_reg_identical_pair(self):
        mu = normalize([1.0, 2.0])
        bank = make_bank(2, 16.0, {0: np.vstack([mu, mu])})
        assert reg_loss(bank) == pytest.approx(-0.5, abs=1e-12)

    def test_reg_matches_direct_recomputation(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            mixtures = {}
            for c in range(3):
                k = int(rng.integers(1, 5))
                mixtures[c] = normalize_rows(rng.standard_normal((k, 4)))
            bank = make_bank(4, 16.0, mixtures)
            direct = 0.0
            for c in bank.class_ids:
                m = bank.mixtures[c].means
                k = m.shape[0]
                for i in range(k):
                    for j in range(i + 1, k):
                        direct -= float(m[i] @ m[j]) / (k * (k - 1))
            direct /= len(bank.mixtures)
            assert reg_loss(bank) == pytest.approx(direct, abs=1e-12)
            assert reg_loss(bank) == pytest.approx(oracles.reg_loss(bank), abs=1e-12)

    def test_reg_zero_penalty_reads_positive_zero(self):
        # the training step's segment sum gives -0.0 here; the epoch log prints +0.0
        bank = make_bank(2, 16.0, {0: np.eye(2)[:1], 3: np.eye(2)[1:], 5: np.eye(2)[:1]})
        _, _, terms = loss_and_grad(identity_backbone(2), bank, np.eye(2), np.array([0, 3]),
                                    np.zeros(2, np.int64), lam=0.0, beta=0.0, eta=1.0)
        assert terms["reg"] == 0.0
        assert math.copysign(1.0, reg_loss(bank)) == 1.0

    def test_reg_of_an_empty_bank_raises(self):
        with pytest.raises(ValueError):
            reg_loss(ModelBank(2, 16.0))

    def test_overall_composition(self):
        # the training loss is clf + beta * distillation + eta * regularization
        bank, params = self.setup_bank()
        recs = make_records(normalize_rows(np.array([[0.9, 0.2], [-0.7, -0.6]])), np.array([0, 1]))
        z = e_step(bank, forward_batch(params, recs.x), recs.y)
        lam, beta, eta = 0.1, 1.0, 0.1
        expected = (
            oracles.clf_loss(bank, params, recs, z, lam)
            + beta * oracles.distill_loss(bank, params, params, bank, recs)
            + eta * oracles.reg_loss(bank)
        )
        old_lp = _old_log_posteriors(bank, forward_batch(params, recs.x))
        got, _, _ = loss_and_grad(params, bank, recs.x, recs.y, z, lam=lam, beta=beta, eta=eta,
                                  old_log_post=(bank, old_lp))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_overall_without_terms_equals_clf(self):
        bank, params = self.setup_bank()
        recs = make_records(normalize_rows(np.array([[0.9, 0.2]])), np.array([0]))
        z = e_step(bank, forward_batch(params, recs.x), recs.y)
        got, _, _ = loss_and_grad(params, bank, recs.x, recs.y, z, lam=0.05, beta=0.0, eta=0.0)
        assert got == pytest.approx(oracles.clf_loss(bank, params, recs, z, 0.05))

    def test_scalar_path_matches_gradient_path(self):
        # the per-example scalar losses and the vectorized value inside
        # loss_and_grad are independent implementations of the same objective
        rng = np.random.default_rng(47)
        params = init_params(5, 4, 6, rng)
        mixtures, old_mixtures = {}, {}
        for c in range(3):
            k = int(rng.integers(2, 5))
            means = normalize_rows(rng.standard_normal((k, 4)))
            mixtures[c] = means
            old_mixtures[c] = means[: max(1, k - 1)].copy()
        bank = make_bank(4, 16.0, mixtures)
        old = make_bank(4, 16.0, old_mixtures)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, size=12)
        recs = make_records(x, y)
        z = e_step(bank, forward_batch(params, recs.x), recs.y)
        lam, beta, eta = 0.08, 1.0, 0.1
        scalar = (
            oracles.clf_loss(bank, params, recs, z, lam)
            + beta * oracles.distill_loss(bank, params, params, old, recs)
            + eta * oracles.reg_loss(bank)
        )
        old_lp = _old_log_posteriors(old, forward_batch(params, recs.x))
        vectorized, _, terms = loss_and_grad(params, bank, x, y, z, lam=lam, beta=beta, eta=eta,
                                             old_log_post=(old, old_lp))
        assert vectorized == pytest.approx(scalar, abs=1e-9)
        assert terms["inter"] + lam * terms["intra"] == pytest.approx(
            oracles.clf_loss(bank, params, recs, z, lam), abs=1e-9
        )
        assert terms["distill"] == pytest.approx(oracles.distill_loss(bank, params, params, old, recs), abs=1e-9)
        assert terms["reg"] == pytest.approx(oracles.reg_loss(bank), abs=1e-12)


def teacher(rng, n_classes=12, d=8, kappa=16.0) -> ModelBank:
    """A teacher bank of uneven class blocks (1 to 6 components)."""
    return make_bank(d, kappa, {
        c: normalize_rows(rng.standard_normal((int(rng.integers(1, 7)), d))) for c in range(n_classes)
    })


class TestTeacher:
    B = PREDICT_BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocked_teacher_equals_the_whole_array_oracle(self, n):
        rng = np.random.default_rng(n)
        old = teacher(rng)
        feats = normalize_rows(rng.standard_normal((n, old.dim)))
        got = _old_log_posteriors(old, feats)
        want = oracles.old_log_posteriors(old, feats)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_teacher_memory_is_its_output_and_a_few_blocks(self):
        rng = np.random.default_rng(3)
        old = teacher(rng, n_classes=16)
        feats = normalize_rows(rng.standard_normal((6 * self.B, old.dim)))
        output = feats.shape[0] * old.means.shape[0] * 8
        block = self.B * old.means.shape[0] * 8
        tracemalloc.start()
        try:
            _old_log_posteriors(old, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < output + 4 * block


def state_arrays(params: BackboneParams, bank: ModelBank) -> list:
    """Copies of every array of a model: its layers, and its bank's means and index arrays."""
    layers = [a for layer in params.layers for a in layer]
    packed = [a for a in vars(bank).values() if isinstance(a, np.ndarray)]
    return [np.copy(a) for a in layers + packed]


def assert_state_equals(params: BackboneParams, bank: ModelBank, arrays: list):
    now = state_arrays(params, bank)
    assert len(now) == len(arrays)
    for a, b in zip(now, arrays):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def synthetic_session(seed=50, n_classes=3, domains=2, kt=60.0, per_pair=40, d=8):
    cfg = SynthConfig(n_classes, domains, d, kt, per_pair, 0, min_angle_deg=75.0, seed=seed)
    train, _, centers = generate_synthetic(cfg)
    return train, centers


class TestTrainSession:
    def base_state(self, d=8, seed=1):
        """A first session's model: fresh layers and an empty bank."""
        return init_params(d, d, 0, np.random.default_rng(seed)), ModelBank(d, 16.0)

    def cfg(self, epochs=12, seed=3):
        """The keyword settings of a session that trains the means only."""
        loss = LossConfig(epochs=epochs, batch_size=32, lr=0.05, backbone_lr=0.0)
        return dict(m=30, loss=loss, reduction=ReductionConfig(), seed=seed)

    def test_purity_on_separated_stream(self):
        session, _ = synthetic_session()
        _, _, z = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg())
        recs = session
        from vmfcl.bench import purity

        assert purity(recs.y, z, recs.domain) >= 0.95

    def test_zero_epochs_leaves_params_untouched(self):
        session, _ = synthetic_session()
        params0, bank0 = self.base_state()
        params, bank, table = train_session(params0, bank0, session, np.unique(session.y), **self.cfg(epochs=0))
        for (w0, b0), (w1, b1) in zip(params0.layers, params.layers):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)
        # expansion + reduction still ran
        assert all(m.num_components >= 1 for m in bank.mixtures.values())
        assert len(table) == len(session)

    def test_final_assignments_are_reduced_model_fixed_point(self):
        session, _ = synthetic_session()
        params, bank, z = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg())
        recs = session
        for k, y in zip(z, recs.y):
            assert 0 <= k < bank.mixtures[int(y)].num_components
        np.testing.assert_array_equal(e_step(bank, forward_batch(params, recs.x), recs.y), z)

    def test_deterministic_under_seed(self):
        session, _ = synthetic_session()
        p1, bank1, t1 = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg())
        p2, bank2, t2 = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg())
        np.testing.assert_array_equal(t1, t2)
        for c in bank1.class_ids:
            np.testing.assert_array_equal(bank1.mixtures[c].means, bank2.mixtures[c].means)
        for (w1, b1), (w2, b2) in zip(p1.layers, p2.layers):
            np.testing.assert_array_equal(w1, w2)

    def second_session(self, backbone_lr, expanding=True):
        """A trained ``(params, bank)``, a second session's training set (its records,
        then the memory's), the memory, the classes it expands and the settings that
        train the layers at ``backbone_lr`` and distils; unless it expands the
        existing classes, the first step reads the input bank's means themselves."""
        session, _ = synthetic_session()
        params, bank, z = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg(epochs=2))
        memory = select_memory(bank, session, z, 20, np.random.default_rng(0))
        loss = LossConfig(epochs=3, batch_size=32, lr=0.05, backbone_lr=backbone_lr)
        data = concat_records(session, memory.records)
        expand = np.unique(session.y) if expanding else []
        return (params, bank), data, memory, expand, dict(m=5, loss=loss, reduction=ReductionConfig(), seed=4)

    def test_abort_leaves_state_bitwise_intact(self):
        bad, _ = synthetic_session()
        bad.x[3, 0] = np.inf
        model0 = self.base_state()
        before = state_arrays(*model0)
        with pytest.raises(VmfclError):
            train_session(*model0, bad, np.unique(bad.y), **self.cfg())
        assert_state_equals(*model0, before)
        assert model0[1].mixtures == {}
        # a second session, from a non-empty bank with a teacher and memory: a bad
        # record fails on the first forward, a huge rate on the first means step
        model, data, memory, expand, cfg = self.second_session(backbone_lr=0.02)
        before = state_arrays(*model)
        with pytest.raises(VmfclError):
            train_session(*model, concat_records(bad, memory.records), expand, **cfg)
        huge = LossConfig(epochs=3, batch_size=32, lr=1e300)
        with pytest.raises(VmfclError):
            train_session(*model, data, expand, **{**cfg, "loss": huge})
        assert_state_equals(*model, before)

    @pytest.mark.parametrize("expanding", [True, False], ids=["expanding", "not-expanding"])
    @pytest.mark.parametrize("backbone_lr", [0.02, 0.0], ids=["trained-backbone", "frozen-backbone"])
    def test_success_leaves_state_bitwise_intact(self, backbone_lr, expanding):
        # the input bank is the session's teacher, read in place: no step may write to it
        model, data, _, expand, cfg = self.second_session(backbone_lr, expanding)
        before = state_arrays(*model)
        _, after, _ = train_session(*model, data, expand, **cfg)
        assert_state_equals(*model, before)
        assert not np.array_equal(after.means, model[1].means)

    def test_empty_session_rejected(self):
        empty = empty_records(8)
        with pytest.raises(ValueError):
            train_session(*self.base_state(), empty, np.unique(empty.y), **self.cfg())

    def test_epoch_log_lines(self):
        session, _ = synthetic_session()
        log = io.StringIO()
        train_session(*self.base_state(), session, np.unique(session.y), **self.cfg(epochs=3), emit=log_to(log))
        lines = [l for l in log.getvalue().splitlines() if l.startswith("epoch=")]
        assert len(lines) == 3
        assert "lambda=" in lines[0] and "clf=" in lines[0] and "total=" in lines[0]
        reduce_lines = [l for l in log.getvalue().splitlines() if l.startswith("reduce ")]
        assert reduce_lines and "k_before=" in reduce_lines[0]

    def test_reduce_events_count_each_class_before_and_after(self, monkeypatch):
        # k_before and k_after are read off the merge map: the class's block in
        # the expanded bank and in the returned one, which the map is onto
        import vmfcl.structure

        session, _ = synthetic_session()
        expanded = []
        expand = vmfcl.structure.expand

        def recording(*args):
            expanded.append(expand(*args))
            return expanded[-1]

        monkeypatch.setattr(vmfcl.structure, "expand", recording)
        events = []
        _, bank, _ = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg(epochs=2),
                                   emit=lambda kind, **values: events.append((kind, values)))
        reduces = [values for kind, values in events if kind == "reduce"]
        before = dict(zip(expanded[0].class_ids, expanded[0].sizes.tolist()))
        after = dict(zip(bank.class_ids, bank.sizes.tolist()))
        assert [e["class_id"] for e in reduces] == bank.class_ids
        for e in reduces:
            assert e["k_before"] == before[e["class_id"]] == len(e["merge_map"])
            assert e["k_after"] == after[e["class_id"]]
            assert sorted(set(e["merge_map"]) - {-1}) == list(range(e["k_after"]))
        assert any(e["k_after"] < e["k_before"] for e in reduces)

    def forward_rows(self, monkeypatch, losses):
        """Row counts of the forwards in one session per loss config, from a teacher and from scratch."""
        import vmfcl.backbone

        session, _ = synthetic_session()
        trained = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg(epochs=2))[:2]
        original = vmfcl.backbone.forward_batch
        rows = []

        def counting(params, x):
            rows.append(len(x))
            return original(params, x)

        monkeypatch.setattr(vmfcl.backbone, "forward_batch", counting)
        out = []
        for loss in losses:
            for model in (trained, self.base_state()):
                rows.clear()
                train_session(*model, session, np.unique(session.y), m=30, loss=loss,
                              reduction=ReductionConfig(), seed=3, emit=log_to(io.StringIO()))
                out.append(rows.copy())
        return len(session), out

    def test_one_full_data_forward_per_epoch(self, monkeypatch):
        # a trained backbone: one forward per epoch E-step plus one shared by
        # the reduction and final E-steps; the teacher reuses the epoch-0
        # features and the epoch log reuses the batches
        epochs = 3
        trained = LossConfig(epochs=epochs, batch_size=32, lr=0.05, backbone_lr=0.02)
        n, rows = self.forward_rows(monkeypatch, [trained])
        assert rows == [[n] * (epochs + 1)] * 2

    def test_one_full_data_forward_per_frozen_session(self, monkeypatch):
        # a backbone rate of exactly 0 cannot change the features, so one
        # forward serves the teacher and every E-step
        frozen = [LossConfig(epochs=3, batch_size=32, lr=0.05, backbone_lr=0.0),
                  LossConfig(epochs=3, batch_size=32, lr=0.0)]
        n, rows = self.forward_rows(monkeypatch, frozen)
        assert rows == [[n]] * 4

    def test_epoch_log_matches_the_loss_oracles(self):
        # with lr = 0 the model stays put, so the batch means an epoch event
        # reports equal the full-data oracles on the returned state
        session, _ = synthetic_session()
        teacher = train_session(*self.base_state(), session, np.unique(session.y), **self.cfg(epochs=2))[:2]
        loss = LossConfig(epochs=2, batch_size=32, lr=0.0, lambda_warmup_epochs=0)
        events = []
        params, bank, z = train_session(*teacher, session, np.unique(session.y), m=3, loss=loss, reduction=None,
                                        seed=5, emit=lambda kind, **values: events.append((kind, values)))
        assert [kind for kind, _ in events] == ["epoch"] * loss.epochs
        recs = session
        clf = oracles.clf_loss(bank, params, recs, z, loss.lambda_max)
        dis = oracles.distill_loss(bank, params, *teacher, recs)
        reg = oracles.reg_loss(bank)
        assert clf > 0 and reg != 0
        for epoch, (_, got) in enumerate(events):
            assert list(got) == ["epoch", "lam", "lr", "clf", "dis", "reg", "total"]
            assert got["epoch"] == epoch and got["lam"] == loss.lambda_max and got["lr"] == 0.0
            assert got["clf"] == pytest.approx(clf, rel=1e-9)
            assert got["dis"] == pytest.approx(dis, rel=1e-9)
            assert got["reg"] == pytest.approx(reg, rel=1e-9)
            assert got["total"] == pytest.approx(clf + loss.beta * dis + loss.eta * reg, rel=1e-9)

    def test_intra_loss_non_increasing_frozen_backbone(self):
        # single class and eta = 0: full-batch GD descends the intra CE itself
        rng = np.random.default_rng(60)
        from vmfcl.streams import sample_vmf
        from vmfcl.backbone import loss_and_grad, sgd_step

        centers = np.eye(6)[:2]
        x = np.vstack([sample_vmf(rng, centers[0], 40.0, 40), sample_vmf(rng, centers[1], 40.0, 40)])
        y = np.zeros(80, dtype=int)
        bank = make_bank(6, 16.0, {0: normalize_rows(rng.standard_normal((4, 6)))})
        params = identity_backbone(6)
        recs = make_records(x, y)
        z = e_step(bank, forward_batch(params, recs.x), recs.y)
        values = []
        for _ in range(50):
            values.append(clf_loss(bank, params, recs, z, lam=1.0))
            _, grad, _ = loss_and_grad(params, bank, x, y, z, lam=1.0, beta=0.0, eta=0.0)
            params, bank = sgd_step(params, bank, grad, lr=1e-3, weight_decay=0.0, backbone_lr=0.0)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), values

    def test_memory_included_in_training_data(self):
        session, _ = synthetic_session()
        recs = session
        mem_records = recs.subset(np.arange(5))
        mem_records.ids = mem_records.ids + 100000  # distinct ids
        data = concat_records(session, mem_records)
        _, _, table = train_session(*self.base_state(), data, np.unique(session.y), **self.cfg(epochs=1))
        assert len(table) == len(recs) + 5

    def test_memory_records_sharing_ids_keep_their_own_assignments(self):
        # a replayed record keeps the id it arrived with, so incoming and
        # memory records may share ids; assignments go by position
        session, _ = synthetic_session()
        recs = session
        data = concat_records(recs, recs.subset(np.arange(5)))
        params, bank, z = train_session(*self.base_state(), data, np.unique(recs.y), **self.cfg(epochs=1))
        assert z.shape == (len(recs) + 5,)
        np.testing.assert_array_equal(z, e_step(bank, forward_batch(params, data.x), data.y))

    def test_assignment_count_must_match_records(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)})
        recs = make_records(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]))
        with pytest.raises(ValueError):
            clf_loss(bank, identity_backbone(2), recs, [0], lam=0.1)

    def test_baseline_flags_keep_single_component(self):
        session, _ = synthetic_session()
        loss = LossConfig(epochs=4, batch_size=32, lr=0.05, lambda_max=0.0, beta=0.0, eta=0.0,
                          backbone_lr=0.0)
        _, bank, _ = train_session(*self.base_state(), session, np.unique(session.y), m=1, loss=loss,
                                   reduction=None, seed=3)
        assert all(m.num_components == 1 for m in bank.mixtures.values())
