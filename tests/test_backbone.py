"""Tests for the MLP feature extractor and its hand-rolled gradients."""

import numpy as np
import pytest
from helpers import forward_one, make_bank

from vmfcl.backbone import (
    BackboneParams,
    forward_batch,
    init_params,
    loss_and_grad,
    sgd_step,
)
from vmfcl.errors import DegenerateFeature, ModelRegression, NumericalError, UnknownClass
from vmfcl.vmf import normalize_rows


def make_setup(rng, n_classes=3, d=4, din=5, hidden=6, kappa=16.0, n=7):
    params = init_params(din, d, hidden, rng)
    mixtures = {}
    for c in range(n_classes):
        k = int(rng.integers(1, 4))
        mixtures[c] = normalize_rows(rng.standard_normal((k, d)))
    bank = make_bank(d, kappa, mixtures)
    x = rng.standard_normal((n, din))
    y = rng.integers(0, n_classes, size=n)
    zhat = np.array([int(rng.integers(bank.mixtures[int(c)].num_components)) for c in y])
    return params, bank, x, y, zhat


def old_posteriors(params, bank, x, inherited):
    """Teacher bank of the first ``inherited[c]`` components and its log posteriors."""
    feats = forward_batch(params, x)
    mixtures = {}
    out = []
    for c, k in sorted(inherited.items()):
        mixtures[c] = bank.mixtures[c].means[:k].copy()
        t = bank.kappa * (feats @ bank.mixtures[c].means[:k].T)
        m = np.max(t, axis=1, keepdims=True)
        out.append(t - (m + np.log(np.sum(np.exp(t - m), axis=1, keepdims=True))))
    return make_bank(bank.dim, bank.kappa, mixtures), np.hstack(out)


def fd_check(params, bank, x, y, zhat, lam, beta, eta, old_lp, h=1e-5, tol=1e-4):
    """Central finite differences against every analytic gradient coordinate."""

    def value():
        loss, _, _ = loss_and_grad(params, bank, x, y, zhat, lam=lam, beta=beta, eta=eta,
                                old_log_post=old_lp)
        return loss

    _, grad, _ = loss_and_grad(params, bank, x, y, zhat, lam=lam, beta=beta, eta=eta,
                            old_log_post=old_lp)
    worst = 0.0
    arrays = []
    for li, (w, b) in enumerate(params.layers):
        arrays.append((w, grad.layers[li][0]))
        arrays.append((b, grad.layers[li][1]))
    arrays.append((bank.means, grad.means))
    for arr, g in arrays:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = value()
            arr[idx] = orig - h
            down = value()
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - g[idx]) / max(1e-4, abs(fd), abs(g[idx]))
            worst = max(worst, rel)
    assert worst <= tol, f"worst relative gradient error {worst}"
    return worst


class TestForward:
    def test_identity_layer_reduces_to_normalize(self):
        params = BackboneParams([(np.eye(2), np.zeros(2))])
        np.testing.assert_allclose(forward_one(params, [3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_zero_weights_degenerate(self):
        params = BackboneParams([(np.zeros((2, 2)), np.zeros(2))])
        with pytest.raises(DegenerateFeature):
            forward_one(params, [1.0, 2.0])

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(5)
        params = init_params(6, 4, 8, rng)
        x = rng.standard_normal(6)
        (w1, b1), (w2, b2) = params.layers
        v = w2 @ np.tanh(w1 @ x + b1) + b2
        np.testing.assert_allclose(forward_one(params, x), v / np.linalg.norm(v), atol=1e-12)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(6)
        params = init_params(5, 3, 7, rng)
        feats = forward_batch(params, rng.standard_normal((100, 5)))
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-9)


class TestLossAndGrad:
    def test_single_term_is_inter_loss(self):
        # with lam = beta = eta = 0 only the inter-class CE remains
        rng = np.random.default_rng(7)
        params, bank, x, y, zhat = make_setup(rng, n=1)
        loss, _, _ = loss_and_grad(params, bank, x, y, zhat, lam=0.0, beta=0.0, eta=0.0)
        v = forward_one(params, x[0])
        # class posterior: each class's mean of exp(kappa mu . v) over its components, normalized
        scores = np.array([np.mean(np.exp(bank.kappa * (m.means @ v))) for m in bank.mixtures.values()])
        post = scores / np.sum(scores)
        assert loss == pytest.approx(-np.log(post[list(bank.class_ids).index(int(y[0]))]), rel=1e-9)

    def test_duplicated_example_same_mean_gradient(self):
        rng = np.random.default_rng(8)
        params, bank, x, y, zhat = make_setup(rng, n=1)
        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        z2 = np.concatenate([zhat, zhat])
        _, g1, _ = loss_and_grad(params, bank, x, y, zhat, lam=0.05, beta=0.0, eta=0.1)
        _, g2, _ = loss_and_grad(params, bank, x2, y2, z2, lam=0.05, beta=0.0, eta=0.1)
        # equality up to BLAS shape-dependent rounding in the forward pass
        for (w1, b1), (w2, b2) in zip(g1.layers, g2.layers):
            np.testing.assert_allclose(w1, w2, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(b1, b2, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(g1.means, g2.means, rtol=1e-12, atol=1e-13)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(9)
        params, bank, x, y, zhat = make_setup(rng)
        with pytest.raises(ValueError):
            loss_and_grad(params, bank, x[:0], y[:0], zhat[:0], lam=0.0, beta=0.0, eta=0.0)

    def test_nonfinite_input_raises_numerical_error(self):
        rng = np.random.default_rng(10)
        params, bank, x, y, zhat = make_setup(rng)
        x[0, 0] = np.inf
        with pytest.raises(NumericalError):
            loss_and_grad(params, bank, x, y, zhat, lam=0.0, beta=0.0, eta=0.0)

    def test_overflowing_feature_norm_raises_numerical_error(self):
        # finite features whose squared norm overflows would divide to a zero feature
        rng = np.random.default_rng(10)
        _, bank, x, y, zhat = make_setup(rng, din=4, d=4)
        for scale in (1e300, 1e160):
            params = BackboneParams([(scale * np.eye(4), np.zeros(4))])
            with np.errstate(over="ignore"), pytest.raises(NumericalError, match="infinite norm"):
                loss_and_grad(params, bank, np.abs(x) + 1.0, y, zhat, lam=0.0, beta=0.0, eta=0.0,
                              with_layers=False)

    def test_inputs_outside_the_bank_rejected(self):
        # packed columns would otherwise read a neighbouring class
        rng = np.random.default_rng(16)
        params, bank, x, y, zhat = make_setup(rng)
        with pytest.raises(UnknownClass):
            loss_and_grad(params, bank, x, y + 10, zhat, lam=0.0, beta=0.0, eta=0.0)
        for bad in (-1, bank.mixtures[int(y[0])].num_components):
            z = zhat.copy()
            z[0] = bad
            with pytest.raises(ValueError):
                loss_and_grad(params, bank, x, y, z, lam=0.1, beta=0.0, eta=0.0)
        # one label per example: neither broadcast from one nor a column
        for labels in (y[:1], y[:, None]):
            with pytest.raises(ValueError, match="one label per record"):
                loss_and_grad(params, bank, x, labels, zhat, lam=0.0, beta=0.0, eta=0.0)
        # one assignment per example: neither broadcast from one nor a column
        for z in (zhat[:1], zhat[:, None]):
            with pytest.raises(ValueError, match="one assignment per record"):
                loss_and_grad(params, bank, x, y, z, lam=0.1, beta=0.0, eta=0.0)
        old = make_bank(bank.dim, bank.kappa, {9: np.eye(bank.dim)[:1]})
        with pytest.raises(ModelRegression):
            loss_and_grad(params, bank, x, y, zhat, lam=0.0, beta=1.0, eta=0.0,
                          old_log_post=(old, np.zeros((len(y), 1))))

    def test_finite_differences_inter_only(self):
        rng = np.random.default_rng(11)
        params, bank, x, y, zhat = make_setup(rng)
        fd_check(params, bank, x, y, zhat, 0.0, 0.0, 0.0, None)

    def test_finite_differences_intra_only(self):
        rng = np.random.default_rng(12)
        params, bank, x, y, zhat = make_setup(rng)
        fd_check(params, bank, x, y, zhat, 1.0, 0.0, 0.0, None)

    def test_finite_differences_reg_only(self):
        rng = np.random.default_rng(13)
        params, bank, x, y, zhat = make_setup(rng)
        fd_check(params, bank, x, y, zhat, 0.0, 0.0, 1.0, None)

    def test_finite_differences_distill_only(self):
        rng = np.random.default_rng(14)
        params, bank, x, y, zhat = make_setup(rng)
        old_lp = old_posteriors(params, bank, x, {0: 1, 1: 2})
        fd_check(params, bank, x, y, zhat, 0.0, 1.0, 0.0, old_lp)

    def test_finite_differences_combined(self):
        rng = np.random.default_rng(15)
        params, bank, x, y, zhat = make_setup(rng)
        old_lp = old_posteriors(params, bank, x, {0: 1, 2: 1})
        fd_check(params, bank, x, y, zhat, 0.07, 1.0, 0.1, old_lp)


class TestSgdStep:
    def _singleton(self, w):
        params = BackboneParams([(np.array([[w, 0.0]]), np.zeros(1))])
        bank = make_bank(2, 16.0, {0: np.array([[1.0, 0.0]])})
        return params, bank

    def test_plain_step(self):
        params, bank = self._singleton(1.0)
        from vmfcl.backbone import Gradient

        grad = Gradient([(np.array([[2.0, 0.0]]), np.zeros(1))], np.zeros((1, 2)))
        new_params, _ = sgd_step(params, bank, grad, lr=0.1, weight_decay=0.0, backbone_lr=0.1)
        assert new_params.layers[0][0][0, 0] == pytest.approx(0.8)

    def test_weight_decay(self):
        params, bank = self._singleton(1.0)
        from vmfcl.backbone import Gradient

        grad = Gradient([(np.zeros((1, 2)), np.zeros(1))], np.zeros((1, 2)))
        new_params, _ = sgd_step(params, bank, grad, lr=0.1, weight_decay=0.0005, backbone_lr=0.1)
        assert new_params.layers[0][0][0, 0] == pytest.approx(0.99995)

    def test_means_projected_back_to_sphere(self):
        params, bank = self._singleton(1.0)
        from vmfcl.backbone import Gradient

        grad = Gradient([(np.zeros((1, 2)), np.zeros(1))], np.array([[0.4, -1.2]]))
        _, new_bank = sgd_step(params, bank, grad, lr=1.0, weight_decay=0.0, backbone_lr=1.0)
        np.testing.assert_allclose(np.linalg.norm(new_bank.mixtures[0].means, axis=1), 1.0, atol=1e-12)

    def test_projection_no_op_on_unit_result(self):
        params, bank = self._singleton(1.0)
        from vmfcl.backbone import Gradient

        # step lands exactly on (0.8, 0.6): already unit, projection keeps it
        grad = Gradient([(np.zeros((1, 2)), np.zeros(1))], np.array([[0.2, -0.6]]))
        _, new_bank = sgd_step(params, bank, grad, lr=1.0, weight_decay=0.0, backbone_lr=1.0)
        np.testing.assert_allclose(new_bank.mixtures[0].means, [[0.8, 0.6]], atol=1e-15)

    def test_backbone_lr_zero_freezes_layers(self):
        rng = np.random.default_rng(20)
        params, bank, x, y, zhat = make_setup(rng)
        _, grad, _ = loss_and_grad(params, bank, x, y, zhat, lam=0.1, beta=0.0, eta=0.1)
        new_params, new_bank = sgd_step(params, bank, grad, lr=0.1, weight_decay=0.0, backbone_lr=0.0)
        for (w, b), (nw, nb) in zip(params.layers, new_params.layers):
            np.testing.assert_array_equal(w, nw)
            np.testing.assert_array_equal(b, nb)
        assert any(
            not np.array_equal(bank.mixtures[c].means, new_bank.mixtures[c].means)
            for c in bank.class_ids
        )

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(21)
        params, bank, x, y, zhat = make_setup(rng)

        def run_twice():
            p, bk = params, bank
            for _ in range(5):
                _, grad, _ = loss_and_grad(p, bk, x, y, zhat, lam=0.05, beta=0.0, eta=0.1)
                p, bk = sgd_step(p, bk, grad, lr=0.05, weight_decay=0.0005, backbone_lr=0.05)
            return p, bk

        p1, b1 = run_twice()
        p2, b2 = run_twice()
        for (w1, bb1), (w2, bb2) in zip(p1.layers, p2.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(bb1, bb2)
        for c in b1.class_ids:
            np.testing.assert_array_equal(b1.mixtures[c].means, b2.mixtures[c].means)
