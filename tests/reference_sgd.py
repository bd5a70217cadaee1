"""Reference SGD step: ``loss_and_grad`` and ``sgd_step`` as written before their layout caching.

This is the straightforward form of one training step: every layout array
and the teacher column map are rebuilt on each call, every intermediate is
a fresh array, and the layer gradient is always computed. The package's
``vmfcl.backbone`` must return the same bytes; ``test_sgd_reference.py``
checks that. Nothing here imports the package's loss code, only its data
types and errors.
"""

from __future__ import annotations

import numpy as np

from vmfcl.backbone import BackboneParams, Gradient, _forward_raw
from vmfcl.errors import DegenerateFeature, ModelRegression, NumericalError, UnknownClass
from vmfcl.vmf import ZERO_NORM_EPS


def normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DegenerateFeature("non-finite entries in feature rows")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        bad = int(np.argmin(norms))
        raise DegenerateFeature(f"row {bad} has norm {float(norms[bad, 0]):.3e}")
    return x / norms


def segment_log_softmax(t: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    starts, sizes = offsets[:-1], np.diff(offsets)
    m = np.maximum.reduceat(t, starts, axis=1)
    shifted = t - np.repeat(m, sizes, axis=1)
    log_s = np.log(np.add.reduceat(np.exp(shifted), starts, axis=1))
    return m + log_s, shifted - np.repeat(log_s, sizes, axis=1)


def _log_softmax(t: np.ndarray) -> np.ndarray:
    shifted = t - np.max(t, axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def loss_and_grad(params, bank, x, y, zhat, lam, beta, eta, old_log_post=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    zhat = np.asarray(zhat)
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if not np.all(np.isfinite(x)):
        raise NumericalError("batch contains non-finite inputs")

    v_raw, acts = _forward_raw(params, x)
    if not np.all(np.isfinite(v_raw)):
        raise NumericalError("forward produced non-finite features")
    norms = np.linalg.norm(v_raw, axis=1, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        raise NumericalError("forward produced a zero-norm feature")
    v = v_raw / norms

    ids = np.asarray(bank.class_ids)
    offsets, sizes, means, kappa = bank.offsets, np.diff(bank.offsets), bank.means, bank.kappa
    n_classes = ids.size
    rows = np.arange(n)
    y_cols = np.searchsorted(ids, y)
    if not np.array_equal(ids.take(y_cols, mode="clip"), y):
        raise UnknownClass("batch has a label the bank has never observed")

    t = kappa * (v @ means.T)
    lse, log_comp = segment_log_softmax(t, offsets)
    log_p = _log_softmax(lse - np.log(sizes))
    p = np.exp(log_p)
    comp_post = np.exp(log_comp)

    inter = -float(np.mean(log_p[rows, y_cols]))

    onehot_y = np.zeros((n, n_classes))
    onehot_y[rows, y_cols] = 1.0
    d_t = np.repeat((p - onehot_y) / n, sizes, axis=1) * comp_post

    intra = 0.0
    if lam != 0.0:
        if np.any((zhat < 0) | (zhat >= sizes[y_cols])):
            raise ValueError("assignments must index a component of the example's class")
        z_cols = offsets[y_cols] + zhat
        intra = -float(np.sum(log_comp[rows, z_cols])) / n
        dz = comp_post * (np.repeat(np.arange(n_classes), sizes) == y_cols[:, None])
        dz[rows, z_cols] -= 1.0
        d_t += (lam / n) * dz

    distill = 0.0
    if beta != 0.0 and old_log_post is not None:
        old, log_r = old_log_post
        old_offsets = old.offsets
        old_sizes = np.diff(old_offsets)
        at = np.searchsorted(ids, old.class_ids)
        if not np.array_equal(ids.take(at, mode="clip"), old.class_ids) or np.any(sizes[at] < old_sizes):
            raise ModelRegression("the bank lost a class or component of the previous session")
        cols = np.repeat(offsets[at] - old_offsets[:-1], old_sizes) + np.arange(old_offsets[-1])
        _, log_q = segment_log_softmax(t[:, cols], old_offsets)
        q = np.exp(log_q)
        diff = log_q - log_r
        kl = np.add.reduceat(q * diff, old_offsets[:-1], axis=1)
        n_old = len(old.class_ids)
        distill = float(np.sum(kl)) / (n * n_old)
        d_t[:, cols] += (beta / (n * n_old)) * q * (diff - np.repeat(kl, old_sizes, axis=1))

    reg = 0.0
    mean_grad = kappa * (d_t.T @ v)
    if eta != 0.0:
        k = sizes.astype(np.float64)
        w_pair = np.divide(1.0, k * (k - 1), out=np.zeros(n_classes), where=sizes > 1)
        sm = np.add.reduceat(means, offsets[:-1], axis=0)
        pairs = np.sum(sm * sm, axis=1) - np.add.reduceat(np.sum(means * means, axis=1), offsets[:-1])
        reg = -float(np.sum(w_pair * 0.5 * pairs)) / n_classes
        coef = eta * (-(w_pair / n_classes))
        mean_grad += np.repeat(coef, sizes)[:, None] * (np.repeat(sm, sizes, axis=0) - means)

    loss_parts = {"inter": inter, "intra": lam * intra, "distill": beta * distill, "reg": eta * reg}
    for name, val in loss_parts.items():
        if not np.isfinite(val):
            raise NumericalError(f"{name} loss term is non-finite ({val})")
    loss = float(sum(loss_parts.values()))
    terms = {"inter": inter, "intra": intra, "distill": distill, "reg": reg}

    g_v = kappa * (d_t @ means)
    g_raw = (g_v - np.sum(g_v * v, axis=1, keepdims=True) * v) / norms

    layer_grads = [None] * len(params.layers)
    g = g_raw
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        layer_grads[i] = (g.T @ acts[i], np.sum(g, axis=0))
        if i > 0:
            g = (g @ w) * (1.0 - acts[i] ** 2)

    for i, (gw, gb) in enumerate(layer_grads):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericalError(f"gradient of layer {i} is non-finite")

    return loss, Gradient(layer_grads, mean_grad), terms


def sgd_step(params, bank, grad, lr, weight_decay=0.0, backbone_lr=None):
    lr_b = lr if backbone_lr is None else backbone_lr
    new_layers = [
        (w - lr_b * (gw + weight_decay * w), b - lr_b * (gb + weight_decay * b))
        for (w, b), (gw, gb) in zip(params.layers, grad.layers)
    ]
    return BackboneParams(new_layers), bank.with_means(normalize_rows(bank.means - lr * grad.means))
