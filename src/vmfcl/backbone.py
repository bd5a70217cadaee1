"""Small MLP feature extractor with hand-rolled reverse-mode gradients.

The backbone maps raw input vectors to L2-normalized embeddings: a stack of
affine layers with tanh between them (linear output), followed by projection
to the unit sphere. The architecture is fixed and small, so gradients are
accumulated layer by layer without a runtime graph. ``loss_and_grad``
differentiates the full training objective

    inter-class CE + lam * intra-class CE + beta * distillation + eta * spread penalty

with respect to both the layer parameters and every mixture mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelRegression, NumericalError, UnknownClass
from .mixture import ModelBank, segment_log_softmax
from .vmf import ZERO_NORM_EPS, normalize_rows


@dataclass
class BackboneParams:
    """Affine layer stack: list of (weight (out, in), bias (out,)) pairs."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in self.layers
        ]
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not match")
            if i > 0 and w.shape[1] != self.layers[i - 1][0].shape[0]:
                raise ValueError(f"layer {i} input dim does not compose with layer {i - 1}")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def copy(self) -> "BackboneParams":
        return BackboneParams([(w.copy(), b.copy()) for w, b in self.layers])


@dataclass
class Gradient:
    """Shape-congruent gradients for the layer stack plus every mixture mean."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    means: np.ndarray  # (K, d), in the bank's row order


def init_params(
    input_dim: int, output_dim: int, hidden_dim: int = 64, rng: np.random.Generator | None = None
) -> BackboneParams:
    """Orthogonal init of the default two-layer tanh perceptron.

    Semi-orthogonal weights keep the initial map near-isometric, so the
    angular structure of the inputs survives into the embedding space where
    the first hard E-step runs. ``hidden_dim`` = 0 builds a single affine
    layer.
    """
    if rng is None:
        rng = np.random.default_rng()
    sizes = [input_dim, output_dim] if hidden_dim == 0 else [input_dim, hidden_dim, output_dim]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        g = rng.standard_normal((max(fan_out, fan_in), min(fan_out, fan_in)))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
        w = q if fan_out >= fan_in else q.T
        layers.append((w, np.zeros(fan_out)))
    return BackboneParams(layers)


def _forward_raw(params: BackboneParams, x: np.ndarray):
    """Pre-normalization forward pass; returns (output, per-layer activations)."""
    acts = [np.asarray(x, dtype=np.float64)]
    h = acts[0]
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        h = h @ w.T + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def forward_batch(params: BackboneParams, x: np.ndarray) -> np.ndarray:
    """Unit embeddings for an (n, input_dim) matrix."""
    v, _ = _forward_raw(params, x)
    return normalize_rows(v)


def forward(params: BackboneParams, x: np.ndarray) -> np.ndarray:
    """Unit embedding of a single input vector."""
    return forward_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]


def _log_softmax(t: np.ndarray) -> np.ndarray:
    shifted = t - np.max(t, axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def loss_and_grad(
    params: BackboneParams,
    bank: ModelBank,
    x: np.ndarray,
    y: np.ndarray,
    zhat: np.ndarray,
    lam: float,
    beta: float,
    eta: float,
    old_log_post: tuple[ModelBank, np.ndarray] | None = None,
) -> tuple[float, Gradient, dict[str, float]]:
    """Exact loss, gradient and unweighted loss terms over a batch with fixed hard assignments.

    The terms are the batch means ``inter``, ``intra``, ``distill`` and
    ``reg``; the loss is ``inter + lam * intra + beta * distill + eta * reg``.
    A term whose coefficient is 0 is not evaluated and reads 0.

    ``old_log_post`` is the previous-session bank (only its layout is read)
    and its (n, K_old) component log posteriors for this batch, columns in
    that bank's row order. Each of its classes is compared with the leading
    components the current mixture inherited; when absent or beta = 0 the
    distillation term is skipped.

    Every term is a segment reduction over the packed (n, K) scores, so a
    batch costs a fixed number of array operations whatever the class count.

    Raises NumericalError naming the term that went non-finite, UnknownClass
    for a label the bank lacks, ValueError for an assignment outside its
    class and ModelRegression when the bank lost part of the teacher.
    """
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
    offsets, sizes, means, kappa = bank.offsets, bank.sizes, bank.means, bank.kappa
    n_classes = ids.size
    rows = np.arange(n)
    y_cols = np.searchsorted(ids, y)
    if not np.array_equal(ids.take(y_cols, mode="clip"), y):
        raise UnknownClass("batch has a label the bank has never observed")

    t = kappa * (v @ means.T)  # (n, K) scores, class blocks at the offsets
    lse, log_comp = segment_log_softmax(t, offsets)
    log_p = _log_softmax(lse - np.log(sizes))
    p = np.exp(log_p)
    comp_post = np.exp(log_comp)  # softmax within each class

    inter = -float(np.mean(log_p[rows, y_cols]))

    # dL/dT; inter-class CE: softmax within class distributes the class-level signal
    onehot_y = np.zeros((n, n_classes))
    onehot_y[rows, y_cols] = 1.0
    d_t = np.repeat((p - onehot_y) / n, sizes, axis=1) * comp_post

    # intra-class CE on the assigned component
    intra = 0.0
    if lam != 0.0:
        if np.any((zhat < 0) | (zhat >= sizes[y_cols])):
            raise ValueError("assignments must index a component of the example's class")
        z_cols = offsets[y_cols] + zhat
        intra = -float(np.sum(log_comp[rows, z_cols])) / n
        dz = comp_post * (np.repeat(np.arange(n_classes), sizes) == y_cols[:, None])
        dz[rows, z_cols] -= 1.0
        d_t += (lam / n) * dz

    # distillation against the previous-session posterior, restricted to
    # inherited components and renormalized
    distill = 0.0
    if beta != 0.0 and old_log_post is not None:
        old, log_r = old_log_post
        at = np.searchsorted(ids, old.class_ids)
        if not np.array_equal(ids.take(at, mode="clip"), old.class_ids) or np.any(sizes[at] < old.sizes):
            raise ModelRegression("the bank lost a class or component of the previous session")
        # current columns of the inherited components, in the old bank's order
        cols = np.repeat(offsets[at] - old.offsets[:-1], old.sizes) + np.arange(old.offsets[-1])
        _, log_q = segment_log_softmax(t[:, cols], old.offsets)
        q = np.exp(log_q)
        diff = log_q - log_r
        kl = np.add.reduceat(q * diff, old.offsets[:-1], axis=1)  # (n, C_old)
        n_old = len(old.class_ids)
        distill = float(np.sum(kl)) / (n * n_old)
        d_t[:, cols] += (beta / (n * n_old)) * q * (diff - np.repeat(kl, old.sizes, axis=1))

    # component spread penalty (negated mean pairwise mean dot product)
    reg = 0.0
    mean_grad = kappa * (d_t.T @ v)
    if eta != 0.0:
        k = sizes.astype(np.float64)
        w_pair = np.divide(1.0, k * (k - 1), out=np.zeros(n_classes), where=sizes > 1)
        sm = np.add.reduceat(means, offsets[:-1], axis=0)  # (C, d) per-class sums
        # sum_{i<j} mu_i . mu_j, written so it stays exact off-sphere too
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

    # backprop through the embeddings: d/dT -> d/dv -> normalize -> MLP
    g_v = kappa * (d_t @ means)
    g_raw = (g_v - np.sum(g_v * v, axis=1, keepdims=True) * v) / norms

    layer_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
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


def sgd_step(
    params: BackboneParams,
    bank: ModelBank,
    grad: Gradient,
    lr: float,
    weight_decay: float = 0.0,
    backbone_lr: float | None = None,
) -> tuple[BackboneParams, ModelBank]:
    """One SGD update; returns fresh parameter and bank objects.

    Layers take w <- w - lr_b * (g + weight_decay * w); mixture means take a
    plain step and are re-projected to the unit sphere. Weight decay never
    touches the means. ``backbone_lr`` overrides ``lr`` for the layers only
    (0 freezes the backbone).
    """
    lr_b = lr if backbone_lr is None else backbone_lr
    new_layers = [
        (w - lr_b * (gw + weight_decay * w), b - lr_b * (gb + weight_decay * b))
        for (w, b), (gw, gb) in zip(params.layers, grad.layers)
    ]
    return BackboneParams(new_layers), bank.with_means(normalize_rows(bank.means - lr * grad.means))
