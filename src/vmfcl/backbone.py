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

from .errors import NumericalError
from .mixture import ModelBank
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
    means: dict[int, np.ndarray]  # class id -> (K, d)


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
    old_log_post: dict[int, np.ndarray] | None = None,
) -> tuple[float, Gradient, dict[str, float]]:
    """Exact loss, gradient and unweighted loss terms over a batch with fixed hard assignments.

    The terms are the batch means ``inter``, ``intra``, ``distill`` and
    ``reg``; the loss is ``inter + lam * intra + beta * distill + eta * reg``.
    A term whose coefficient is 0 is not evaluated and reads 0.

    ``old_log_post`` carries the previous-session model's per-class component
    log posteriors for this batch, restricted to the components the current
    mixtures inherited (array of shape (n, K_inherited) per snapshot class);
    when absent or beta = 0 the distillation term is skipped.

    Raises NumericalError naming the term that went non-finite.
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

    ids = bank.class_ids
    col = {c: i for i, c in enumerate(ids)}
    kappa = bank.kappa

    scores = {c: kappa * (v @ bank.mixtures[c].means.T) for c in ids}  # (n, K_c) each
    a = np.empty((n, len(ids)))
    for c in ids:
        t = scores[c]
        m = np.max(t, axis=1)
        a[:, col[c]] = m + np.log(np.sum(np.exp(t - m[:, None]), axis=1)) - np.log(t.shape[1])
    log_p = _log_softmax(a)
    p = np.exp(log_p)
    y_cols = np.asarray([col[int(c)] for c in y])

    inter = -float(np.mean(log_p[np.arange(n), y_cols]))

    # dL/dT accumulators, one (n, K_c) array per class
    d_t = {c: np.zeros_like(scores[c]) for c in ids}

    # inter-class CE: softmax within class distributes the class-level signal
    comp_post = {c: np.exp(_log_softmax(scores[c])) for c in ids}
    onehot_y = np.zeros((n, len(ids)))
    onehot_y[np.arange(n), y_cols] = 1.0
    class_signal = (p - onehot_y) / n
    for c in ids:
        d_t[c] += class_signal[:, col[c]][:, None] * comp_post[c]

    # intra-class CE on the assigned component
    intra = 0.0
    if lam != 0.0:
        for c in ids:
            rows = np.flatnonzero(y == c)
            if rows.size == 0:
                continue
            lp = _log_softmax(scores[c][rows])
            z = zhat[rows]
            intra -= float(np.sum(lp[np.arange(rows.size), z]))
            dz = comp_post[c][rows].copy()
            dz[np.arange(rows.size), z] -= 1.0
            d_t[c][rows] += (lam / n) * dz
        intra /= n

    # distillation against the previous-session posterior, restricted to
    # inherited components and renormalized
    distill = 0.0
    if beta != 0.0 and old_log_post:
        n_snap = len(old_log_post)
        for c in sorted(old_log_post):
            log_r = old_log_post[c]
            k_old = log_r.shape[1]
            log_q = _log_softmax(scores[c][:, :k_old])
            q = np.exp(log_q)
            diff = log_q - log_r
            kl = np.sum(q * diff, axis=1)
            distill += float(np.sum(kl))
            d_t[c][:, :k_old] += (beta / (n * n_snap)) * q * (diff - kl[:, None])
        distill /= n * n_snap

    # component spread penalty (negated mean pairwise mean dot product)
    reg = 0.0
    mean_grads = {}
    n_classes = len(ids)
    for c in ids:
        m = bank.mixtures[c].means
        k = m.shape[0]
        g = kappa * (d_t[c].T @ v)
        if eta != 0.0 and k > 1:
            sm = np.sum(m, axis=0)
            w_pair = 1.0 / (k * (k - 1))
            # sum_{i<j} mu_i . mu_j, written so it stays exact off-sphere too
            reg -= w_pair * 0.5 * (float(sm @ sm) - float(np.sum(m * m)))
            g += eta * (-(w_pair / n_classes)) * (sm[None, :] - m)
        mean_grads[c] = g
    reg /= n_classes

    loss_parts = {"inter": inter, "intra": lam * intra, "distill": beta * distill, "reg": eta * reg}
    for name, val in loss_parts.items():
        if not np.isfinite(val):
            raise NumericalError(f"{name} loss term is non-finite ({val})")
    loss = float(sum(loss_parts.values()))
    terms = {"inter": inter, "intra": intra, "distill": distill, "reg": reg}

    # backprop through the embeddings: d/dT -> d/dv -> normalize -> MLP
    g_v = np.zeros_like(v)
    for c in ids:
        g_v += kappa * (d_t[c] @ bank.mixtures[c].means)
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

    return loss, Gradient(layer_grads, mean_grads), terms


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
    new_bank = bank.copy()
    for c, gm in grad.means.items():
        mix = new_bank.mixtures[c]
        mix.means = normalize_rows(mix.means - lr * gm)
    return BackboneParams(new_layers), new_bank
