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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelRegression, NumericalError
from .mixture import ModelBank, segment_log_softmax
from .vmf import ZERO_NORM_EPS, normalize_rows, row_norms


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

    layers: list[tuple[np.ndarray, np.ndarray]] | None  # None: not computed (frozen backbone)
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
    """Row-wise log-softmax of ``t``, computed in place."""
    t -= np.maximum.reduce(t, axis=1, keepdims=True)
    t -= np.log(np.add.reduce(np.exp(t), axis=1, keepdims=True))
    return t


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
    with_layers: bool = True,
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
    The layout arrays and the teacher column map come from ``bank.layout``,
    built once per packing, and the (n, K) and (K, d) temporaries are
    reused in place; the arithmetic is the same expressions in the same
    order as a fresh-array version, so the results are too, bit for bit.
    When every teacher class kept its component count (a session that only
    adds classes), each is a whole class block of ``bank``, so its
    restricted posteriors are gathered from the step's own within-class
    ones: the same reductions over the same values, not run a second time.
    Reductions call the ufunc methods (``np.add.reduce``, ...) that
    ``np.sum``, ``np.max``, ``np.mean`` and ``np.all`` wrap, which skips
    their per-call argument handling.

    With ``with_layers`` false only ``Gradient.means`` is computed and
    ``Gradient.layers`` is None: the backward pass through the layers is
    skipped, for a caller whose backbone learning rate is 0.

    Raises NumericalError naming the term or gradient that went non-finite,
    UnknownClass for a label the bank lacks, ValueError for an assignment
    outside its class and ModelRegression when the bank lost part of the
    teacher.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    zhat = np.asarray(zhat)
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if not np.isfinite(x).all():
        raise NumericalError("batch contains non-finite inputs")

    v_raw, acts = _forward_raw(params, x)
    norms = row_norms(v_raw)
    # a NaN or infinite entry gives a NaN or infinite norm, so one test on the norms covers it
    if not ((norms >= ZERO_NORM_EPS) & (norms < np.inf)).all():
        if not np.isfinite(v_raw).all():
            raise NumericalError("forward produced non-finite features")
        if (norms < ZERO_NORM_EPS).any():
            raise NumericalError("forward produced a zero-norm feature")
        raise NumericalError("forward produced a feature with an infinite norm")  # squares overflow
    v = v_raw / norms

    layout, means, kappa = bank.layout, bank.means, bank.kappa
    offsets, sizes = layout.offsets, layout.sizes
    n_classes = layout.ids.size
    rows = np.arange(n)
    y_cols = layout.positions(y)  # raises UnknownClass

    if lam != 0.0 and ((zhat < 0) | (zhat >= sizes[y_cols])).any():
        raise ValueError("assignments must index a component of the example's class")
    distilling = beta != 0.0 and old_log_post is not None
    if distilling:
        old, log_r = old_log_post
        cols, kept = layout.teacher_columns(old.layout)  # raises ModelRegression

    t = v @ means.T
    t *= kappa  # (n, K) scores, class blocks at the offsets
    if distilling and not kept:
        log_q = t[:, cols]
    lse, comp_post = segment_log_softmax(t, layout)
    log_comp = t  # within-class log-softmax
    log_p = _log_softmax(lse - layout.log_sizes)
    np.exp(log_comp, out=comp_post)  # softmax within each class
    if distilling and kept:
        # each teacher class is a whole class block here, so its restricted
        # posteriors are this step's own; gather before intra overwrites comp_post
        log_q, q = log_comp[:, cols], comp_post[:, cols]

    inter = -(float(np.add.reduce(log_p[rows, y_cols])) / n)  # the batch mean

    # dL/dT; inter-class CE: softmax within class distributes the class-level signal
    p_minus_onehot = np.exp(log_p)
    p_minus_onehot[rows, y_cols] -= 1.0
    p_minus_onehot /= n
    d_t = np.repeat(p_minus_onehot, sizes, axis=1)
    d_t *= comp_post

    # intra-class CE on the assigned component
    intra = 0.0
    if lam != 0.0:
        z_cols = offsets[y_cols] + zhat
        intra = -float(np.add.reduce(log_comp[rows, z_cols])) / n
        dz = comp_post  # comp_post is not read again
        dz[rows, z_cols] -= 1.0
        dz *= lam / n
        np.add(d_t, dz, out=d_t, where=layout.column_index == y_cols[:, None])

    # distillation against the previous-session posterior, restricted to
    # inherited components and renormalized
    distill = 0.0
    if distilling:
        if not kept:
            _, q = segment_log_softmax(log_q, old.layout)
            np.exp(log_q, out=q)
        diff = log_q
        diff -= log_r
        kl = np.add.reduceat(q * diff, old.layout.starts, axis=1)  # (n, C_old)
        n_old = old.layout.ids.size
        distill = float(np.add.reduce(kl, axis=None)) / (n * n_old)
        q *= beta / (n * n_old)
        diff -= np.repeat(kl, old.layout.sizes, axis=1)
        q *= diff
        d_t[:, cols] += q

    # component spread penalty (negated mean pairwise mean dot product)
    reg = 0.0
    mean_grad = d_t.T @ v
    mean_grad *= kappa
    if eta != 0.0:
        sm = np.add.reduceat(means, layout.starts, axis=0)  # (C, d) per-class sums
        # sum_{i<j} mu_i . mu_j, written so it stays exact off-sphere too
        sq_norms = np.add.reduceat(np.add.reduce(means * means, axis=1), layout.starts)
        pairs = np.add.reduce(sm * sm, axis=1) - sq_norms
        reg = -float(np.add.reduce(layout.half_pair_weight * pairs)) / n_classes
        spread = np.repeat(sm, sizes, axis=0)
        spread -= means
        spread *= (eta * layout.column_pair_weight)[:, None]
        mean_grad += spread

    loss_parts = {"inter": inter, "intra": lam * intra, "distill": beta * distill, "reg": eta * reg}
    for name, val in loss_parts.items():
        if not math.isfinite(val):
            raise NumericalError(f"{name} loss term is non-finite ({val})")
    loss = float(sum(loss_parts.values()))
    terms = {"inter": inter, "intra": intra, "distill": distill, "reg": reg}
    if not np.isfinite(mean_grad).all():
        raise NumericalError("gradient of the means is non-finite")
    if not with_layers:
        return loss, Gradient(None, mean_grad), terms

    # backprop through the embeddings: d/dT -> d/dv -> normalize -> MLP
    g_raw = d_t @ means
    g_raw *= kappa  # g_v
    g_raw -= np.add.reduce(g_raw * v, axis=1, keepdims=True) * v
    g_raw /= norms

    layer_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    g = g_raw
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        layer_grads[i] = (g.T @ acts[i], np.add.reduce(g, axis=0))
        if i > 0:
            g = (g @ w) * (1.0 - acts[i] ** 2)

    for i, (gw, gb) in enumerate(layer_grads):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
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
    """One SGD update; returns the new parameter and bank objects.

    Layers take w <- w - lr_b * (g + weight_decay * w); mixture means take a
    plain step and are re-projected to the unit sphere, in one buffer. Weight
    decay never touches the means. ``backbone_lr`` overrides ``lr`` for the
    layers only; at a layer rate of exactly 0 the backbone is frozen and
    ``params`` itself is returned, so ``grad.layers`` may then be None.
    Raises DegenerateFeature when a stepped mean is non-finite or zero.
    """
    lr_b = lr if backbone_lr is None else backbone_lr
    if lr_b == 0.0:
        new_params = params
    elif grad.layers is None:
        raise ValueError("a backbone step needs the layer gradient (with_layers=True)")
    else:
        new_params = BackboneParams([
            (w - lr_b * (gw + weight_decay * w), b - lr_b * (gb + weight_decay * b))
            for (w, b), (gw, gb) in zip(params.layers, grad.layers)
        ])
    means = np.multiply(grad.means, lr)
    np.subtract(bank.means, means, out=means)
    return new_params, bank.with_means(normalize_rows(means, out=means))
