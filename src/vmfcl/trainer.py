"""Per-session hard-EM training loop.

One session trains on the records its caller gives it: keep the previous
bank as the teacher, expand the classes the caller names, then alternate an
epoch-level hard E-step (each example commits to its closest component
within its class) with mini-batch SGD on the combined objective. After the
last epoch every class is reduced and a final E-step produces assignments
consistent with the reduced model.

The backbone features of the session data are computed once per E-step
that follows a layer update: the first forward also serves the teacher
(the layers are the previous session's until the first step), and a
session whose backbone rate is exactly 0 runs that one forward only.

The intra-class coefficient follows a linear warmup from 0: it only starts
to matter once the class prediction that the assignments depend on has had
time to stabilize.

The objective is written once, in ``backbone.loss_and_grad``: ``clf_loss``
and ``distill_loss`` read its terms over all the records of a dataset. The
loop formats no text: its values go to an optional ``emit(kind, **values)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import mixture as mx
from . import structure as st
from .config import check_ranges
from .streams import FeatureRecords


@dataclass
class LossConfig:
    epochs: int = field(default=30, metadata={"range": "[0, inf)"})
    batch_size: int = field(default=64, metadata={"range": "[1, inf)"})
    lr: float = field(default=0.05, metadata={"range": "[0, inf)"})
    weight_decay: float = field(default=0.0005, metadata={"range": "[0, inf)"})
    lambda_max: float = field(default=0.1, metadata={"range": "[0, inf)"})
    lambda_warmup_epochs: int = field(default=10, metadata={"range": "[0, inf)"})
    beta: float = field(default=1.0, metadata={"range": "[0, inf)"})
    eta: float = field(default=0.1, metadata={"range": "[0, inf)"})
    # None -> lr; 0.0 freezes the backbone
    backbone_lr: float | None = field(default=None, metadata={"range": "[0, inf)"})

    def __post_init__(self):
        check_ranges(self)


@dataclass
class ModelState:
    """Backbone parameters plus the bank of every class's components."""

    params: bb.BackboneParams
    bank: mx.ModelBank


def lambda_at(epoch: int, cfg: LossConfig) -> float:
    """Linear warmup 0 -> lambda_max over the first warmup epochs, then flat."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if cfg.lambda_warmup_epochs == 0:
        return cfg.lambda_max
    return min(cfg.lambda_max, cfg.lambda_max * epoch / cfg.lambda_warmup_epochs)


def _lr_factor(epoch: int, total: int) -> float:
    # step decay x0.1 at 60% and 85% of the epoch budget
    f = 1.0
    if epoch >= int(0.6 * total):
        f *= 0.1
    if epoch >= int(0.85 * total):
        f *= 0.1
    return f


def _e_step_array(bank: mx.ModelBank, feats: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hard assignment of every unit feature row to its class's closest component.

    ``feats`` holds the backbone features of the records, ``y`` their
    labels. Returns an (n,) int64 array of component indices aligned with
    the rows by position, so records that share an id stay distinct.
    """
    at = bank.positions(y)  # UnknownClass for a label the bank lacks
    order = np.argsort(at, kind="stable")  # grouped by class position, each group in row order
    cuts = np.cumsum(np.bincount(at, minlength=len(bank.class_ids)))[:-1]
    z = np.zeros(len(y), dtype=np.int64)
    for lo, hi, rows in zip(bank.offsets[:-1], bank.offsets[1:], np.split(order, cuts)):
        if rows.size:
            z[rows] = mx.assign_components_batch(bank.means[lo:hi], feats[rows])
    return z


def clf_loss(
    bank: mx.ModelBank,
    params: bb.BackboneParams,
    records: FeatureRecords,
    assignments: np.ndarray,
    lam: float,
) -> float:
    """Inter-class CE plus lam times the intra-class CE on the assigned component.

    ``assignments[i]`` is the component index of ``records[i]``.
    """
    _, _, terms = bb.loss_and_grad(
        params, bank, records.x, records.y, assignments, lam=lam, beta=0.0, eta=0.0, with_layers=False
    )
    return terms["inter"] + lam * terms["intra"]


def distill_loss(
    bank: mx.ModelBank,
    params: bb.BackboneParams,
    snapshot: ModelState | None,
    records: FeatureRecords,
) -> float:
    """Mean KL between current and previous-session component posteriors.

    For every example and every class the snapshot knows, the current
    posterior is restricted to the components inherited from the snapshot
    (the leading block, since expansion appends) and renormalized before
    comparing. Defined as 0 in the first session.
    """
    if snapshot is None or not snapshot.bank.class_ids:
        return 0.0
    old_lp = _old_log_posteriors(snapshot.bank, bb.forward_batch(snapshot.params, records.x))
    _, _, terms = bb.loss_and_grad(
        params, bank, records.x, records.y, np.zeros(len(records), np.int64), lam=0.0, beta=1.0,
        eta=0.0, old_log_post=(snapshot.bank, old_lp), with_layers=False,
    )
    return terms["distill"]


def reg_loss(bank: mx.ModelBank) -> float:
    """The spread penalty of the bank's means (``mixture.spread_penalty``), for the epoch log.

    Classes with a single component contribute zero, and a zero penalty
    reads +0.0; every class's value is bounded in [-0.5, 0.5] because the
    pair weights sum to one half.
    """
    if not bank.class_ids:
        raise ValueError("bank must have at least one class")
    return mx.spread_penalty(bank)[0] + 0.0  # -0.0 + 0.0 is +0.0


def _old_log_posteriors(teacher: mx.ModelBank, feats: np.ndarray) -> np.ndarray:
    """Teacher log posteriors for the whole dataset, computed once per session.

    ``feats`` are the records' unit features under the previous session's layers.
    Returns one (n, K_old) array in the teacher bank's row order, log-softmax
    per class. The κ-scaled scores are that array itself, and the softmax
    runs in place on ``PREDICT_BLOCK_ROWS``-row blocks of it, so its scratch
    is a few blocks, not a few more (n, K_old) arrays; every step is row-wise,
    so the blocks change no bit.
    """
    t = feats @ teacher.means.T
    t *= teacher.kappa
    for lo in range(0, len(t), mx.PREDICT_BLOCK_ROWS):
        mx.segment_log_softmax(t[lo : lo + mx.PREDICT_BLOCK_ROWS], teacher)
    return t


def train_session(
    state: ModelState, data: FeatureRecords, expand_classes, *,
    m: int, loss: LossConfig, reduction: st.ReductionConfig | None, seed: int, emit=None,
) -> tuple[ModelState, np.ndarray]:
    """Run one full incremental session on ``data``; the input state is never mutated.

    ``data`` is the session's training set (the incoming records, then any
    replayed ones), and ``expand_classes`` the classes that get ``m`` fresh
    components before the first epoch; ``seed`` draws them and the batch
    order, and ``reduction=None`` skips the reduction. Returns the updated
    state and the final (post-reduction) assignments of ``data``, one per
    record by position. Any error propagates and leaves the caller's state
    exactly as it was. ``emit`` gets one "epoch" event per epoch and one
    "reduce" event per class, each as it happens.

    No step writes into an array it is given: ``expand``, ``sgd_step`` and
    ``reduce`` each return new arrays. So the input bank serves as the
    teacher as it is, without a copy, and the input state stays intact
    whether the session succeeds or fails.
    """
    if len(data) == 0:
        raise ValueError("session data must be nonempty")
    params, bank = state.params, state.bank
    teacher = bank if bank.class_ids else None

    rng = np.random.default_rng(seed)
    if len(expand_classes):
        bank = st.expand(bank, expand_classes, m, rng)

    layer_lr = loss.lr if loss.backbone_lr is None else loss.backbone_lr
    # a backbone rate of exactly 0 leaves the layers as they are, so their
    # gradient is not needed and their features stay valid all session
    frozen = layer_lr == 0.0
    # the teacher's layers are these layers until the first step: one forward serves both
    feats = bb.forward_batch(params, data.x)
    old_lp = None
    if teacher is not None and loss.beta != 0.0:
        old_lp = _old_log_posteriors(teacher, feats)

    n = len(data)
    for epoch in range(loss.epochs):
        if feats is None:
            feats = bb.forward_batch(params, data.x)
        z = _e_step_array(bank, feats, data.y)
        if not frozen:
            feats = None  # the layers step below
        lam = lambda_at(epoch, loss)
        factor = _lr_factor(epoch, loss.epochs)
        lr = loss.lr * factor
        perm = rng.permutation(n)
        sums = dict.fromkeys(("inter", "intra", "distill"), 0.0)
        for start in range(0, n, loss.batch_size):
            idx = perm[start : start + loss.batch_size]
            _, grad, terms = bb.loss_and_grad(
                params, bank, data.x[idx], data.y[idx], z[idx],
                lam=lam, beta=loss.beta, eta=loss.eta,
                old_log_post=None if old_lp is None else (teacher, old_lp[idx]),
                with_layers=not frozen,
            )
            for name in sums:
                sums[name] += terms[name] * idx.size
            params, bank = bb.sgd_step(params, bank, grad, lr, loss.weight_decay, layer_lr * factor)
        if emit is not None:
            # clf and dis are batch means over the epoch; reg is the end-of-epoch value
            clf = (sums["inter"] + lam * sums["intra"]) / n
            dis = sums["distill"] / n
            reg = reg_loss(bank)
            total = clf + loss.beta * dis + loss.eta * reg
            emit("epoch", epoch=epoch, lam=lam, lr=lr, clf=clf, dis=dis, reg=reg, total=total)

    if feats is None:
        feats = bb.forward_batch(params, data.x)
    if reduction is not None:
        z = _e_step_array(bank, feats, data.y)
        counts, sums = st.collect_stats(bank, data.y, z, feats)
        bank, merge_maps = st.reduce(bank, counts, sums, reduction)
        if emit is not None:
            for c, mm in sorted(merge_maps.items()):
                emit("reduce", class_id=c, k_before=len(mm), k_after=max(mm) + 1, merge_map=mm)

    final = _e_step_array(bank, feats, data.y)
    return ModelState(params, bank), final
