"""Per-session hard-EM training loop.

One session: snapshot the previous model, expand the mixtures for incoming
classes, then alternate an epoch-level hard E-step (each example commits to
its closest component within its class) with mini-batch SGD on the combined
objective. After the last epoch the mixtures are reduced and a final E-step
produces assignments consistent with the reduced model.

The backbone features of the session data are computed once per E-step
that follows a layer update: the first forward also gives the teacher its
features (the snapshot's layers are the session's until the first step),
and a session whose backbone rate is exactly 0 runs that one forward only.

The intra-class coefficient follows a linear warmup from 0: it only starts
to matter once the class prediction that the assignments depend on has had
time to stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import backbone as bb
from . import mixture as mx
from . import structure as st
from .errors import ConfigError, ModelRegression, NumericalError
from .memory import MemoryBuffer
from .streams import FeatureRecords, SessionDataset, concat_records


@dataclass
class LossConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05
    weight_decay: float = 0.0005
    lambda_max: float = 0.1
    lambda_warmup_epochs: int = 10
    beta: float = 1.0
    eta: float = 0.1
    backbone_lr: float | None = None  # None -> lr; 0.0 freezes the backbone

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not value >= 0:  # NaN fails too
                raise ConfigError(f"{f.name} must be nonnegative, got {value}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")


@dataclass
class TrainConfig:
    """Everything one session needs beyond the data itself."""

    loss: LossConfig = field(default_factory=LossConfig)
    reduction: st.ReductionConfig = field(default_factory=st.ReductionConfig)
    m: int = 30
    expand_existing: bool = True
    reduce_enabled: bool = True
    seed: int = 0


@dataclass
class ModelState:
    """Backbone parameters plus all class mixtures."""

    params: bb.BackboneParams
    bank: mx.ModelBank

    def copy(self) -> "ModelState":
        return ModelState(self.params.copy(), self.bank.copy())


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
    z = np.zeros(len(y), dtype=np.int64)
    for c in sorted(np.unique(y).tolist()):
        rows = np.flatnonzero(y == c)
        z[rows] = mx.assign_components_batch(bank, c, feats[rows])
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
    z = np.asarray(assignments, dtype=np.int64)
    if z.shape != (len(records),):
        raise ValueError(f"need one assignment per record, got shape {z.shape} for {len(records)}")
    feats = bb.forward_batch(params, records.x)
    ids = bank.class_ids
    col = {c: i for i, c in enumerate(ids)}
    inter = 0.0
    intra = 0.0
    for c in sorted(np.unique(records.y).tolist()):
        rows = np.flatnonzero(records.y == c)
        scores = _class_log_scores_batch(bank, feats[rows])
        logp = scores - _logsumexp_rows(scores)
        inter -= float(np.sum(logp[:, col[c]]))
        t = bank.kappa * (feats[rows] @ bank.mixture(c).means.T)
        logq = t - _logsumexp_rows(t)
        intra -= float(np.sum(logq[np.arange(rows.size), z[rows]]))
    n = len(records)
    value = inter / n + lam * (intra / n)
    if not math.isfinite(value):
        raise NumericalError(f"classification loss is non-finite ({value})")
    return value


def _logsumexp_rows(t: np.ndarray) -> np.ndarray:
    m = np.max(t, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(t - m), axis=1, keepdims=True))


def _class_log_scores_batch(bank: mx.ModelBank, feats: np.ndarray) -> np.ndarray:
    out = np.empty((feats.shape[0], len(bank.class_ids)))
    for i, mix in enumerate(bank.mixtures.values()):
        t = bank.kappa * (feats @ mix.means.T)
        out[:, i] = _logsumexp_rows(t)[:, 0] - np.log(t.shape[1])
    return out


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
    if snapshot is None or not snapshot.bank.mixtures:
        return 0.0
    feats = bb.forward_batch(params, records.x)
    old_feats = bb.forward_batch(snapshot.params, records.x)
    total = 0.0
    snap_ids = snapshot.bank.class_ids
    for c, old_mix in snapshot.bank.mixtures.items():
        if c not in bank.class_ids:
            raise ModelRegression(f"class {c} from the previous session is missing from the bank")
        k_old = old_mix.num_components
        if bank.mixture(c).num_components < k_old:
            raise ModelRegression(f"class {c} lost inherited components")
        t_new = bank.kappa * (feats @ bank.mixture(c).means[:k_old].T)
        t_old = snapshot.bank.kappa * (old_feats @ old_mix.means.T)
        log_q = t_new - _logsumexp_rows(t_new)
        log_r = t_old - _logsumexp_rows(t_old)
        total += float(np.sum(np.exp(log_q) * (log_q - log_r)))
    value = total / (len(records) * len(snap_ids))
    if not math.isfinite(value):
        raise NumericalError(f"distillation loss is non-finite ({value})")
    return value


def reg_loss(bank: mx.ModelBank) -> float:
    """Negated mean pairwise dot product of each class's component means.

    Classes with a single component contribute zero; every class's value is
    bounded in [-0.5, 0.5] because the pair weights sum to one half.
    """
    if not bank.mixtures:
        raise ValueError("bank must have at least one class")
    total = 0.0
    for mix in bank.mixtures.values():
        m = mix.means
        k = m.shape[0]
        if k < 2:
            continue
        sm = np.sum(m, axis=0)
        total -= (float(sm @ sm) - float(np.sum(m * m))) * 0.5 / (k * (k - 1))
    return total / len(bank.mixtures)


def overall_loss(
    bank: mx.ModelBank,
    params: bb.BackboneParams,
    snapshot: ModelState | None,
    records: FeatureRecords,
    assignments: np.ndarray,
    lam: float,
    beta: float,
    eta: float,
) -> float:
    """clf + beta * distillation + eta * regularization."""
    return (
        clf_loss(bank, params, records, assignments, lam)
        + beta * distill_loss(bank, params, snapshot, records)
        + eta * reg_loss(bank)
    )


def _old_log_posteriors(snapshot: ModelState, feats: np.ndarray) -> np.ndarray:
    """Teacher log posteriors for the whole dataset, computed once per session.

    ``feats`` are the snapshot backbone's unit features of the records.
    Returns one (n, K_old) array in the teacher bank's row order, log-softmax
    per class.
    """
    t = snapshot.bank.kappa * (feats @ snapshot.bank.means.T)
    mx.segment_log_softmax(t, snapshot.bank.layout)
    return t


def train_session(
    state: ModelState,
    incoming: SessionDataset,
    memory: MemoryBuffer | None,
    cfg: TrainConfig,
    log=None,
) -> tuple[ModelState, np.ndarray]:
    """Run one full incremental session; the input state is never mutated.

    Returns the updated state and the final (post-reduction) assignments of
    the incoming records followed by the memory records, one per record by
    position. Any error propagates and leaves the caller's state exactly as
    it was.
    """
    if len(incoming) == 0:
        raise ValueError("incoming session data must be nonempty")
    params = state.params.copy()
    bank = state.bank.copy()
    snapshot = state.copy() if state.bank.class_ids else None

    rng = np.random.default_rng(cfg.seed)
    incoming_classes = sorted(np.unique(incoming.records.y).tolist())
    if cfg.expand_existing:
        to_expand = incoming_classes
    else:
        to_expand = [c for c in incoming_classes if c not in bank.class_ids]
    if to_expand:
        bank = st.expand(bank, to_expand, cfg.m, rng)

    data = incoming.records
    if memory is not None and len(memory) > 0:
        data = concat_records(incoming.records, memory.records)

    # a backbone rate of exactly 0 leaves the layers as they are, so their
    # gradient is not needed and their features stay valid all session
    frozen = (cfg.loss.lr if cfg.loss.backbone_lr is None else cfg.loss.backbone_lr) == 0.0
    # the snapshot's layers are these layers until the first step: one forward serves both
    feats = bb.forward_batch(params, data.x)
    old_lp = None
    if snapshot is not None and cfg.loss.beta != 0.0:
        old_lp = _old_log_posteriors(snapshot, feats)

    n = len(data)
    for epoch in range(cfg.loss.epochs):
        if feats is None:
            feats = bb.forward_batch(params, data.x)
        z = _e_step_array(bank, feats, data.y)
        if not frozen:
            feats = None  # the layers step below
        lam = lambda_at(epoch, cfg.loss)
        factor = _lr_factor(epoch, cfg.loss.epochs)
        lr = cfg.loss.lr * factor
        backbone_lr = None if cfg.loss.backbone_lr is None else cfg.loss.backbone_lr * factor
        perm = rng.permutation(n)
        sums = dict.fromkeys(("inter", "intra", "distill"), 0.0)
        for start in range(0, n, cfg.loss.batch_size):
            idx = perm[start : start + cfg.loss.batch_size]
            _, grad, terms = bb.loss_and_grad(
                params, bank, data.x[idx], data.y[idx], z[idx],
                lam=lam, beta=cfg.loss.beta, eta=cfg.loss.eta,
                old_log_post=None if old_lp is None else (snapshot.bank, old_lp[idx]),
                with_layers=not frozen,
            )
            for name in sums:
                sums[name] += terms[name] * idx.size
            params, bank = bb.sgd_step(
                params, bank, grad, lr, cfg.loss.weight_decay, backbone_lr=backbone_lr
            )
        if log is not None:
            # clf and dis are batch means over the epoch; reg is the end-of-epoch value
            clf = (sums["inter"] + lam * sums["intra"]) / n
            dis = sums["distill"] / n
            reg = reg_loss(bank)
            total = clf + cfg.loss.beta * dis + cfg.loss.eta * reg
            log.write(
                f"epoch={epoch} lambda={lam:.6f} lr={lr:.6g} clf={clf:.6f} "
                f"dis={dis:.6f} reg={reg:.6f} total={total:.6f}\n"
            )

    if feats is None:
        feats = bb.forward_batch(params, data.x)
    if cfg.reduce_enabled:
        z = _e_step_array(bank, feats, data.y)
        counts, sums = st.collect_stats(bank, data.y, z, feats)
        bank, reduction = st.reduce(bank, counts, sums, cfg.reduction)
        if log is not None:
            for c in sorted(reduction):
                rec = reduction[c]
                log.write(
                    f"reduce class={c} k_before={rec.k_before} k_after={rec.k_after} "
                    f"merge_map={rec.merge_map}\n"
                )

    final = _e_step_array(bank, feats, data.y)
    return ModelState(params, bank), final
