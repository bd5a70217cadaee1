"""One hard-EM training session, step by step.

Expansion seeds each incoming class with 30 random components; the epoch
loop alternates hard assignment with SGD on the combined objective; the
reduction pass then merges redundant components. The surviving components
line up with the hidden domains even though training never saw them.
Each epoch and each reduced class prints the line it gets in a run's
train.log, through the same writer (``vmfcl.bench.log_to``).

Run:  python3 demos/03_single_session.py
"""

import sys

import numpy as np

from vmfcl import LossConfig, ModelState, ReductionConfig, SynthConfig, generate_synthetic, purity
from vmfcl.backbone import init_params
from vmfcl.bench import log_to
from vmfcl.mixture import ModelBank
from vmfcl.trainer import train_session

cfg = SynthConfig(
    num_classes=3, domains_per_class=3, dim=12, kappa_true=50.0,
    train_per_pair=120, test_per_pair=0, min_angle_deg=85.0, seed=4,
)
train, _, _ = generate_synthetic(cfg)

state = ModelState(
    init_params(cfg.dim, cfg.dim, hidden_dim=0, rng=np.random.default_rng(0)),
    ModelBank(cfg.dim, kappa=16.0),
)

loss = LossConfig(epochs=25, batch_size=64, lr=0.05, backbone_lr=0.0)
print("training one session on", len(train), "examples ...")
# a first session: no memory to replay, so the training set is the session's
# records, and every class it brings is expanded; z holds one component index
# per training record, aligned by position; each setting is its own keyword
state, z = train_session(
    state, train, np.unique(train.y),
    m=30, loss=loss, reduction=ReductionConfig(), seed=7, emit=log_to(sys.stdout),
)

print("\nfinal component counts per class:")
for c, k in zip(state.bank.class_ids, state.bank.sizes.tolist()):
    print(f"  class {c}: K = {k}")

print("component purity against hidden domains:", round(purity(train.y, z, train.domain), 3))
