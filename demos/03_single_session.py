"""One hard-EM training session, step by step.

Expansion seeds each incoming class with 30 random components; the epoch
loop alternates hard assignment with SGD on the combined objective; the
reduction pass then merges redundant components. The surviving components
line up with the hidden domains even though training never saw them.

Run:  python3 demos/03_single_session.py
"""

import sys

import numpy as np

from vmfcl import LossConfig, ModelState, SynthConfig, TrainConfig, generate_synthetic, purity
from vmfcl.backbone import init_params
from vmfcl.mixture import ModelBank
from vmfcl.streams import SessionDataset
from vmfcl.trainer import train_session

cfg = SynthConfig(
    num_classes=3, domains_per_class=3, dim=12, kappa_true=50.0,
    train_per_pair=120, test_per_pair=0, min_angle_deg=85.0, seed=4,
)
train, _, _ = generate_synthetic(cfg)
session = SessionDataset(0, train)

state = ModelState(
    init_params(cfg.dim, cfg.dim, hidden_dim=0, rng=np.random.default_rng(0)),
    ModelBank(cfg.dim, kappa=16.0),
)

train_cfg = TrainConfig(
    loss=LossConfig(epochs=25, batch_size=64, lr=0.05, backbone_lr=0.0),
    m=30,
    seed=7,
)
print("training one session on", len(session), "examples ...")
# one component index per training record, aligned by position
state, z = train_session(state, session, None, train_cfg, log=sys.stdout)

print("\nfinal component counts per class:")
for c in state.bank.class_ids:
    print(f"  class {c}: K = {state.bank.mixtures[c].num_components}")

print("component purity against hidden domains:", round(purity(train.y, z, train.domain), 3))
