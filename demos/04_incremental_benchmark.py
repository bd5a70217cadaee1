"""Full incremental benchmark: domain-aware mixtures vs plain replay.

Three domains arrive per class, one per session, under a tight replay
budget. The single-prototype replay model drifts toward each incoming
domain; the mixture keeps one component per domain and barely forgets.

Run:  python3 demos/04_incremental_benchmark.py
"""

import numpy as np

from vmfcl import LossConfig, RunConfig, SynthConfig, run_experiment_full
from vmfcl.structure import ReductionConfig

stream = SynthConfig(
    num_classes=4, domains_per_class=3, dim=16, kappa_true=20.0,
    train_per_pair=200, test_per_pair=40, min_angle_deg=90.0,
    max_angle_deg=60.0, seed=43,
)

reports = {}
for method in ("domain_aware", "replay_baseline"):
    cfg = RunConfig(
        method=method, split="ND", memory_budget=120, kappa=16.0, seed=1,
        hidden_dim=0, synth=stream,
        loss=LossConfig(epochs=30, batch_size=64, lr=0.05, backbone_lr=0.0),
        reduction=ReductionConfig(min_count=12),
    )
    reports[method] = run_experiment_full(cfg).report

print(f"{'':24s} {'per-session acc':>28s} {'avg':>7s} {'final':>7s} {'forget':>7s}")
for method, rep in reports.items():
    per = " ".join(f"{a:7.2f}" for a in rep.per_session_acc)
    print(f"{method:24s} {per:>28s} {rep.avg_inc_acc:7.2f} {rep.final_acc:7.2f} "
          f"{rep.forgetting:7.2f}")

da, rb = reports["domain_aware"], reports["replay_baseline"]
print("\naverage incremental accuracy gain:", round(da.avg_inc_acc - rb.avg_inc_acc, 2), "points")
print("components per class (domain_aware):", da.components_per_class)
print("components per class (baseline):    ", rb.components_per_class)
print("mixture purity by session:", [round(p, 3) for p in da.purity_per_session])
print("memory per class, final session:", da.memory_class_counts[-1])
print("memory per component, final session:", da.memory_component_counts[-1])
