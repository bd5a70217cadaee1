"""Synthetic feature streams, the three split regimes, and VMFS files.

Run:  python3 demos/02_streams_and_files.py
"""

import os
import tempfile

import numpy as np

from vmfcl import SynthConfig, generate_synthetic, make_splits, read_stream, write_stream

# --- a labeled pool of vMF clusters with hidden domain structure -------------
cfg = SynthConfig(
    num_classes=3, domains_per_class=2, dim=8, kappa_true=35.0,
    train_per_pair=50, test_per_pair=10, min_angle_deg=70.0, seed=11,
)
train, test, centers = generate_synthetic(cfg)
print(f"train pool: {len(train)} records, dim {train.dim}")
print(f"test pool:  {len(test)} records")

flat = centers.reshape(-1, cfg.dim)
dots = flat @ flat.T
np.fill_diagonal(dots, -1.0)
print("minimum center separation:", round(float(np.degrees(np.arccos(dots.max()))), 1), "deg")

# --- the three incremental regimes -------------------------------------------
for mode, sessions in (("NC", 3), ("ND", 2), ("NCD", 4)):
    # rows[t] indexes session t's records in the pool; train.subset(rows[t]) cuts them
    plan, rows = make_splits(train, mode, sessions, seed=1)
    print(f"\n{mode} split over {sessions} sessions:")
    for t, pairs in enumerate(plan.sessions):
        print(f"  session {t}: pairs {pairs}  ({len(rows[t])} records)")

# --- lossless binary round trip ----------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "pool.vmfs")
    write_stream(path, train)
    back = read_stream(path)  # features stay float32, as on disk
    print(f"\nVMFS round trip: {os.path.getsize(path)} bytes, features {back.x.dtype},",
          "bit-exact:", bool(np.array_equal(back.x, train.x.astype(np.float32))))
