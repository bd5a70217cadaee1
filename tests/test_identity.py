"""Byte identity against history: the pinned legs of ``tools/check_identical.py``.

Each leg of ``check_identical.LEGS`` marked ``pinned`` (the four shipped-config
runs, the two perfbench-config runs, the VMFS ``synth`` leg and the ``nd_gain``
export leg) runs in-process at seed 1 into ``tmp_path``, and the sha256 of each of its files must equal the
digest pinned in ``identity_digests.json``. Files are hashed as the tool hashes
them, ``train.log`` without its ``wall_clock_sec=`` line. The files round the
model (``model.vmfb`` holds float32, ``train.log`` six digits), so for a leg
that trains, the final model's float64 means and layers are pinned too, as
``state.float64``: a one-ulp drift in training shows only there. The table
records the NumPy version it was pinned under. The shipped configs freeze the
backbone (``hidden_dim = 0``); ``nd_wide`` trains a hidden layer, and
``nc_eval``'s new-class sessions reach the teacher's ``kept`` fast path in
``loss_and_grad``, so those two legs pin the paths the shipped ones skip. A change that alters these bits
on purpose re-pins the table from the digests a failure prints, and says so.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from vmfcl import cli

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((Path(__file__).parent / "identity_digests.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("check_identical", ROOT / "tools" / "check_identical.py")
check_identical = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_identical)

PINNED_LEGS = [leg for leg in check_identical.LEGS if leg.pinned]


def state_digest(result) -> str:
    """sha256 of a run's final model in float64: the packed means, then each layer's weight and bias."""
    h = hashlib.sha256(result.bank.means.tobytes())
    for w, b in result.params.layers:
        h.update(w.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


def leg_digests(leg, out: Path, monkeypatch) -> dict:
    """Run ``leg`` through ``cli.main`` at the pinned seed; the digest of each output, and of
    the final model when the leg trains one."""
    runs, run = [], cli.run_experiment_full

    def recorded(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_experiment_full", recorded)
    args = [a.format(root=ROOT) for a in leg.args]
    assert cli.main([*args, "--seed", str(PINNED["seed"]), "--out", str(out)]) == 0
    got = {name: check_identical.digest(out / name) for name in leg.outputs}
    got.update({"state.float64": state_digest(r) for r in runs})
    return got


def test_the_table_pins_exactly_the_pinned_legs():
    assert sorted(PINNED["digests"]) == sorted(leg.name for leg in PINNED_LEGS)


@pytest.mark.parametrize("leg", PINNED_LEGS, ids=[leg.name for leg in PINNED_LEGS])
def test_leg_writes_the_pinned_bytes(tmp_path, monkeypatch, leg):
    got = leg_digests(leg, tmp_path / leg.name, monkeypatch)
    assert got == PINNED["digests"][leg.name], (
        f"pinned under NumPy {PINNED['numpy']}, this is NumPy {np.__version__}; "
        f"the digests of this tree:\n{json.dumps(got, indent=2, sort_keys=True)}"
    )
