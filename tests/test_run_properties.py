"""Property test: every run either completes with finite metrics or fails with a typed error.

Hypothesis draws small run configs over every split and both methods, with
in-range extremes of the numeric keys (kappa, lr, backbone_lr, m,
memory_budget, embed_dim, min_count). A run must either write a complete
report whose metrics are finite, plus its model snapshot, or raise a
``VmfclError`` after writing a report flagged ``incomplete``. The one
exception is a config that cannot be scheduled (an NCD split that leaves a
session empty): it is rejected with ``ConfigError`` before training, and
nothing is written. Any other exception fails the test.
"""

import json
import math
import os
import tempfile
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from vmfcl.bench import RunConfig, run_experiment_full
from vmfcl.errors import ConfigError, VmfclError
from vmfcl.streams import SynthConfig
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import LossConfig


@st.composite
def run_configs(draw):
    classes = draw(st.integers(1, 5))
    domains = draw(st.integers(1, 3))
    split = draw(st.sampled_from(["NC", "ND", "NCD"]))
    sessions = {
        "NC": draw(st.integers(1, classes)),
        "ND": None,
        "NCD": domains + draw(st.integers(0, 2)),
    }[split]
    synth = SynthConfig(
        classes, domains, draw(st.integers(2, 8)), draw(st.sampled_from([5.0, 50.0])),
        train_per_pair=draw(st.integers(1, 20)), test_per_pair=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 1000)),
    )
    loss = LossConfig(
        epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.sampled_from([1, 8, 64])),
        lr=draw(st.sampled_from([0.0, 1e-6, 0.05, 10.0, 1e300])),
        backbone_lr=draw(st.sampled_from([None, 0.0, 0.05, 10.0])),
        lambda_warmup_epochs=draw(st.sampled_from([0, 1])),
    )
    return RunConfig(
        method=draw(st.sampled_from(["domain_aware", "replay_baseline"])),
        split=split,
        sessions=sessions,
        memory_budget=draw(st.sampled_from([1, 7, 10_000])),
        kappa=draw(st.sampled_from([0.0, 1e-6, 16.0, 1e6, 1e300])),
        seed=draw(st.integers(0, 1000)),
        hidden_dim=draw(st.sampled_from([0, 4])),
        embed_dim=draw(st.sampled_from([None, 2, 9])),
        loss=loss,
        reduction=ReductionConfig(min_count=draw(st.sampled_from([1, 3, 10_000]))),
        m=draw(st.sampled_from([1, 2, 40])),
        synth=synth,
    )


def finite(value) -> bool:
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, list):
        return all(finite(v) for v in value)
    return value is None or math.isfinite(value)


@settings(max_examples=300, deadline=None, database=None)
@given(run_configs())
def test_a_run_completes_with_finite_metrics_or_fails_typed(cfg):
    with tempfile.TemporaryDirectory() as out:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow and budget warnings are allowed
            try:
                run_experiment_full(cfg, out_dir=out)
            except ConfigError:
                event("rejected before training")
                assert os.listdir(out) == []
                return
            except VmfclError as e:
                event(f"failed with {type(e).__name__}")
                with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                    assert json.load(fh)["incomplete"] is True
                return
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        event("completed")
        assert report["incomplete"] is False
        assert os.path.isfile(os.path.join(out, "model.vmfb"))
        for key in ("per_session_acc", "avg_inc_acc", "final_acc", "forgetting", "purity_per_session",
                    "acc_matrix", "per_class_domain_acc"):
            assert finite(report[key]), key
