"""Whole-run invariants: a run does not depend on the columns the protocol says it must ignore.

Each property writes a small synthetic pair of pools to VMFS files, runs the
protocol from a ``[data]`` config on them, then runs it again on a transformed
copy of the files and compares the two:

* permuting the test pool leaves the report and the model unchanged: a test
  record is scored by its own label and pair, not by its position;
* shifting every example id by 10**12 leaves the report and the model
  unchanged: ids only name records;
* under an NC split, hiding every domain label (-1) leaves the model, the
  accuracies and the memory unchanged, and makes every purity ``None``: the
  method never reads a domain label while it trains or selects memory. The
  train pool is drawn in a random order, so that its records do not list
  each class's domains in order;
* a monotone relabelling of the classes and of the domains (c -> 3c + 7 and
  z -> 2z + 1, or increasing maps Hypothesis draws) leaves the model and the
  report unchanged once the report's class and domain keys are mapped back:
  labels are compared and sorted, never used as numbers;
* under an NC split, a non-monotone bijection of the domain labels leaves the
  model and the report unchanged, keys mapped back: NC schedules whole
  classes, so the domain order cannot matter either. The train pool is drawn
  in a random order here too.

Reports are compared as dicts without ``config_echo``, which names the file
paths; the model is compared as the bytes of its float64 means and layers.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmfcl.bench import RunConfig, run_experiment_full
from vmfcl.streams import FeatureRecords, SynthConfig, generate_synthetic, write_stream
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import LossConfig

SEEDS = st.integers(0, 2**32 - 1)
TRAIN_RECORDS, TEST_RECORDS = 3 * 2 * 12, 3 * 2 * 6


def pools(seed: int):
    """Train and test pools of 3 classes x 2 domains in dimension 6, 12 and 6 records a pair."""
    train, test, _ = generate_synthetic(SynthConfig(3, 2, 6, 20.0, 12, 6, seed=seed))
    return train, test


def run(train: FeatureRecords, test: FeatureRecords, split: str, seed: int):
    """The report dict (without ``config_echo``) and the model bytes of one run from VMFS files."""
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("train.vmfs", "test.vmfs")]
        write_stream(paths[0], train)
        write_stream(paths[1], test)
        cfg = RunConfig(
            split=split, sessions=2, memory_budget=9, seed=seed, hidden_dim=4, m=3,
            loss=LossConfig(epochs=2, batch_size=16, lr=0.05), reduction=ReductionConfig(min_count=2),
            train_path=paths[0], test_path=paths[1],
        )
        result = run_experiment_full(cfg)
    report = result.report.to_dict()
    del report["config_echo"]
    state = result.state
    model = b"".join([state.bank.means.tobytes(), *(a.tobytes() for layer in state.params.layers for a in layer)])
    return report, model


def shifted(records: FeatureRecords, by: int) -> FeatureRecords:
    return replace(records, ids=records.ids + np.uint64(by))


def hidden(records: FeatureRecords) -> FeatureRecords:
    return replace(records, domain=np.full(len(records), -1, np.int32))


def relabelled(records: FeatureRecords, classes: list[int], domains: list[int]) -> FeatureRecords:
    """``records`` with class c renamed ``classes[c]`` and domain z renamed ``domains[z]``."""
    return replace(records, y=np.array(classes)[records.y], domain=np.array(domains)[records.domain])


def keys_mapped_back(report: dict, classes: list[int], domains: list[int]) -> dict:
    """A relabelled run's report with its class and domain keys renamed to the original labels."""
    c_back = {str(new): str(old) for old, new in enumerate(classes)}
    z_back = {str(new): str(old) for old, new in enumerate(domains)}

    def by_class(table: dict) -> dict:
        return {c_back[c]: value for c, value in table.items()}

    out = dict(report)
    out["components_per_class"] = by_class(report["components_per_class"])
    for key in ("components_per_class_history", "memory_class_counts", "memory_component_counts"):
        out[key] = [by_class(table) for table in report[key]]
    out["per_class_domain_acc"] = {
        c_back[c]: {z_back[z]: acc for z, acc in row.items()} for c, row in report["per_class_domain_acc"].items()
    }
    return out


@settings(max_examples=4, deadline=None, database=None)
@given(SEEDS, st.permutations(range(TEST_RECORDS)), st.sampled_from(["ND", "NC"]))
def test_permuting_the_test_pool_changes_nothing(seed, order, split):
    train, test = pools(seed)
    assert run(train, test.subset(np.array(order)), split, seed) == run(train, test, split, seed)


@settings(max_examples=4, deadline=None, database=None)
@given(SEEDS, st.sampled_from(["ND", "NC"]))
def test_shifting_every_id_changes_nothing(seed, split):
    train, test = pools(seed)
    assert run(shifted(train, 10**12), shifted(test, 10**12), split, seed) == run(train, test, split, seed)


@settings(max_examples=4, deadline=None, database=None)
@given(SEEDS, st.permutations(range(TRAIN_RECORDS)))
def test_hiding_every_domain_under_nc_changes_no_model_or_accuracy(seed, order):
    train, test = pools(seed)
    train = train.subset(np.array(order))  # a generated pool lists each class's domains in order
    shown, shown_model = run(train, test, "NC", seed)
    blind, blind_model = run(hidden(train), hidden(test), "NC", seed)
    assert blind_model == shown_model
    assert blind["purity_per_session"] == [None, None]
    assert all(p is not None for p in shown["purity_per_session"])
    for report in (shown, blind):  # the per-(class, domain) table is keyed by domain
        del report["purity_per_session"], report["per_class_domain_acc"]
    assert blind == shown


INCREASING = st.lists(st.integers(0, 2**31 - 1), unique=True, min_size=5, max_size=5).map(sorted)


@settings(max_examples=4, deadline=None, database=None)
@given(SEEDS, INCREASING, st.sampled_from(["ND", "NC"]))
@example(seed=1, labels=[7, 10, 13, 1, 3], split="ND")  # c -> 3c + 7 and z -> 2z + 1
def test_a_monotone_relabelling_changes_nothing(seed, labels, split):
    classes, domains = labels[:3], labels[3:]
    train, test = pools(seed)
    want_report, want_model = run(train, test, split, seed)
    report, model = run(relabelled(train, classes, domains), relabelled(test, classes, domains), split, seed)
    assert model == want_model
    assert keys_mapped_back(report, classes, domains) == want_report


@settings(max_examples=4, deadline=None, database=None)
@given(SEEDS, st.permutations(range(TRAIN_RECORDS)),
       st.lists(st.integers(0, 2**31 - 1), unique=True, min_size=2, max_size=2).map(sorted))
def test_a_non_monotone_domain_bijection_under_nc_changes_nothing(seed, order, values):
    domains = values[::-1]  # domain 0 gets the larger label: the order of the two is reversed
    train, test = pools(seed)
    train = train.subset(np.array(order))  # a generated pool lists each class's domains in order
    want_report, want_model = run(train, test, "NC", seed)
    classes = [0, 1, 2]
    report, model = run(relabelled(train, classes, domains), relabelled(test, classes, domains), "NC", seed)
    assert model == want_model
    assert keys_mapped_back(report, classes, domains) == want_report
