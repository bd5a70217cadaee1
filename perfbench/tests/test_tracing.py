import importlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),
        Span("d", 5.0, 7.0, 2, 1),
        Span("e", 6.0, 8.0, 2, 1),  # overlaps d: together they cover 5..8
        Span("late", 9.5, 11.0, 0, 1),  # runs past its parent: only 9.5..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_sum_self_time_and_derive_ratios():
    tr = Tracer()
    tr.spans = [
        Span("bench.run_experiment_full", 0.0, 10.0, -1, 1),
        Span("backbone.loss_and_grad", 1.0, 3.0, 0, 1),
        Span("backbone.loss_and_grad", 4.0, 5.0, 0, 1),
        Span("backbone.forward_batch", 4.2, 4.7, 2, 1),
        Span("bench.run_experiment_full", 20.0, 21.0, -1, 2),
    ]
    tr.count("backbone.loss_and_grad.examples", 128)
    tr.count("structure.components_trained", 60)
    tr.count("structure.components_kept", 6)
    tr.count("trainer.e_step.changed", 5)
    tr.count("trainer.e_step.compared", 50)
    m = tracing.layer_metrics(tr, wall_s=11.5)
    assert m["bench.run_experiment_full.self_s"] == pytest.approx(8.0)
    assert m["bench.run_experiment_full.calls"] == 2
    assert m["backbone.loss_and_grad.self_s"] == pytest.approx(2.5)
    assert m["backbone.loss_and_grad.us_per_call"] == pytest.approx(1.25e6)
    assert m["backbone.forward_batch.self_s"] == pytest.approx(0.5)
    assert m["backbone.loss_and_grad.examples"] == 128
    assert m["structure.kept_ratio"] == pytest.approx(0.1)
    assert m["trainer.e_step.churn"] == pytest.approx(0.1)
    assert m["trace.unaccounted_s"] == pytest.approx(0.5)
    assert m["trainer.log_recompute.self_s"] == 0.0
    assert m["mixture.save_snapshot.bytes"] == 0


def test_every_declared_per_layer_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics(Tracer(), 0.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def _attributes():
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.PATCHES}


def test_wrappers_are_installed_inside_and_restored_after():
    before = _attributes()
    with tracing.traced(Tracer()):
        inside = _attributes()
        assert all(inside[k] is not before[k] for k in before)
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_restored_when_the_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.traced(Tracer()):
            raise RuntimeError("boom")
    assert all(_attributes()[k] is before[k] for k in before)


def test_missing_patch_site_fails_and_restores_the_rest():
    before = _attributes()
    bogus = tracing.PATCHES + [("vmfcl.trainer", "no_such_function", "trainer.nothing", None)]
    with pytest.raises(AttributeError):
        with tracing.traced(Tracer(), bogus):
            pass
    assert all(_attributes()[k] is before[k] for k in before)


def test_traced_run_records_layers_and_leaves_the_report_unchanged(tmp_path):
    import vmfcl.bench

    cfg = vmfcl.bench.load_run_config(ROOT / "configs" / "nd_gain.cfg")
    cfg.loss = replace(cfg.loss, epochs=3)
    plain = vmfcl.bench.run_experiment_full(cfg, out_dir=str(tmp_path / "plain")).report.to_json()
    before = _attributes()
    tr = Tracer()
    with tracing.traced(tr):
        traced = vmfcl.bench.run_experiment_full(cfg, out_dir=str(tmp_path / "traced")).report.to_json()
    assert all(_attributes()[k] is before[k] for k in before)
    assert traced == plain
    m = tracing.layer_metrics(tr, wall_s=tr.spans[0].end - tr.spans[0].start)
    assert m["bench.run_experiment_full.calls"] == 1
    assert m["trainer.train_session.calls"] == 3
    assert m["trainer.e_step.calls"] == 3 * (3 + 2)  # per epoch, before reduction, final
    assert m["backbone.loss_and_grad.calls"] == m["backbone.sgd_step.calls"] > 0
    assert m["trainer.log_recompute.calls"] > 0
    assert m["mixture.save_snapshot.bytes"] == (tmp_path / "traced" / "model.vmfb").stat().st_size
    assert m["memory.select_memory.selected"] == 3 * cfg.memory_budget
    assert 0 < m["structure.kept_ratio"] < 1
    assert m["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-9)
    assert all(s.parent < i for i, s in enumerate(tr.spans))
