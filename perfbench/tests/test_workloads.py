from dataclasses import replace

import workloads
from workloads import ProtocolRun, Workload


def _tiny(monkeypatch, tmp_path, floors):
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    run = ProtocolRun("nd_gain.domain_aware", "configs/nd_gain.cfg", "domain_aware", True, floors)
    workload = Workload("tiny", (run,))
    cfg = workloads.run_config(workload, run, seed=1)
    cfg.loss = replace(cfg.loss, epochs=2)
    return workload, run, cfg


def test_a_passing_run_counts_its_examples_and_checksums(monkeypatch, tmp_path):
    workload, run, cfg = _tiny(monkeypatch, tmp_path, {"components_per_class": 1.0})
    first = workloads.execute(workload, run, cfg, None)
    again = workloads.execute(workload, run, cfg, first)
    assert first.failures == [] and again.failures == []
    assert again.sha256 == first.sha256
    # 3 sessions of 4 classes x 200 records, plus a 120-record memory in sessions 2 and 3
    assert first.examples == 2 * (3 * 800 + 2 * 120)
    assert (tmp_path / "runs" / "tiny" / run.label / "model.vmfb").is_file()


def test_broken_floor_and_changed_report_fail_the_run(monkeypatch, tmp_path):
    workload, run, cfg = _tiny(monkeypatch, tmp_path, {"avg_inc_acc": 101.0})
    first = workloads.execute(workload, run, cfg, None)
    assert len(first.failures) == 1 and "below its floor" in first.failures[0]
    other = replace(first, sha256="0" * 64)
    again = workloads.execute(workload, run, cfg, other)
    assert any("differ" in f for f in again.failures)


def test_a_raising_run_is_a_failure_not_an_exception(monkeypatch, tmp_path):
    workload, run, cfg = _tiny(monkeypatch, tmp_path, {})
    cfg.memory_budget = 0  # run_experiment_full validates the config and raises
    outcome = workloads.execute(workload, run, cfg, None)
    assert outcome.sha256 is None and outcome.failures[0].startswith("raised ConfigError")
