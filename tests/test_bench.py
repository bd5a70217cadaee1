"""Tests for metrics, run orchestration, config parsing, and the CLI."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import decode_snapshot, empty_records, forward_one, make_bank, make_records, predict_one

import vmfcl
from vmfcl.backbone import BackboneParams
from vmfcl.bench import (
    RunConfig,
    accuracy,
    forgetting,
    load_run_config,
    purity,
    run_experiment_full,
)
from vmfcl.cli import main as cli_main
from vmfcl.config import parse_sections
from vmfcl.errors import ConfigError, DegenerateFeature
from vmfcl.memory import select_memory
from vmfcl import bench, streams, trainer
from vmfcl.streams import SynthConfig, read_stream
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import LossConfig

REPORT_KEYS = {
    "per_session_acc", "avg_inc_acc", "final_acc", "forgetting",
    "purity_per_session", "components_per_class", "seed", "config_echo",
}


def data_files(tmp_path, synth, keep):
    """Train and test VMFS paths from ``synth``; the test file holds the records ``keep(test)`` selects."""
    from vmfcl.streams import generate_synthetic, write_stream

    train, test, _ = generate_synthetic(synth)
    write_stream(tmp_path / "tr.vmfs", train)
    write_stream(tmp_path / "te.vmfs", test.subset(keep(test)))
    return str(tmp_path / "tr.vmfs"), str(tmp_path / "te.vmfs")


def tiny_cfg(method="domain_aware", seed=1, **kw):
    defaults = dict(
        method=method,
        split="ND",
        memory_budget=24,
        seed=seed,
        hidden_dim=0,
        synth=SynthConfig(2, 2, 8, 30.0, 40, 10, min_angle_deg=60.0, seed=5),
        loss=LossConfig(epochs=4, batch_size=32, lr=0.05, backbone_lr=0.0),
        reduction=ReductionConfig(min_count=6),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestAccuracy:
    def identity(self, d):
        return BackboneParams([(np.eye(d), np.zeros(d))])

    def test_all_correct(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)[:1], 1: np.eye(2)[1:]})
        recs = make_records(np.array([[5.0, 0.1], [0.1, 5.0]]), np.array([0, 1]))
        assert accuracy(bank, self.identity(2), recs) == 100.0

    def test_perfectly_wrong(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)[:1], 1: np.eye(2)[1:]})
        recs = make_records(np.array([[5.0, 0.1], [0.1, 5.0]]), np.array([1, 0]))
        assert accuracy(bank, self.identity(2), recs) == 0.0

    def test_matches_hand_count(self):
        rng = np.random.default_rng(1)
        from vmfcl.vmf import normalize_rows

        bank = make_bank(3, 16.0, {
            c: normalize_rows(rng.standard_normal((2, 3))) for c in range(3)
        })
        x = rng.standard_normal((60, 3))
        y = rng.integers(0, 3, size=60)
        recs = make_records(x, y)

        hits = sum(predict_one(bank, forward_one(self.identity(3), xi)) == yi for xi, yi in zip(x, y))
        assert accuracy(bank, self.identity(3), recs) == pytest.approx(100.0 * hits / 60)

    def test_empty_pool_rejected(self):
        bank = make_bank(2, 16.0, {0: np.eye(2)[:1]})
        with pytest.raises(ValueError):
            accuracy(bank, self.identity(2), empty_records(2))


class TestForgetting:
    def test_no_forgetting_is_zero(self):
        m = [[80.0], [80.0, 75.0], [80.0, 75.0, 70.0]]
        assert forgetting(m) == 0.0

    def test_direct_formula(self):
        m = [[90.0], [80.0, 85.0], [0.0, 70.0, 60.0]]
        assert forgetting(m) == pytest.approx(((80 - 90) + (70 - 85)) / 2)

    def test_two_sessions(self):
        assert forgetting([[88.0], [88.0, 91.0]]) == 0.0

    def test_single_session_undefined(self):
        assert forgetting([[97.0]]) is None


class TestPurity:
    def test_single_domain_components(self):
        y = np.array([0, 0, 1, 1])
        z = np.array([0, 0, 0, 1])
        dom = np.array([2, 2, 0, 1])
        assert purity(y, z, dom) == 1.0

    def test_even_split_component(self):
        y = np.zeros(4, dtype=int)
        z = np.zeros(4, dtype=int)
        dom = np.array([0, 0, 1, 1])
        assert purity(y, z, dom) == 0.5

    def test_size_weighting_within_class(self):
        y = np.zeros(6, dtype=int)
        z = np.array([0, 0, 0, 0, 1, 1])
        dom = np.array([0, 0, 0, 1, 2, 2])
        assert purity(y, z, dom) == pytest.approx((3 + 2) / 6)

    def test_invariant_to_component_relabeling(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 3, size=100)
        z = rng.integers(0, 4, size=100)
        dom = rng.integers(0, 3, size=100).astype(np.int32)
        perm = rng.permutation(4)
        assert purity(y, z, dom) == pytest.approx(purity(y, perm[z], dom))

    def test_large_domain_labels_cost_what_small_ones_do(self):
        # counted per distinct label, so a label of 10**7 or 2**31 - 1 allocates nothing by its value
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=300)
        z = rng.integers(0, 4, size=300)
        dom = rng.integers(0, 3, size=300).astype(np.int32)
        want = np.mean([sum(np.bincount(dom[(y == c) & (z == k)]).max() for k in np.unique(z[y == c]))
                        / np.sum(y == c) for c in np.unique(y)])
        assert purity(y, z, dom) == want
        for far in (dom + 10**7, np.where(dom == 2, 2**31 - 1, dom).astype(np.int32)):
            tracemalloc.start()
            try:
                got = purity(y, z, far)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 2**20

    def test_unknown_domains_unavailable(self):
        assert purity(np.array([0, 0]), np.array([0, 0]), np.array([1, -1])) is None

    def test_unequal_lengths_rejected(self):
        one, two = np.zeros(1, int), np.zeros(2, int)
        for args in ((two, one, one), (one, two, one), (one, one, two)):
            with pytest.raises(ValueError, match="one length"):
                purity(*args)

    def test_empty_input_rejected(self):
        empty = np.zeros(0, int)
        with pytest.raises(ValueError, match="nonempty"):
            purity(empty, empty, empty)


class TestRunExperiment:
    def test_single_session_avg_equals_final(self):
        cfg = tiny_cfg(split="NC", sessions=1, synth=SynthConfig(2, 1, 8, 30.0, 40, 10, seed=6))
        rep = run_experiment_full(cfg).report
        assert rep.avg_inc_acc == rep.final_acc
        assert rep.forgetting is None

    def test_report_internal_consistency(self):
        rep = run_experiment_full(tiny_cfg()).report
        assert rep.avg_inc_acc == pytest.approx(float(np.mean(rep.per_session_acc)), abs=1e-12)
        assert all(0.0 <= a <= 100.0 for a in rep.per_session_acc)

    def test_byte_identical_reports_same_seed(self):
        a = run_experiment_full(tiny_cfg(seed=9)).report.to_json()
        b = run_experiment_full(tiny_cfg(seed=9)).report.to_json()
        assert a == b

    def test_different_seed_changes_report(self):
        a = run_experiment_full(tiny_cfg(seed=9)).report.to_json()
        b = run_experiment_full(tiny_cfg(seed=10)).report.to_json()
        assert a != b

    def test_replay_baseline_single_component_always(self):
        rep = run_experiment_full(tiny_cfg(method="replay_baseline")).report
        for hist in rep.components_per_class_history:
            assert all(k == 1 for k in hist.values())

    def test_report_json_keys_present(self):
        rep = run_experiment_full(tiny_cfg()).report
        assert REPORT_KEYS <= set(rep.to_dict())

    def test_purity_null_when_domains_unknown(self, tmp_path):
        from vmfcl.streams import generate_synthetic, write_stream

        train, test, _ = generate_synthetic(SynthConfig(2, 1, 8, 30.0, 30, 10, seed=7))
        train.domain[:] = -1
        test.domain[:] = -1
        tr, te = tmp_path / "tr.vmfs", tmp_path / "te.vmfs"
        write_stream(tr, train)
        write_stream(te, test)
        cfg = tiny_cfg(split="NC", sessions=1, synth=None, train_path=str(tr), test_path=str(te))
        rep = run_experiment_full(cfg).report
        assert rep.purity_per_session == [None]

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment_full(tiny_cfg(), out_dir=str(out))
        report_path = out / "report.json"
        assert report_path.is_file()
        assert json.loads(report_path.read_text())["avg_inc_acc"] == pytest.approx(result.report.avg_inc_acc)
        log = (out / "train.log").read_text()
        assert "session=0" in log and "epoch=0" in log and "wall_clock_sec=" in log
        snap = decode_snapshot((out / "model.vmfb").read_bytes())
        bank = result.state.bank
        assert list(snap.means) == bank.class_ids == [0, 1]
        np.testing.assert_array_equal(np.vstack(list(snap.means.values())), bank.means.astype("<f4"))
        assert len(snap.layers) == len(result.state.params.layers)
        for (w, b), (sw, sb) in zip(result.state.params.layers, snap.layers):
            np.testing.assert_array_equal(sw, w.astype("<f4"))
            np.testing.assert_array_equal(sb, b.astype("<f4"))

    def test_pair_without_test_records_is_left_out_of_the_table(self, tmp_path):
        tr, te = data_files(tmp_path, SynthConfig(2, 2, 8, 30.0, 40, 10, min_angle_deg=60.0, seed=5),
                            lambda test: (test.y != 0) | (test.domain != 0))
        rep = run_experiment_full(tiny_cfg(synth=None, train_path=tr, test_path=te)).report
        assert not rep.incomplete and len(rep.acc_matrix) == 2
        assert sorted(rep.per_class_domain_acc[0]) == [1]
        assert sorted(rep.per_class_domain_acc[1]) == [0, 1]

    def test_a_run_from_files_equals_the_run_from_their_pools_in_float64(self, tmp_path, monkeypatch):
        # a read keeps the files' float32, and widening float32 to float64 is exact
        tr, te = data_files(tmp_path, SynthConfig(3, 2, 12, 40.0, 60, 15, min_angle_deg=50.0, seed=13),
                            lambda test: slice(None))
        cfg = tiny_cfg(split="NCD", sessions=3, synth=None, train_path=tr, test_path=te, hidden_dim=6,
                       loss=LossConfig(epochs=3, batch_size=32, lr=0.05))
        assert run_experiment_full(cfg, out_dir=str(tmp_path / "f32")).train_pool.x.dtype == np.float32

        def widened(path):
            records = read_stream(path)
            records.x = records.x.astype(np.float64)
            return records

        monkeypatch.setattr(bench, "read_stream", widened)
        assert run_experiment_full(cfg, out_dir=str(tmp_path / "f64")).train_pool.x.dtype == np.float64
        for name in ("report.json", "model.vmfb"):
            assert (tmp_path / "f32" / name).read_bytes() == (tmp_path / "f64" / name).read_bytes(), name

    def test_a_run_from_files_holds_each_pool_once_in_float32(self, tmp_path):
        # 10 sessions of 2,000 records in d=128: a pool's features outweigh a session's scratch
        # and an evaluation block's, and the test pool is as large as the train pool
        d = 128
        tr, te = data_files(tmp_path, SynthConfig(20, 1, d, 300.0, 1000, 1000, min_angle_deg=40.0, seed=3),
                            lambda test: slice(None))
        cfg = RunConfig(split="NC", sessions=10, memory_budget=80, hidden_dim=0, embed_dim=8, m=4,
                        loss=LossConfig(epochs=1), train_path=tr, test_path=te)
        tracemalloc.start()
        try:
            result = run_experiment_full(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(result.train_pool)
        assert len(result.test_pool) == n
        at_rest = 2 * n * (8 + 8 + 4 + 1 + 4 * d)  # each pool once: its integer columns and float32 features
        # a float64 copy of either pool, or a second copy of the train pool, is at least 4 * d * n more
        assert peak < at_rest + 4 * d * n

    @pytest.mark.parametrize("split, sessions", [("ND", None), ("NCD", 3)])
    def test_each_pool_is_indexed_once(self, monkeypatch, split, sessions):
        calls, index = [], streams.pair_index

        def counted(pool):
            calls.append(len(pool))
            return index(pool)

        monkeypatch.setattr(bench, "pair_index", counted)  # the test pool's index
        monkeypatch.setattr(streams, "pair_index", counted)  # make_splits's, on the train pool
        cfg = tiny_cfg(split=split, sessions=sessions, loss=LossConfig(epochs=1, batch_size=32, lr=0.05))
        result = run_experiment_full(cfg)
        assert sorted(calls) == sorted([len(result.train_pool), len(result.test_pool)])

    @pytest.mark.parametrize("split, sessions", [("ND", None), ("NC", 2), ("NCD", 3)])
    def test_session_seeds_follow_the_split_and_init_seeds(self, split, sessions):
        # the layout of one draw of 2 + 2n values: split, init, n session seeds, n memory seeds
        cfg = tiny_cfg(split=split, sessions=sessions, seed=1993, loss=LossConfig(epochs=1, batch_size=32, lr=0.05))
        rep = run_experiment_full(cfg).report
        n = len(rep.acc_matrix)
        assert n == (sessions or 2)
        assert rep.session_seeds == np.random.default_rng(1993).integers(0, 2**63, size=2 + 2 * n).tolist()[2 : 2 + n]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_incomplete_report_on_failure(self, tmp_path):
        from vmfcl.streams import generate_synthetic, write_stream

        train, test, _ = generate_synthetic(SynthConfig(2, 2, 8, 30.0, 30, 10, seed=8))
        tr, te = tmp_path / "tr.vmfs", tmp_path / "te.vmfs"
        write_stream(tr, train)
        write_stream(te, test)
        # valid files; the first step throws the means off the float range
        cfg = tiny_cfg(synth=None, train_path=str(tr), test_path=str(te),
                       loss=LossConfig(epochs=4, batch_size=32, lr=1e300, backbone_lr=0.0))
        out = tmp_path / "broken"
        with np.errstate(over="ignore"), pytest.raises(DegenerateFeature):
            run_experiment_full(cfg, out_dir=str(out))
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"] is True
        # a report that cannot be written does not replace the run's own error
        (out / "report.json").unlink()
        (out / "report.json").symlink_to(tmp_path / "nonexistent" / "x")
        with np.errstate(over="ignore"), pytest.raises(DegenerateFeature):
            run_experiment_full(cfg, out_dir=str(out))

    @pytest.mark.parametrize("method, split, sessions", [
        ("domain_aware", "ND", None), ("domain_aware", "NCD", 3), ("replay_baseline", "NCD", 3),
    ])
    def test_each_session_builds_one_training_set(self, monkeypatch, method, split, sessions):
        # the records train_session gets are the very object purity and select_memory read
        calls, concats = [], []
        train_session, purity, select_memory = bench.train_session, bench.purity, bench.select_memory

        def train(state, data, expand, **settings):
            calls.append({"data": data, "expand": np.asarray(expand).tolist(), "known": state.bank.class_ids})
            return train_session(state, data, expand, **settings)

        def score(y, z, domains):
            calls[-1]["purity_y"] = y
            return purity(y, z, domains)

        def select(bank, data, *args):
            calls[-1]["selected_from"] = data
            return select_memory(bank, data, *args)

        def concat(*parts):
            concats.append(None)
            return streams.concat_records(*parts)

        for name, fn in (("train_session", train), ("purity", score), ("select_memory", select),
                         ("concat_records", concat)):
            monkeypatch.setattr(bench, name, fn)
        result = run_experiment_full(tiny_cfg(method=method, split=split, sessions=sessions))
        plan = result.plan.sessions
        assert len(calls) == len(plan) and len(concats) == len(plan) - 1  # the first has no memory
        fewer = False
        for call, pairs in zip(calls, plan):
            assert call["purity_y"] is call["data"].y and call["selected_from"] is call["data"]
            classes = sorted({c for c, _ in pairs})
            if method == "replay_baseline":  # only the classes the bank lacks get their component
                assert call["expand"] == [c for c in classes if c not in call["known"]]
                fewer |= len(call["expand"]) < len(classes)
            else:
                assert call["expand"] == classes
        assert fewer or method == "domain_aware"  # some baseline session brought a known class

    def test_a_partial_train_log_is_a_prefix_of_the_full_one(self, tmp_path, monkeypatch):
        # events are written as they happen: a run that raises mid-session keeps every line before it
        cfg = tiny_cfg()  # ND, 2 sessions of 4 epochs, one reg_loss call per epoch
        run_experiment_full(cfg, out_dir=str(tmp_path / "full"))
        full = (tmp_path / "full" / "train.log").read_text().splitlines()
        reg_loss, calls = trainer.reg_loss, []

        def reg_then_raise(bank):
            calls.append(None)
            if len(calls) == 6:  # epoch 1 of the second session
                raise RuntimeError("epoch log failed")
            return reg_loss(bank)

        monkeypatch.setattr(trainer, "reg_loss", reg_then_raise)
        with pytest.raises(RuntimeError, match="epoch log failed"):
            run_experiment_full(cfg, out_dir=str(tmp_path / "partial"))
        partial = (tmp_path / "partial" / "train.log").read_text().splitlines()
        timed = [i for i, line in enumerate(full + partial) if line.startswith("wall_clock_sec=")]
        assert timed == [len(full) - 1, len(full) + len(partial) - 1]  # each file's last line
        assert partial[:-1] == full[: len(partial) - 1]
        assert partial[-2].startswith("epoch=0 ") and sum(l.startswith("session=") for l in partial) == 2

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_partial_report_when_memory_selection_raises(self, tmp_path, monkeypatch, failing_call):
        calls = []

        def select_then_raise(*args):
            calls.append(None)
            if len(calls) == failing_call:
                raise RuntimeError("memory selection failed")
            return select_memory(*args)

        monkeypatch.setattr(bench, "select_memory", select_then_raise)
        out = tmp_path / "aborted"
        with pytest.raises(RuntimeError, match="memory selection failed"):
            run_experiment_full(tiny_cfg(), out_dir=str(out))  # ND, 2 sessions
        rep = json.loads((out / "report.json").read_text())
        assert rep["incomplete"] is True and rep["per_class_domain_acc"] == {}
        assert not (out / "model.vmfb").exists()
        # the failing session is scored before its memory is selected
        for key in ("per_session_acc", "acc_matrix", "purity_per_session"):
            assert len(rep[key]) == failing_call, key
        for key in ("components_per_class_history", "memory_class_counts", "memory_component_counts"):
            assert len(rep[key]) == failing_call - 1, key
        assert rep["avg_inc_acc"] == float(np.mean(rep["per_session_acc"]))
        assert rep["final_acc"] == rep["per_session_acc"][-1]
        assert rep["forgetting"] == forgetting(rep["acc_matrix"])
        history = rep["components_per_class_history"]
        assert rep["components_per_class"] == (history[-1] if history else {})

    def test_validation_catches_bad_configs(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_cfg(method="other").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(split="XY").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(synth=None).validate()
        # the session count is make_splits's rule, checked when the run starts
        no_count = RunConfig(split="NC", synth=SynthConfig(2, 1, 8, 30.0, 10, 5))
        no_count.validate()
        with pytest.raises(ConfigError, match="NC split requires an explicit session count"):
            run_experiment_full(no_count)
        cfg = tiny_cfg(synth=None, train_path=str(tmp_path / "absent.vmfs"),
                       test_path=str(tmp_path / "absent2.vmfs"))
        with pytest.raises(ConfigError):
            cfg.validate()
        for section, key, value in (
            ("train", "backbone_lr", "-1"), ("run", "embed_dim", "0"), ("run", "kappa", "-16"),
            ("run", "hidden_dim", "-3"), ("run", "seed", "-1"), ("synth", "seed", "-1"),
        ):
            path = tmp_path / f"{section}_{key}.cfg"
            path.write_text(config_with(section, key, "2"))
            load_run_config(path)  # an in-range value loads
            path.write_text(config_with(section, key, value))
            with pytest.raises(ConfigError, match=key):
                load_run_config(path)

    @pytest.mark.parametrize(
        "section,name,value",
        [("loss", "batch_size", 0), ("reduction", "delta", 5.0), ("synth", "min_angle_deg", -30.0)],
    )
    def test_validate_rechecks_every_section(self, section, name, value):
        # a section changed after it was built is checked again, before training
        cfg = load_run_config(os.path.join(os.path.dirname(__file__), "..", "configs", "nd_gain.cfg"))
        setattr(getattr(cfg, section), name, value)
        with pytest.raises(ConfigError, match=f"{name} must lie in"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"{name} must lie in"):
            run_experiment_full(cfg)

    @pytest.mark.parametrize("angle", ["200", "-30"])
    def test_min_angle_beyond_a_half_turn_or_negative_rejected(self, tmp_path, angle):
        path = tmp_path / "angle.cfg"
        for edge in ("0", "180"):
            path.write_text(config_with("synth", "min_angle_deg", edge))
            load_run_config(path)
        path.write_text(config_with("synth", "min_angle_deg", angle))
        with pytest.raises(ConfigError, match=r"min_angle_deg must lie in \[0, 180\]"):
            load_run_config(path)
        with pytest.raises(ConfigError, match=r"min_angle_deg must lie in \[0, 180\]"):
            SynthConfig(2, 2, 8, 30.0, 40, 10, min_angle_deg=float(angle))


CONFIG_TEXT = """
# comment line
[run]
method = domain_aware
split = ND
memory_budget = 24
seed = 4
hidden_dim = 0

[synth]
classes = 2
domains_per_class = 2
dim = 8
kappa_true = 30.0
train_per_pair = 40
test_per_pair = 10
min_angle_deg = 60
seed = 5

[train]
epochs = 4
batch_size = 32
lr = 0.05
backbone_lr = 0.0

[structure]
m = 30
delta = 0.7
min_count = 6
"""


def config_with(section, key, value):
    """CONFIG_TEXT with ``key = value`` in [section], replacing any value it had."""
    head, sep, rest = CONFIG_TEXT.partition(f"[{section}]\n")
    body, nxt, tail = rest.partition("\n[")
    body = "".join(line + "\n" for line in body.splitlines() if line.partition("=")[0].strip() != key)
    return f"{head}{sep}{key} = {value}\n{body}{nxt}{tail}"


class TestConfigFiles:
    def test_parse_and_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = load_run_config(path)
        assert cfg.loss.epochs == 4
        assert cfg.reduction.min_count == 6
        assert cfg.synth.num_classes == 2
        rep = run_experiment_full(cfg).report
        assert len(rep.per_session_acc) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmethod = domain_aware\nturbo = yes\n")
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert "turbo" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[wat]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("[run]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            parse_sections(path)

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "typ.cfg"
        path.write_text("[run]\nseed = soon\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section,key", [("synth", "kappa_true"), ("train", "lr"), ("run", "kappa"), ("structure", "delta")]
    )
    def test_nonfinite_float_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(config_with(section, key, "1.5"))
        load_run_config(path)  # a finite value loads
        path.write_text(config_with(section, key, value))
        with pytest.raises(ConfigError, match=key):
            load_run_config(path)

    def test_key_outside_section_rejected(self, tmp_path):
        path = tmp_path / "loose.cfg"
        path.write_text("seed = 1\n")
        with pytest.raises(ConfigError):
            parse_sections(path)

    def test_data_and_synth_mutually_exclusive(self, tmp_path):
        path = tmp_path / "both.cfg"
        path.write_text(CONFIG_TEXT + "\n[data]\ntrain = a\ntest = b\n")
        with pytest.raises(ConfigError, match="exactly one data source"):
            load_run_config(path)

    def test_config_echo_reflects_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        echo = load_run_config(path).echo()
        assert echo["train"]["beta"] == 1.0
        assert echo["train"]["epochs"] == 4
        assert echo["structure"]["m"] == 30
        assert echo["synth"]["dim"] == 8


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        return str(path)

    def test_synth_then_run_from_files(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "data")
        assert cli_main(["synth", "--config", cfg, "--out", out]) == 0
        train = read_stream(os.path.join(out, "train.vmfs"))
        assert len(train) == 2 * 2 * 40

        file_cfg = tmp_path / "files.cfg"
        file_cfg.write_text(
            CONFIG_TEXT.replace("[synth]", "[unused_synth]")
            .replace("""[unused_synth]
classes = 2
domains_per_class = 2
dim = 8
kappa_true = 30.0
train_per_pair = 40
test_per_pair = 10
min_angle_deg = 60
seed = 5
""", f"""[data]
train = {out}/train.vmfs
test = {out}/test.vmfs
""")
        )
        run_out = str(tmp_path / "run_out")
        assert cli_main(["run", "--config", str(file_cfg), "--out", run_out]) == 0
        report = json.loads((tmp_path / "run_out" / "report.json").read_text())
        assert "avg_inc_acc" in report

    def test_run_and_report(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli_main(["run", "--config", cfg, "--out", out_a]) == 0
        assert cli_main(["run", "--config", cfg, "--seed", "11", "--method",
                         "replay_baseline", "--out", out_b]) == 0
        rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep_b["seed"] == 11
        assert rep_b["config_echo"]["run"]["method"] == "replay_baseline"
        assert cli_main(["report", os.path.join(out_a, "report.json")]) == 0
        assert cli_main(["report", os.path.join(out_a, "report.json"),
                         os.path.join(out_b, "report.json")]) == 0
        shown = capsys.readouterr().out
        assert "avg_inc_acc" in shown

    def test_report_of_a_json_non_object_is_a_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        good = str(tmp_path / "a" / "report.json")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]\n")
        not_utf8 = tmp_path / "latin.json"
        not_utf8.write_bytes(b'\xff\xfe{"a": 1}')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for path, message in ((bad, "is not a JSON object"), (not_utf8, "cannot read report"),
                              (deep, "cannot read report")):
            for files in ([str(path)], [good, str(path)], [str(path), good]):
                assert cli_main(["report", *files]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""  # nothing printed before the error
                assert "config error" in captured.err and str(path) in captured.err and message in captured.err

    def test_export_embeddings(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "exp")
        assert cli_main(["export-embeddings", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "exp" / "embeddings.csv").read_text().strip().splitlines()
        assert lines[0].startswith("example_id,class,domain,e0")
        assert len(lines) == 1 + 2 * 2 * 10

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nmystery = 1\n")
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_out_of_range_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("run", "seed", "-1"))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_kappa_beyond_the_snapshot_float32_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("run", "kappa", "1e300"))
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert "kappa must lie in [0, 3.4028234663852886e+38]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kappa_true", ["1e12", "1e200"])
    def test_synth_kappa_beyond_the_sampler_exit_code(self, tmp_path, capsys, kappa_true):
        # the sampler's envelope constants round away (1e12) or overflow (1e200)
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("synth", "kappa_true", kappa_true))
        assert cli_main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "cannot sample a vMF" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        missing = str(tmp_path / "no.cfg")
        code = cli_main(["run", "--config", missing, "--out", str(tmp_path / "x")])
        assert code == 1  # an unreadable config file is a config error

    def test_synth_session_without_test_records_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "no_test.cfg"
        bad.write_text(config_with("synth", "test_per_pair", "0"))
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "session 0 has no test records" in err
        assert not (out / "report.json").exists()  # rejected before training

    def test_data_session_without_test_records_exit_code(self, tmp_path, capsys):
        tr, te = data_files(tmp_path, SynthConfig(2, 1, 8, 30.0, 30, 10, seed=7),
                            lambda test: test.y != 1)
        path = tmp_path / "data.cfg"
        path.write_text(f"[run]\nsplit = NC\nsessions = 2\n\n[data]\ntrain = {tr}\ntest = {te}\n")
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "has no test records" in err and "[(1, 0)]" in err
        assert not (out / "report.json").exists()

    def test_nc_without_a_session_count_fails_the_run_but_not_synth(self, tmp_path, capsys):
        # make_splits alone decides the session count, and synth never reads it
        path = tmp_path / "nc.cfg"
        path.write_text(config_with("run", "split", "NC"))  # CONFIG_TEXT sets no sessions
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "NC split requires an explicit session count" in err
        assert not out.exists()  # rejected before the out dir is made
        assert cli_main(["synth", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "train.vmfs").is_file() and (tmp_path / "s" / "test.vmfs").is_file()

    @pytest.mark.parametrize("sessions", ["0", "-1", "-3"])
    def test_session_count_below_one_exit_code(self, tmp_path, capsys, sessions):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("run", "sessions", sessions))
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert "sessions must lie in [1, inf)" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_budget_beyond_int64_exit_code(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(config_with("run", "memory_budget", str(2**63 - 1)))
        load_run_config(good)  # the largest int64 still validates
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("run", "memory_budget", str(10**20)))
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "memory_budget must lie in" in err
        log = out / "train.log"
        assert "epoch=" not in (log.read_text() if log.exists() else "")  # rejected before training

    def test_config_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(CONFIG_TEXT.replace("seed = 4", "seed = 4\xff").encode("latin-1"))
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "not valid UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("sessions", ["5", "100000000000000000000"])
    def test_more_sessions_than_pairs_exit_code(self, tmp_path, capsys, sessions):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with("run", "sessions", sessions))  # 2 classes x 2 domains
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{sessions} sessions" in err and "4 (class, domain) pairs" in err
        assert not out.exists()

    @pytest.mark.parametrize("dim, embed_dim, code", [(0, None, 1), (1, None, 1), (1, 2, 0)])
    def test_input_and_embedding_dims_the_model_cannot_use_exit_code(self, tmp_path, capsys, dim, embed_dim, code):
        from vmfcl.streams import write_stream

        y = np.repeat([0, 1], 16)
        x = np.where(y == 0, 1.0, -1.0)[:, None][:, :dim]  # the 0-sphere, or no coordinates at all
        tr, te = tmp_path / "tr.vmfs", tmp_path / "te.vmfs"
        for path in (tr, te):
            write_stream(path, make_records(x, y, 0))
        embed = "" if embed_dim is None else f"embed_dim = {embed_dim}\n"
        path = tmp_path / "data.cfg"
        path.write_text(
            f"[run]\nsplit = NC\nsessions = 2\nhidden_dim = 0\n{embed}\n"
            f"[train]\nepochs = 2\nbatch_size = 16\n\n[data]\ntrain = {tr}\ntest = {te}\n"
        )
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert "config error" in err and f"got {dim} and {dim}" in err
            assert not (out / "train.log").exists()  # rejected before any output is opened
        else:
            assert json.loads((out / "report.json").read_text())["incomplete"] is False

    def test_data_train_stream_without_records_exit_code(self, tmp_path, capsys):
        from vmfcl.streams import write_stream

        tr, te = data_files(tmp_path, SynthConfig(2, 2, 8, 30.0, 30, 10, seed=7), lambda test: test.y >= 0)
        write_stream(tr, read_stream(tr).subset(slice(0, 0)))
        path = tmp_path / "data.cfg"
        path.write_text(f"[run]\nsplit = ND\n\n[data]\ntrain = {tr}\ntest = {te}\n")
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "has no records" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [
        ("run", "report.json"), ("run", "model.vmfb"), ("export-embeddings", "embeddings.csv"),
    ])
    def test_output_file_that_is_a_directory_exit_code(self, tmp_path, capsys, command, name):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write {out / name}" in err
        log = out / "train.log"
        assert "epoch=" not in (log.read_text() if log.exists() else "")  # rejected before training
        # a dangling symlink is found only when the file is written, after the run
        dangling = tmp_path / "dangling"
        dangling.mkdir()
        (dangling / name).symlink_to(tmp_path / "nonexistent" / "x")
        assert cli_main([command, "--config", cfg, "--out", str(dangling)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write {dangling / name}" in err

    @pytest.mark.parametrize("command", ["synth", "run", "export-embeddings"])
    def test_out_that_is_an_existing_file_exit_code(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "afile"
        out.write_text("kept\n")
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write the output directory {out}" in err
        assert out.read_text() == "kept\n"

    def test_python_m_vmfcl_entry_point(self):
        src = os.path.dirname(os.path.dirname(vmfcl.__file__))
        done = subprocess.run([sys.executable, "-m", "vmfcl", "run", "--help"], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert done.returncode == 0
        assert "--config" in done.stdout

    def test_outputs_identical_across_blas_thread_counts(self, tmp_path):
        # a BLAS may split a product differently over threads; the outputs must not change
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", "nd_gain.cfg")) as fh:
            text = fh.read()
        assert "epochs = 30\n" in text
        cfg = tmp_path / "nd_gain.cfg"
        cfg.write_text(text.replace("epochs = 30\n", "epochs = 3\n"))
        src = os.path.dirname(os.path.dirname(vmfcl.__file__))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "vmfcl.cli", "run", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, capture_output=True, timeout=300)
            outs.append(out)
        for name in ("report.json", "model.vmfb"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["nd_gain.cfg", "ncd_purity.cfg"])
    def test_config_with_a_byte_order_mark_loads_as_without(self, tmp_path, name):
        plain = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        with_bom = tmp_path / name
        with open(plain, "rb") as fh:
            with_bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert load_run_config(str(with_bom)) == load_run_config(plain)

    def test_a_run_builds_no_class_mixture(self, monkeypatch):
        import vmfcl.mixture as mx

        built = []

        class Counted(mx.ClassMixture):
            def __init__(self, means):
                built.append(len(means))
                super().__init__(means)

        monkeypatch.setattr(mx, "ClassMixture", Counted)
        cfg = load_run_config(os.path.join(os.path.dirname(__file__), "..", "configs", "nd_gain.cfg"))
        cfg.loss = replace(cfg.loss, epochs=2)
        result = run_experiment_full(cfg)
        assert len(result.report.per_session_acc) == 3
        assert built == []
        assert list(result.state.bank.mixtures) == result.state.bank.class_ids
        assert built == result.state.bank.sizes.tolist()  # it counts

    def test_shipped_configs_parse(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in ("nd_gain.cfg", "ncd_purity.cfg"):
            cfg = load_run_config(os.path.join(root, name))
            assert cfg.loss.beta == 1.0
