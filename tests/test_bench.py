"""Tests for metrics, run orchestration, config parsing, and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vmfcl
from vmfcl.backbone import BackboneParams
from vmfcl.bench import (
    RunConfig,
    accuracy,
    forgetting,
    load_run_config,
    purity,
    run_experiment,
    run_experiment_full,
)
from vmfcl.cli import main as cli_main
from vmfcl.config import parse_sections
from vmfcl.errors import ConfigError, PurityUnavailable
from vmfcl.mixture import ClassMixture, ModelBank, load_snapshot
from vmfcl.streams import ROLE_TEST, FeatureRecords, SynthConfig, read_stream
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import LossConfig

REPORT_KEYS = {
    "per_session_acc", "avg_inc_acc", "final_acc", "forgetting",
    "purity_per_session", "components_per_class", "seed", "config_echo",
}


def tiny_records(x, y, domains=None):
    n = len(y)
    if domains is None:
        domains = np.full(n, -1, np.int32)
    return FeatureRecords(
        np.arange(n, dtype=np.uint64), np.asarray(x, float), np.asarray(y),
        np.asarray(domains, np.int32), np.full(n, ROLE_TEST, np.uint8),
    )


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
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2)[:1]), 1: ClassMixture(1, np.eye(2)[1:])})
        recs = tiny_records(np.array([[5.0, 0.1], [0.1, 5.0]]), np.array([0, 1]))
        assert accuracy(bank, self.identity(2), recs) == 100.0

    def test_perfectly_wrong(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2)[:1]), 1: ClassMixture(1, np.eye(2)[1:])})
        recs = tiny_records(np.array([[5.0, 0.1], [0.1, 5.0]]), np.array([1, 0]))
        assert accuracy(bank, self.identity(2), recs) == 0.0

    def test_matches_hand_count(self):
        rng = np.random.default_rng(1)
        from vmfcl.vmf import normalize_rows

        bank = ModelBank(3, 16.0, {
            c: ClassMixture(c, normalize_rows(rng.standard_normal((2, 3)))) for c in range(3)
        })
        x = rng.standard_normal((60, 3))
        y = rng.integers(0, 3, size=60)
        recs = tiny_records(x, y)
        from vmfcl.backbone import forward
        from vmfcl.mixture import predict

        hits = sum(predict(bank, forward(self.identity(3), xi)) == yi for xi, yi in zip(x, y))
        assert accuracy(bank, self.identity(3), recs) == pytest.approx(100.0 * hits / 60)

    def test_empty_pool_rejected(self):
        bank = ModelBank(2, 16.0, {0: ClassMixture(0, np.eye(2)[:1])})
        with pytest.raises(ValueError):
            accuracy(bank, self.identity(2), FeatureRecords.empty(2))


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

    def test_unknown_domains_unavailable(self):
        with pytest.raises(PurityUnavailable):
            purity(np.array([0]), np.array([0]), np.array([-1]))


class TestRunExperiment:
    def test_single_session_avg_equals_final(self):
        cfg = tiny_cfg(split="NC", sessions=1, synth=SynthConfig(2, 1, 8, 30.0, 40, 10, seed=6))
        rep = run_experiment(cfg)
        assert rep.avg_inc_acc == rep.final_acc
        assert rep.forgetting is None

    def test_report_internal_consistency(self):
        rep = run_experiment(tiny_cfg())
        assert rep.avg_inc_acc == pytest.approx(float(np.mean(rep.per_session_acc)), abs=1e-12)
        assert all(0.0 <= a <= 100.0 for a in rep.per_session_acc)

    def test_byte_identical_reports_same_seed(self):
        a = run_experiment(tiny_cfg(seed=9)).to_json()
        b = run_experiment(tiny_cfg(seed=9)).to_json()
        assert a == b

    def test_different_seed_changes_report(self):
        a = run_experiment(tiny_cfg(seed=9)).to_json()
        b = run_experiment(tiny_cfg(seed=10)).to_json()
        assert a != b

    def test_replay_baseline_single_component_always(self):
        rep = run_experiment(tiny_cfg(method="replay_baseline"))
        for hist in rep.components_per_class_history:
            assert all(k == 1 for k in hist.values())

    def test_report_json_keys_present(self):
        rep = run_experiment(tiny_cfg())
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
        rep = run_experiment(cfg)
        assert rep.purity_per_session == [None]

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        rep = run_experiment(tiny_cfg(), out_dir=str(out))
        report_path = out / "report.json"
        assert report_path.is_file()
        assert json.loads(report_path.read_text())["avg_inc_acc"] == pytest.approx(rep.avg_inc_acc)
        log = (out / "train.log").read_text()
        assert "session=0" in log and "epoch=0" in log and "wall_clock_sec=" in log
        bank, layers = load_snapshot(out / "model.vmfb")
        assert bank.class_ids == [0, 1]
        assert layers is not None

    def test_pair_without_test_records_is_left_out_of_the_table(self, tmp_path):
        tr, te = data_files(tmp_path, SynthConfig(2, 2, 8, 30.0, 40, 10, min_angle_deg=60.0, seed=5),
                            lambda test: (test.y != 0) | (test.domain != 0))
        rep = run_experiment(tiny_cfg(synth=None, train_path=tr, test_path=te))
        assert not rep.incomplete and len(rep.acc_matrix) == 2
        assert sorted(rep.per_class_domain_acc[0]) == [1]
        assert sorted(rep.per_class_domain_acc[1]) == [0, 1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_incomplete_report_on_failure(self, tmp_path):
        from vmfcl.streams import generate_synthetic, write_stream

        train, test, _ = generate_synthetic(SynthConfig(2, 2, 8, 30.0, 30, 10, seed=8))
        train.x[5] = np.inf
        tr, te = tmp_path / "tr.vmfs", tmp_path / "te.vmfs"
        write_stream(tr, train)
        write_stream(te, test)
        cfg = tiny_cfg(synth=None, train_path=str(tr), test_path=str(te))
        out = tmp_path / "broken"
        with pytest.raises(Exception):
            run_experiment(cfg, out_dir=str(out))
        partial = json.loads((out / "report.json").read_text())
        assert partial["incomplete"] is True

    def test_validation_catches_bad_configs(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_cfg(method="other").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(split="XY").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(synth=None).validate()
        with pytest.raises(ConfigError):
            RunConfig(split="NC", synth=SynthConfig(2, 1, 8, 30.0, 10, 5)).validate()
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
        rep = run_experiment(cfg)
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
        with pytest.raises(ConfigError):
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
        for files in ([str(bad)], [good, str(bad)], [str(bad), good]):
            assert cli_main(["report", *files]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""  # nothing printed before the error
            assert "config error" in captured.err and f"{bad} is not a JSON object" in captured.err

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
        assert "kappa must fit" in capsys.readouterr().err
        assert not out.exists()

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

    def test_shipped_configs_parse(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in ("nd_gain.cfg", "ncd_purity.cfg"):
            cfg = load_run_config(os.path.join(root, name))
            assert cfg.loss.beta == 1.0
