"""The benchmark's workloads: which protocol runs they make and how each is checked.

A workload is a fixed list of protocol runs, each a config file, a method
and whether it writes an output directory the way ``vmfcl run --out`` does.
The workload seed is applied as ``vmfcl run --seed`` applies it: it replaces
the ``[run]`` seed. ``nc-eval`` also draws its VMFS input files from the seed
during set-up, before anything is timed.

A protocol run fails when it raises, when its report says ``incomplete``,
when its report bytes differ from the first repetition of the same seed, or
when one of its quality floors is broken. The floors sit below every value
seen on the seeds tried (0-30 and a few large ones) and, in purity and
components per class, above what the replay baseline reaches on the same
data, so a change that leaves the mixture machinery idle (one component per
class, replay-level purity) fails the run instead of passing as a speed-up.
Quality metrics of a workload are means over its domain-aware runs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vmfcl.bench
import vmfcl.cli  # noqa: F401  (imported as `vmfcl run` imports it, so set-up time counts it)
from vmfcl.bench import load_run_config
from vmfcl.streams import generate_synthetic, make_splits, read_stream, write_stream

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class ProtocolRun:
    label: str
    config: str  # relative to the repository root
    method: str
    out_dir: bool  # write train.log, report.json and model.vmfb like `vmfcl run`
    floors: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[ProtocolRun, ...]
    vmfs_from_seed: bool = False  # run from VMFS files drawn from the workload seed


WORKLOADS = {
    w.name: w
    for w in (
        # The traffic users run today: both shipped configs, as `vmfcl run`
        # runs them. 4 classes in d=16 with no hidden layer, so the fixed cost
        # per batch dominates and per-class loops are short.
        Workload("shipped", (
            ProtocolRun("nd_gain.domain_aware", "configs/nd_gain.cfg", "domain_aware", True,
                        {"avg_inc_acc": 92.0, "purity_final": 0.92, "components_per_class": 2.0}),
            ProtocolRun("nd_gain.replay_baseline", "configs/nd_gain.cfg", "replay_baseline", True,
                        {"avg_inc_acc": 84.0}),
            ProtocolRun("ncd_purity.domain_aware", "configs/ncd_purity.cfg", "domain_aware", True,
                        {"avg_inc_acc": 93.0, "purity_final": 0.78, "components_per_class": 1.75}),
        )),
        # 24 classes with ~31 components each while training, a trainable
        # hidden layer and logging on; see the config header.
        Workload("nd-wide", (
            ProtocolRun("nd_wide.domain_aware", "perfbench/configs/nd_wide.cfg", "domain_aware", True,
                        {"avg_inc_acc": 95.5, "final_acc": 88.0, "purity_final": 0.85,
                         "components_per_class": 1.8}),
        )),
        # Library path from VMFS files, no output directory and so no log
        # recompute; evaluation-heavy. See the config header.
        Workload("nc-eval", (
            ProtocolRun("nc_eval.domain_aware", "perfbench/configs/nc_eval.cfg", "domain_aware", False,
                        {"avg_inc_acc": 99.0, "purity_final": 0.8, "components_per_class": 1.4}),
        ), vmfs_from_seed=True),
    )
}


def vmfs_paths(workload: Workload):
    if not workload.vmfs_from_seed:
        return None
    base = WORK / workload.name
    return base / "train.vmfs", base / "test.vmfs"


def write_inputs(workload: Workload, seed: int):
    """Draw the workload's VMFS files from the seed (harness set-up, untimed)."""
    paths = vmfs_paths(workload)
    if paths is None:
        return
    cfg = load_run_config(ROOT / workload.runs[0].config)
    cfg.synth.seed = seed
    train, test, _ = generate_synthetic(cfg.synth)
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    write_stream(paths[0], train)
    write_stream(paths[1], test)


def run_config(workload: Workload, run: ProtocolRun, seed: int):
    """The RunConfig `vmfcl run --seed SEED --method METHOD` would build."""
    cfg = load_run_config(ROOT / run.config)
    cfg.seed = seed
    cfg.method = run.method
    paths = vmfs_paths(workload)
    if paths is not None:
        cfg.synth = None
        cfg.train_path, cfg.test_path = str(paths[0]), str(paths[1])
    cfg.validate()
    return cfg


def set_up(workload: Workload, seed: int):
    """What a fresh process does before training: configs, data pools, splits."""
    for run in workload.runs:
        cfg = run_config(workload, run, seed)
        if cfg.synth is not None:
            train, _, _ = generate_synthetic(cfg.synth)
        else:
            train = read_stream(cfg.train_path)
            read_stream(cfg.test_path)
        sessions = cfg.sessions or cfg.synth.domains_per_class
        make_splits(train, cfg.split, sessions, cfg.seed)


def report_values(report: dict) -> dict[str, float]:
    """The quality numbers a user reads off one report."""
    comps = report["components_per_class"]
    purity = report["purity_per_session"][-1]
    return {
        "avg_inc_acc": report["avg_inc_acc"],
        "final_acc": report["final_acc"],
        "purity_final": float("nan") if purity is None else purity,  # nan breaks every floor
        "components_per_class": sum(comps.values()) / len(comps),
    }


def trained_examples(result, epochs: int) -> int:
    """Examples SGD processed: sum over sessions of epochs x (incoming + memory)."""
    pool = result.train_pool
    pairs, counts = np.unique(np.stack([pool.y, pool.domain]), axis=1, return_counts=True)
    size = {(int(c), int(z)): int(n) for (c, z), n in zip(pairs.T, counts)}
    memory = [0] + [sum(m.values()) for m in result.report.memory_class_counts[:-1]]
    incoming = [sum(size[p] for p in session) for session in result.plan.sessions]
    return epochs * (sum(incoming) + sum(memory))


@dataclass
class RunOutcome:
    label: str
    seconds: float
    examples: int
    sha256: str | None
    values: dict[str, float]
    failures: list[str]


def execute(workload: Workload, run: ProtocolRun, cfg, first: RunOutcome | None) -> RunOutcome:
    """One protocol run through the public entry point, timed and checked."""
    out = WORK / "runs" / workload.name / run.label if run.out_dir else None
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        # looked up at call time, so the traced run sees the wrapped function
        result = vmfcl.bench.run_experiment_full(cfg, out_dir=None if out is None else str(out))
    except Exception as e:  # noqa: BLE001 - a raising run is a counted failure
        return RunOutcome(run.label, time.perf_counter() - t0, 0, None, {},
                          [f"raised {type(e).__name__}: {e}"])
    seconds = time.perf_counter() - t0
    data = (out / "report.json").read_bytes() if out is not None else result.report.to_json().encode()
    report = json.loads(data)
    values = report_values(report)
    failures = []
    if report["incomplete"]:
        failures.append("report is incomplete")
    digest = hashlib.sha256(data).hexdigest()
    if first is not None and digest != first.sha256:
        failures.append("report bytes differ from repetition 1 of this seed")
    for key, floor in run.floors.items():
        if not values[key] >= floor:
            failures.append(f"{key}={values[key]:.4f} is below its floor {floor}")
    return RunOutcome(run.label, seconds, trained_examples(result, cfg.loss.epochs), digest, values, failures)


def summary(workload: Workload, outcomes: list[RunOutcome]) -> dict[str, float]:
    """Quality metrics of one repetition: means over its domain-aware runs, plus
    the domain-aware minus replay-baseline gap where a config runs as both."""
    values = {o.label: o.values for o in outcomes if o.values}
    da = [values[r.label] for r in workload.runs if r.method == "domain_aware" and r.label in values]
    out = {k: float(np.mean([v[k] for v in da])) for k in da[0]} if da else {}
    for rb in workload.runs:
        if rb.method == "replay_baseline":
            pair = next(r.label for r in workload.runs if r.config == rb.config and r.method == "domain_aware")
            if pair in values and rb.label in values:
                out["replay_gap_pts"] = values[pair]["avg_inc_acc"] - values[rb.label]["avg_inc_acc"]
    return out
