"""Metrics, experiment orchestration and machine-readable run reports.

``run_experiment`` drives the full incremental protocol: train a session,
evaluate on everything seen so far (``seen_accuracies``, one pass over the
seen test records), rebuild the replay memory, repeat. The
``replay_baseline`` method pins every class to a single component and turns
off expansion, reduction and the intra-class/distillation/regularization
terms, leaving plain replay fine-tuning of the same architecture, so the
delta against ``domain_aware`` isolates the mixture machinery.

Report JSON is fully deterministic for a fixed config and seed: volatile
metadata (wall clock) goes to the text log instead.
"""

from __future__ import annotations

import json
import os
import time
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import config as cfgfile
from .backbone import BackboneParams, forward_batch, init_params
from .errors import ConfigError, PurityUnavailable
from .memory import MemoryBuffer, select_memory
from .mixture import ModelBank, predict_batch, save_snapshot
from .streams import (
    FeatureRecords,
    SynthConfig,
    concat_records,
    generate_synthetic,
    make_splits,
    read_stream,
)
from .structure import ReductionConfig
from .trainer import LossConfig, ModelState, TrainConfig, train_session

METHODS = ("domain_aware", "replay_baseline")
SPLITS = ("NC", "ND", "NCD")


def accuracy(bank: ModelBank, params: BackboneParams, records: FeatureRecords) -> float:
    """Percentage of records whose predicted class matches the label."""
    if len(records) == 0:
        raise ValueError("cannot score an empty pool")
    pred = predict_batch(bank, forward_batch(params, records.x))
    return 100.0 * float(np.mean(pred == records.y))


def forgetting(acc_matrix: list[list[float]]) -> float | None:
    """Mean drop on the previous session's test set after one more session.

    ``acc_matrix[i][j]`` is the accuracy of the model after session i on the
    test data introduced at session j (j <= i). Undefined (None) with fewer
    than two sessions.
    """
    n = len(acc_matrix)
    if n < 2:
        return None
    return float(
        np.mean([acc_matrix[i][i - 1] - acc_matrix[i - 1][i - 1] for i in range(1, n)])
    )


def purity(y: np.ndarray, z: np.ndarray, domains: np.ndarray) -> float:
    """Majority-domain fraction per component, size-weighted within each class,
    averaged over classes."""
    y = np.asarray(y)
    z = np.asarray(z)
    domains = np.asarray(domains)
    if np.any(domains < 0):
        raise PurityUnavailable("hidden domain labels are not available for every example")
    values = []
    for c in sorted(np.unique(y).tolist()):
        rows = np.flatnonzero(y == c)
        majority = 0
        for k in sorted(np.unique(z[rows]).tolist()):
            comp_domains = domains[rows[z[rows] == k]]
            majority += int(np.max(np.bincount(comp_domains)))
        values.append(majority / rows.size)
    return float(np.mean(values))


@dataclass
class RunConfig:
    """Everything a benchmark run depends on; echoed verbatim into the report.

    A config file sets each plain field from the [run] key of the same name,
    unless the field's metadata names another section or key, and each
    nested dataclass from its section in ``_SECTIONS``.
    """

    method: str = "domain_aware"
    split: str = "ND"
    sessions: int | None = None  # ND defaults to the grid's domain count
    memory_budget: int = 120
    kappa: float = 16.0
    seed: int = 1993
    hidden_dim: int = 64
    embed_dim: int | None = None  # None -> input dimension
    loss: LossConfig = field(default_factory=LossConfig)
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    m: int = field(default=30, metadata={"section": "structure"})
    synth: SynthConfig | None = None
    train_path: str | None = field(default=None, metadata={"section": "data", "key": "train"})
    test_path: str | None = field(default=None, metadata={"section": "data", "key": "test"})

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.memory_budget < 1:
            raise ConfigError("memory_budget must be positive")
        if self.m < 1:
            raise ConfigError("m must be at least 1")
        if not self.kappa >= 0 or self.hidden_dim < 0 or self.seed < 0:
            raise ConfigError(
                f"kappa, hidden_dim and seed must be nonnegative, got {self.kappa}, "
                f"{self.hidden_dim} and {self.seed}"
            )
        if self.kappa > float(np.finfo(np.float32).max):
            raise ConfigError(f"kappa must fit the snapshot's float32 field, got {self.kappa}")
        if self.embed_dim is not None and self.embed_dim < 2:
            raise ConfigError("embed_dim must be at least 2")
        file_source = self.train_path is not None or self.test_path is not None
        if (self.synth is None) == (not file_source):
            raise ConfigError("exactly one data source required: [synth] or [data]")
        if file_source:
            if self.train_path is None or self.test_path is None:
                raise ConfigError("[data] needs both train and test paths")
            for p in (self.train_path, self.test_path):
                if not os.path.isfile(p):
                    raise ConfigError(f"referenced file does not exist: {p}")
        if self.split != "ND" and self.sessions is None:
            raise ConfigError(f"{self.split} split requires an explicit session count")

    def echo(self) -> dict:
        """Every config key with its value, by section; [data] only without [synth]."""
        out: dict[str, dict] = {}
        for (section, key), (attr, f, _) in _KEYS.items():
            owner = self if attr is None else getattr(self, attr)
            if owner is not None and not (section == "data" and self.synth is not None):
                out.setdefault(section, {})[key] = getattr(owner, f.name)
        return out


# Config-file sections, each with the dataclass whose fields it sets and the
# RunConfig attribute holding that dataclass (None: RunConfig itself).
_SECTIONS = {
    "run": (None, RunConfig),
    "train": ("loss", LossConfig),
    "structure": ("reduction", ReductionConfig),
    "synth": ("synth", SynthConfig),
}


def _value_type(hint):
    """The type a field holds when it is set: ``X | None`` -> ``X``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


def _declare_keys() -> dict:
    """(section, file key) -> (RunConfig attribute, dataclass field, value type).

    A field's file key is its name and its section the one its dataclass
    fills, unless the field's metadata says otherwise.
    """
    keys = {}
    for section, (attr, cls) in _SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            kind = _value_type(hints[f.name])
            if not is_dataclass(kind):
                keys[(f.metadata.get("section", section), f.metadata.get("key", f.name))] = (attr, f, kind)
    return keys


_KEYS = _declare_keys()


def load_run_config(path) -> RunConfig:
    """Build a RunConfig from a config file; unknown keys are errors."""
    sections = cfgfile.parse_sections(path)
    cfgfile.check_schema(sections, _KEYS, path)
    if "synth" in sections and "data" in sections:
        raise ConfigError(f"{path}: [synth] and [data] are mutually exclusive")
    # keyword arguments of RunConfig (None) and of each dataclass whose section is present
    kwargs = {_SECTIONS[s][0]: {} for s in ("run", *sections) if s in _SECTIONS}
    for (section, key), (attr, f, kind) in _KEYS.items():
        if key in sections.get(section, ()):
            kwargs[attr][f.name] = cfgfile.coerce(section, key, sections[section][key], kind, path)
        elif attr in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: [{section}] is missing required key {key!r}")
    own = kwargs.pop(None)
    nested = {attr: cls(**kwargs[attr]) for attr, cls in _SECTIONS.values() if attr in kwargs}
    cfg = RunConfig(**own, **nested)
    cfg.validate()
    return cfg


@dataclass
class SessionReport:
    """Deterministic per-run metrics; ``to_dict`` is the JSON contract."""

    per_session_acc: list[float]
    avg_inc_acc: float
    final_acc: float
    forgetting: float | None
    purity_per_session: list[float | None]
    components_per_class: dict[int, int]
    components_per_class_history: list[dict[int, int]]
    per_class_domain_acc: dict[int, dict[int, float]]
    acc_matrix: list[list[float]]
    memory_class_counts: list[dict[int, int]]
    memory_component_counts: list[dict[int, list[int]]]
    seed: int
    session_seeds: list[int]
    config_echo: dict
    incomplete: bool = False

    def to_dict(self) -> dict:
        def keyed(d):
            return {str(k): v for k, v in d.items()}

        return {
            "per_session_acc": self.per_session_acc,
            "avg_inc_acc": self.avg_inc_acc,
            "final_acc": self.final_acc,
            "forgetting": self.forgetting,
            "purity_per_session": self.purity_per_session,
            "components_per_class": keyed(self.components_per_class),
            "components_per_class_history": [keyed(h) for h in self.components_per_class_history],
            "per_class_domain_acc": {str(c): keyed(v) for c, v in self.per_class_domain_acc.items()},
            "acc_matrix": self.acc_matrix,
            "memory_class_counts": [keyed(h) for h in self.memory_class_counts],
            "memory_component_counts": [keyed(h) for h in self.memory_component_counts],
            "seed": self.seed,
            "session_seeds": self.session_seeds,
            "config_echo": self.config_echo,
            "incomplete": self.incomplete,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class RunResult:
    """Report plus the live objects a caller may want to inspect or export."""

    report: SessionReport
    state: ModelState
    plan: object
    train_pool: FeatureRecords
    test_pool: FeatureRecords
    memory: MemoryBuffer


def _pair_codes(pool: FeatureRecords, pairs) -> np.ndarray:
    """Position in ``pairs`` of each record's (class, domain) pair; -1 where it is not listed."""
    codes = np.full(len(pool), -1, dtype=np.int64)
    for i, (c, z) in enumerate(pairs):
        codes[(pool.y == c) & (pool.domain == z)] = i
    return codes


def seen_accuracies(
    bank: ModelBank, params: BackboneParams, test_pool: FeatureRecords, sessions
) -> tuple[list[float], float, dict[int, dict[int, float]]]:
    """Accuracies on the test records of the (class, domain) pairs of ``sessions``.

    Returns the accuracy on each session's pairs (one ``acc_matrix`` row),
    on all of them, and on each pair that has test records. Every record is
    forwarded and predicted once. Each entry is 100 * hits / records of
    integer counts, so it equals ``accuracy`` on the same records bit for
    bit; a pair listed twice counts once.
    """
    pairs = sorted({p for s in sessions for p in s})
    codes = _pair_codes(test_pool, pairs)
    rows = np.flatnonzero(codes >= 0)
    pred = predict_batch(bank, forward_batch(params, test_pool.x[rows]))
    codes = codes[rows]
    totals = np.bincount(codes, minlength=len(pairs))
    hits = np.bincount(codes[pred == test_pool.y[rows]], minlength=len(pairs))

    def percent(idx) -> float:
        n = int(totals[idx].sum())
        if n == 0:
            raise ValueError("cannot score an empty pool")
        return 100.0 * (int(hits[idx].sum()) / n)

    index = {p: i for i, p in enumerate(pairs)}
    row = [percent([index[p] for p in set(s)]) for s in sessions]
    per_pair: dict[int, dict[int, float]] = {}
    for i, (c, z) in enumerate(pairs):
        if totals[i]:
            per_pair.setdefault(c, {})[z] = percent(i)
    return row, percent(slice(None)), per_pair


def run_experiment_full(cfg: RunConfig, out_dir=None) -> RunResult:
    """Execute all sessions of a run; optionally write report/log/model files.

    On an error mid-run a partial report flagged ``incomplete`` is written
    (when ``out_dir`` is given) before the error propagates.
    """
    cfg.validate()
    t_start = time.perf_counter()
    if cfg.synth is not None:
        train_pool, test_pool, _ = generate_synthetic(cfg.synth)
    else:
        train_pool = read_stream(cfg.train_path)
        test_pool = read_stream(cfg.test_path)
        if train_pool.dim != test_pool.dim:
            raise ConfigError("train and test streams disagree on dimension")
    input_dim = train_pool.dim
    embed_dim = cfg.embed_dim or input_dim

    if cfg.sessions is not None:
        n_sessions = cfg.sessions
    else:  # ND: one new domain per class per session
        first_class = int(np.min(train_pool.y))
        n_sessions = int(np.unique(train_pool.domain[train_pool.y == first_class]).size)

    master = np.random.default_rng(cfg.seed)
    seeds = master.integers(0, 2**63, size=2 + 2 * n_sessions).tolist()
    split_seed, init_seed = seeds[0], seeds[1]
    session_seeds = seeds[2 : 2 + n_sessions]
    memory_seeds = seeds[2 + n_sessions :]

    plan, sessions = make_splits(train_pool, cfg.split, n_sessions, split_seed)
    for t, pairs in enumerate(plan.sessions):
        if not np.any(_pair_codes(test_pool, pairs) >= 0):
            raise ConfigError(f"session {t} has no test records for any of its pairs {pairs}")

    baseline = cfg.method == "replay_baseline"
    loss_cfg = replace(cfg.loss, lambda_max=0.0, beta=0.0, eta=0.0) if baseline else cfg.loss

    state = ModelState(
        init_params(input_dim, embed_dim, cfg.hidden_dim, np.random.default_rng(init_seed)),
        ModelBank(embed_dim, cfg.kappa),
    )
    memory = MemoryBuffer.empty(cfg.memory_budget, input_dim)

    log = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log = open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8")

    per_session_acc: list[float] = []
    purity_per_session: list[float | None] = []
    acc_matrix: list[list[float]] = []
    comp_history: list[dict[int, int]] = []
    mem_class_counts: list[dict[int, int]] = []
    mem_comp_counts: list[dict[int, list[int]]] = []
    class_domain_acc: dict[int, dict[int, float]] = {}
    incomplete = True
    try:
        for t, session in enumerate(sessions):
            if log is not None:
                log.write(f"session={t} pairs={plan.sessions[t]} n={len(session)}\n")
            tcfg = TrainConfig(
                loss=loss_cfg,
                reduction=cfg.reduction,
                m=1 if baseline else cfg.m,
                expand_existing=not baseline,
                reduce_enabled=not baseline,
                seed=session_seeds[t],
            )
            state, z = train_session(state, session, memory, tcfg, log=log)

            data = session.records
            if len(memory) > 0:
                data = concat_records(session.records, memory.records)

            row, seen_acc, class_domain_acc = seen_accuracies(
                state.bank, state.params, test_pool, plan.sessions[: t + 1]
            )
            acc_matrix.append(row)
            per_session_acc.append(seen_acc)

            if np.any(data.domain < 0):
                purity_per_session.append(None)
            else:
                purity_per_session.append(purity(data.y, z, data.domain))

            memory = select_memory(
                state.bank, data, z, cfg.memory_budget, np.random.default_rng(memory_seeds[t])
            )
            comp_history.append(dict(zip(state.bank.class_ids, state.bank.sizes.tolist())))
            mem_class_counts.append(memory.class_counts())
            mem_comp_counts.append(memory.component_counts())
        incomplete = False
    finally:
        report = SessionReport(
            per_session_acc=per_session_acc,
            avg_inc_acc=float(np.mean(per_session_acc)) if per_session_acc else 0.0,
            final_acc=per_session_acc[-1] if per_session_acc else 0.0,
            forgetting=forgetting(acc_matrix),
            purity_per_session=purity_per_session,
            components_per_class=comp_history[-1] if comp_history else {},
            components_per_class_history=comp_history,
            per_class_domain_acc={} if incomplete else class_domain_acc,  # the last session's table
            acc_matrix=acc_matrix,
            memory_class_counts=mem_class_counts,
            memory_component_counts=mem_comp_counts,
            seed=cfg.seed,
            session_seeds=session_seeds,
            config_echo=cfg.echo(),
            incomplete=incomplete,
        )
        if log is not None:
            log.write(f"wall_clock_sec={time.perf_counter() - t_start:.3f}\n")
            log.close()
        if out_dir is not None:
            with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            if not incomplete:
                save_snapshot(os.path.join(out_dir, "model.vmfb"), state.bank, state.params.layers)

    return RunResult(report, state, plan, train_pool, test_pool, memory)


def run_experiment(cfg: RunConfig, out_dir=None) -> SessionReport:
    """Convenience wrapper returning only the report."""
    return run_experiment_full(cfg, out_dir=out_dir).report
