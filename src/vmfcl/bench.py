"""Metrics, experiment orchestration and machine-readable run reports.

``run_experiment_full`` drives the full incremental protocol: train a session,
evaluate on everything seen so far (``seen_accuracies``, which scores each
seen test record once, in blocks of ``PREDICT_BLOCK_ROWS`` rows), rebuild
the replay memory, repeat. A session's records are cut from the train pool
when it starts and released before the next one trains, so the run holds
each pool once plus one session's records; followed by the memory's, they
are the session's one training set. The ``replay_baseline`` method
pins every class to a single component and turns off expansion, reduction
and the intra-class/distillation/regularization terms, leaving plain replay
fine-tuning of the same architecture, so the delta against
``domain_aware`` isolates the mixture machinery.

Report JSON is fully deterministic for a fixed config and seed: volatile
metadata (wall clock) goes to train.log instead, which ``log_to`` writes.
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
from .errors import ConfigError
from .memory import select_memory
from .mixture import PREDICT_BLOCK_ROWS, ModelBank, predict_batch, save_snapshot
from .streams import (
    FeatureRecords,
    SynthConfig,
    concat_records,
    generate_synthetic,
    make_splits,
    pair_index,
    read_stream,
)
from .structure import ReductionConfig
from .trainer import LossConfig, ModelState, train_session

METHODS = ("domain_aware", "replay_baseline")
SPLITS = ("NC", "ND", "NCD")


def accuracy(bank: ModelBank, params: BackboneParams, records: FeatureRecords) -> float:
    """Percentage of records whose predicted class matches the label."""
    if len(records) == 0:
        raise ValueError("cannot score an empty pool")
    pred = predict_batch(bank, forward_batch(params, records.x))
    return 100.0 * float(np.mean(pred == records.y))


def forgetting(acc_matrix: list[list[float]]) -> float | None:
    """Mean change of accuracy on the previous session's test set after one more session.

    The mean of ``acc_matrix[i][i-1] - acc_matrix[i-1][i-1]``, where
    ``acc_matrix[i][j]`` is the accuracy of the model after session i on the
    test data introduced at session j (j <= i). It is negative when accuracy
    falls, so a larger value means less forgetting. Undefined (None) with
    fewer than two sessions.
    """
    n = len(acc_matrix)
    if n < 2:
        return None
    return float(
        np.mean([acc_matrix[i][i - 1] - acc_matrix[i - 1][i - 1] for i in range(1, n)])
    )


def purity(y: np.ndarray, z: np.ndarray, domains: np.ndarray) -> float | None:
    """Majority-domain fraction per component, size-weighted within each class,
    averaged over classes; None when any domain is hidden (negative). Raises
    ValueError unless the three arrays are nonempty and of one length."""
    y = np.asarray(y)
    z = np.asarray(z)
    domains = np.asarray(domains)
    if not len(y) == len(z) == len(domains) > 0:
        raise ValueError(f"need nonempty arrays of one length, got {len(y)}, {len(z)} and {len(domains)}")
    if np.any(domains < 0):
        return None
    values = []
    for c in sorted(np.unique(y).tolist()):
        rows = np.flatnonzero(y == c)
        majority = 0
        for k in sorted(np.unique(z[rows]).tolist()):
            # counts per distinct domain: sized by the records, not by the largest label
            _, counts = np.unique(domains[rows[z[rows] == k]], return_counts=True)
            majority += int(np.max(counts))
        values.append(majority / rows.size)
    return float(np.mean(values))


@dataclass
class RunConfig:
    """Everything a benchmark run depends on; echoed verbatim into the report.

    A config file sets each plain field from the [run] key of the same name,
    unless the field's metadata names another section or key, and each
    nested dataclass from its section in ``_SECTIONS``.
    """

    method: str = field(default="domain_aware", metadata={"choices": METHODS})
    split: str = field(default="ND", metadata={"choices": SPLITS})
    sessions: int | None = field(default=None, metadata={"range": "[1, inf)"})  # ND: the grid's domain count
    # at most 2**63 - 1: memory selection splits it into int64 quota arrays
    memory_budget: int = field(default=120, metadata={"range": "[1, 9223372036854775807]"})
    # model.vmfb stores kappa as float32, so its bound is the float32 maximum
    kappa: float = field(default=16.0, metadata={"range": "[0, 3.4028234663852886e+38]"})
    seed: int = field(default=1993, metadata={"range": "[0, inf)"})
    hidden_dim: int = field(default=64, metadata={"range": "[0, inf)"})
    embed_dim: int | None = field(default=None, metadata={"range": "[2, inf)"})  # None -> input dimension
    loss: LossConfig = field(default_factory=LossConfig)
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    m: int = field(default=30, metadata={"section": "structure", "range": "[1, inf)"})
    synth: SynthConfig | None = None
    train_path: str | None = field(default=None, metadata={"section": "data", "key": "train"})
    test_path: str | None = field(default=None, metadata={"section": "data", "key": "test"})

    def validate(self):
        """Check the declared rule of every key, in each section, then the rules that tie keys together."""
        for attr, _ in _SECTIONS.values():
            owner = self if attr is None else getattr(self, attr)
            if owner is not None:
                cfgfile.check_ranges(owner)
        file_source = self.train_path is not None or self.test_path is not None
        if (self.synth is None) == (not file_source):
            raise ConfigError("exactly one data source required: [synth] or [data]")
        if file_source:
            if self.train_path is None or self.test_path is None:
                raise ConfigError("[data] needs both train and test paths")
            for p in (self.train_path, self.test_path):
                if not os.path.isfile(p):
                    raise ConfigError(f"referenced file does not exist: {p}")

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


def _str_keys(value):
    """``value`` with the keys of every dict in it, at any depth, made strings (JSON's keys)."""
    if isinstance(value, dict):
        return {str(k): _str_keys(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_str_keys(v) for v in value]
    return value


@dataclass
class SessionReport:
    """Deterministic per-run metrics; ``to_dict`` is the JSON contract."""

    seed: int
    session_seeds: list[int]
    config_echo: dict
    per_session_acc: list[float] = field(default_factory=list)
    avg_inc_acc: float = 0.0
    final_acc: float = 0.0
    forgetting: float | None = None
    purity_per_session: list[float | None] = field(default_factory=list)
    components_per_class: dict[int, int] = field(default_factory=dict)
    components_per_class_history: list[dict[int, int]] = field(default_factory=list)
    per_class_domain_acc: dict[int, dict[int, float]] = field(default_factory=dict)  # the last session's
    acc_matrix: list[list[float]] = field(default_factory=list)
    memory_class_counts: list[dict[int, int]] = field(default_factory=list)
    memory_component_counts: list[dict[int, list[int]]] = field(default_factory=list)
    incomplete: bool = True

    def finish(self):
        """Set the summary fields from the per-session lists, each guarded by its own list."""
        acc, history = self.per_session_acc, self.components_per_class_history
        self.avg_inc_acc = float(np.mean(acc)) if acc else 0.0
        self.final_acc = acc[-1] if acc else 0.0
        self.forgetting = forgetting(self.acc_matrix)
        self.components_per_class = history[-1] if history else {}

    def to_dict(self) -> dict:
        return {f.name: _str_keys(getattr(self, f.name)) for f in fields(self)}

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


# every train.log line: one event, its values rendered by the format of its kind
LOG_LINES = {
    "session": "session={t} pairs={pairs} n={n}",
    "epoch": "epoch={epoch} lambda={lam:.6f} lr={lr:.6g} clf={clf:.6f} dis={dis:.6f} reg={reg:.6f} "
             "total={total:.6f}",
    "reduce": "reduce class={class_id} k_before={k_before} k_after={k_after} merge_map={merge_map}",
    "wall_clock": "wall_clock_sec={sec:.3f}",
}


def log_to(fh):
    """An ``emit(kind, **values)`` callable that writes each event to ``fh`` as its train.log line."""
    return lambda kind, **values: fh.write(LOG_LINES[kind].format(**values) + "\n")


def seen_accuracies(
    bank: ModelBank, params: BackboneParams, test_pool: FeatureRecords, test_index, sessions
) -> tuple[list[float], float, dict[int, dict[int, float]]]:
    """Accuracies on the test records of the (class, domain) pairs of ``sessions``.

    Returns the accuracy on each session's pairs (one ``acc_matrix`` row),
    on all of them, and on each pair that has test records. ``test_index`` is
    ``pair_index(test_pool)``; one gather through it gives each record's
    position among the seen pairs. Every record is forwarded and predicted
    once, in blocks of ``PREDICT_BLOCK_ROWS`` rows, so the features held at
    any time are one block's, however many records have been seen. Each
    entry is 100 * hits / records of integer counts, so it equals
    ``accuracy`` on the same records bit for bit; a pair listed twice counts
    once.
    """
    pairs = sorted({p for s in sessions for p in s})
    index = {p: i for i, p in enumerate(pairs)}
    test_pairs, test_codes = test_index
    codes = np.array([index.get(p, -1) for p in test_pairs], dtype=np.int64)[test_codes]
    rows = np.flatnonzero(codes >= 0)
    pred = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), PREDICT_BLOCK_ROWS):
        block = rows[lo : lo + PREDICT_BLOCK_ROWS]
        pred[lo : lo + len(block)] = predict_batch(bank, forward_batch(params, test_pool.x[block]))
    codes = codes[rows]
    totals = np.bincount(codes, minlength=len(pairs))
    hits = np.bincount(codes[pred == test_pool.y[rows]], minlength=len(pairs))

    def percent(idx) -> float:
        n = int(totals[idx].sum())
        if n == 0:
            raise ValueError("cannot score an empty pool")
        return 100.0 * (int(hits[idx].sum()) / n)

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
        if len(train_pool) == 0:
            raise ConfigError(f"train stream {cfg.train_path} has no records")
    input_dim = train_pool.dim
    embed_dim = cfg.embed_dim or input_dim
    if input_dim < 1 or embed_dim < 2:
        raise ConfigError(
            f"input dimension must be at least 1 and embed_dim at least 2, got {input_dim} and {embed_dim}"
        )

    master = np.random.default_rng(cfg.seed)
    split_seed, init_seed = master.integers(0, 2**63, size=2).tolist()
    plan, rows = make_splits(train_pool, cfg.split, cfg.sessions, split_seed)  # checks the count
    session_seeds, memory_seeds = master.integers(0, 2**63, size=(2, len(rows))).tolist()
    test_index = pair_index(test_pool)
    test_pairs = set(test_index[0])
    for t, pairs in enumerate(plan.sessions):
        if test_pairs.isdisjoint(pairs):
            raise ConfigError(f"session {t} has no test records for any of its pairs {pairs}")

    # the replay baseline: the inter-class term only, no reduction, and one component
    # per class, which only the first session that brings the class expands (see below)
    baseline = cfg.method == "replay_baseline"
    loss_cfg = replace(cfg.loss, lambda_max=0.0, beta=0.0, eta=0.0) if baseline else cfg.loss
    reduction, m = (None, 1) if baseline else (cfg.reduction, cfg.m)

    state = ModelState(
        init_params(input_dim, embed_dim, cfg.hidden_dim, np.random.default_rng(init_seed)),
        ModelBank(embed_dim, cfg.kappa),
    )
    memory = None
    report = SessionReport(seed=cfg.seed, session_seeds=session_seeds, config_echo=cfg.echo())

    log = emit = None
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for name in ("report.json", "model.vmfb"):  # written after the last session
                path = os.path.join(out_dir, name)
                if os.path.isdir(path):
                    raise ConfigError(f"cannot write {path}: it is a directory")
            log = open(os.path.join(out_dir, "train.log"), "w", encoding="utf-8")
            emit = log_to(log)
        except OSError as e:
            raise ConfigError(f"cannot write the output directory {out_dir}: {e}") from None

    try:
        for t in range(len(rows)):
            session = train_pool.subset(rows[t])  # only the current session's records are held
            data = session if memory is None else concat_records(session, memory.records)
            expand = np.setdiff1d(session.y, state.bank.class_ids) if baseline else np.unique(session.y)
            if emit is not None:
                emit("session", t=t, pairs=plan.sessions[t], n=len(session))
            state, z = train_session(
                state, data, expand, m=m, loss=loss_cfg, reduction=reduction, seed=session_seeds[t], emit=emit
            )

            row, seen_acc, class_domain_acc = seen_accuracies(
                state.bank, state.params, test_pool, test_index, plan.sessions[: t + 1]
            )
            report.acc_matrix.append(row)
            report.per_session_acc.append(seen_acc)

            report.purity_per_session.append(purity(data.y, z, data.domain))

            memory = select_memory(
                state.bank, data, z, cfg.memory_budget, np.random.default_rng(memory_seeds[t])
            )
            report.components_per_class_history.append(dict(zip(state.bank.class_ids, state.bank.sizes.tolist())))
            report.memory_class_counts.append(memory.class_counts())
            report.memory_component_counts.append(memory.component_counts())
            del session, data  # the memory keeps its own copy of what it selected
        report.per_class_domain_acc = class_domain_acc
        report.incomplete = False
    finally:
        report.finish()
        if log is not None:
            emit("wall_clock", sec=time.perf_counter() - t_start)
            log.close()
        if out_dir is not None:
            path = os.path.join(out_dir, "report.json")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
                if not report.incomplete:
                    path = os.path.join(out_dir, "model.vmfb")
                    save_snapshot(path, state.bank, state.params.layers)
            except OSError as e:
                if not report.incomplete:  # a failed run raises its own error instead
                    raise ConfigError(f"cannot write {path}: {e}") from None

    return RunResult(report, state, plan, train_pool, test_pool)
