"""Spans and counters around the module attributes each vmfcl caller looks up.

Nothing under ``src/`` is instrumented. ``traced(tracer)`` replaces, for the
duration of a ``with`` block, every attribute named in ``PATCHES`` by a
wrapper that records a span (name, start, end, parent span, run id) and
updates the layer's counters, then puts every original back, also when the
block raises. Spans stay in memory and are written out when the benchmark
run ends.

The patch sites are the names the callers resolve at call time: the trainer
reaches the backbone through ``vmfcl.backbone.loss_and_grad``, while
``run_experiment_full`` reaches memory selection through the name it
imported, ``vmfcl.bench.select_memory``. Where one function is looked up in
two places, both sites map to one span name. A site that no longer exists
raises AttributeError when the wrappers are installed, so a rename in the
package fails the traced run instead of silently dropping a layer.

Every layer runs on the caller's thread and none has a queue, so there is
no waiting time to measure; only busy (self) time and work counts exist.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int


@dataclass
class Tracer:
    """In-memory span log plus per-layer counters for one benchmark run."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _last_e_step: dict[int, tuple] = field(default_factory=dict)

    def count(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return wrapper

    def reset(self):
        """Drop the spans and counters of the previous protocol run set."""
        self.spans.clear()
        self.counts.clear()
        self._last_e_step.clear()


# -- counters, called after the wrapped call returns --------------------------


def _total_components(bank) -> int:
    return sum(m.num_components for m in bank.mixtures.values())


def _count_loss_and_grad(tr: Tracer, parent, args, result):
    bank = args[1]
    tr.count("backbone.loss_and_grad.examples", len(args[2]))
    tr.count("backbone.loss_and_grad.class_terms", len(bank.mixtures))
    tr.count("backbone.loss_and_grad.component_terms", _total_components(bank))


def _count_forward(tr: Tracer, parent, args, result):
    tr.count("backbone.forward_batch.examples", np.shape(args[1])[0])


def _count_e_step(tr: Tracer, parent, args, z):
    """Churn compares E-steps of one session whose banks have the same shape.

    The E-step after reduction sees renumbered components, so it starts a
    new comparison chain instead of counting as churn.
    """
    bank = args[0]
    tr.count("trainer.e_step.examples", len(z))
    shape = tuple(bank.mixtures[c].num_components for c in bank.class_ids)
    prev = tr._last_e_step.get(parent)
    if prev is not None and prev[0] == shape and prev[1].shape == z.shape:
        tr.count("trainer.e_step.changed", int(np.count_nonzero(prev[1] != z)))
        tr.count("trainer.e_step.compared", len(z))
    tr._last_e_step[parent] = (shape, np.array(z, copy=True))


def _count_reduce(tr: Tracer, parent, args, result):
    tr.count("structure.components_trained", _total_components(args[0]))
    tr.count("structure.components_kept", _total_components(result[0]))


def _count_select_memory(tr: Tracer, parent, args, buf):
    tr.count("memory.select_memory.selected", len(buf))
    counts = list(buf.class_counts().values())
    spread = max(counts) - min(counts) if counts else 0
    tr.counts["memory.class_spread"] = max(tr.counts.get("memory.class_spread", 0), spread)


def _count_accuracy(tr: Tracer, parent, args, result):
    tr.count("bench.accuracy.examples", len(args[2]))


def _count_predict(tr: Tracer, parent, args, result):
    tr.count("mixture.predict_batch.examples", np.shape(args[1])[0])


def _count_file_bytes(layer):
    def hook(tr: Tracer, parent, args, result):
        tr.count(f"{layer}.bytes", os.path.getsize(args[0]))

    return hook


# Counters that read 0 when their layer is never reached in a workload.
COUNTERS = (
    "backbone.loss_and_grad.examples", "backbone.loss_and_grad.class_terms",
    "backbone.loss_and_grad.component_terms", "backbone.forward_batch.examples",
    "trainer.e_step.examples", "mixture.predict_batch.examples", "bench.accuracy.examples",
    "memory.select_memory.selected", "memory.class_spread", "mixture.save_snapshot.bytes",
    "streams.read_stream.bytes", "structure.components_trained", "structure.components_kept",
)

# (module, attribute, span name, counter hook)
PATCHES = [
    ("vmfcl.bench", "run_experiment_full", "bench.run_experiment_full", None),
    ("vmfcl.bench", "generate_synthetic", "streams.generate_synthetic", None),
    ("vmfcl.bench", "read_stream", "streams.read_stream", _count_file_bytes("streams.read_stream")),
    ("vmfcl.bench", "make_splits", "streams.make_splits", None),
    ("vmfcl.bench", "train_session", "trainer.train_session", None),
    ("vmfcl.bench", "accuracy", "bench.accuracy", _count_accuracy),
    ("vmfcl.bench", "purity", "bench.purity", None),
    ("vmfcl.bench", "predict_batch", "mixture.predict_batch", _count_predict),
    ("vmfcl.bench", "forward_batch", "backbone.forward_batch", _count_forward),
    ("vmfcl.bench", "select_memory", "memory.select_memory", _count_select_memory),
    ("vmfcl.bench", "save_snapshot", "mixture.save_snapshot", _count_file_bytes("mixture.save_snapshot")),
    ("vmfcl.trainer", "_e_step_array", "trainer.e_step", _count_e_step),
    ("vmfcl.trainer", "_old_log_posteriors", "trainer.teacher", None),
    ("vmfcl.trainer", "clf_loss", "trainer.log_recompute", None),
    ("vmfcl.trainer", "distill_loss", "trainer.log_recompute", None),
    ("vmfcl.trainer", "reg_loss", "trainer.log_recompute", None),
    ("vmfcl.backbone", "loss_and_grad", "backbone.loss_and_grad", _count_loss_and_grad),
    ("vmfcl.backbone", "sgd_step", "backbone.sgd_step", None),
    ("vmfcl.backbone", "forward_batch", "backbone.forward_batch", _count_forward),
    ("vmfcl.structure", "expand", "structure.expand", None),
    ("vmfcl.structure", "collect_stats", "structure.collect_stats", None),
    ("vmfcl.structure", "reduce", "structure.reduce", _count_reduce),
    ("vmfcl.mixture", "assign_components_batch", "mixture.assign_components_batch", None),
]


@contextlib.contextmanager
def traced(tracer: Tracer, patches=PATCHES):
    """Install the wrappers for the block; every original is restored after."""
    saved = []
    try:
        for module_name, attr, name, hook in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- arithmetic over the span tree ---------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since the last reset.

    ``wall_s`` is the harness-measured time of the same protocol runs; what
    no span covers is reported as ``trace.unaccounted_s``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    out.update(tracer.counts)
    for name in {name for _, _, name, _ in PATCHES}:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("backbone.loss_and_grad", "backbone.sgd_step"):
        n = calls.get(name, 0)
        out[f"{name}.us_per_call"] = 1e6 * self_s.get(name, 0.0) / n if n else 0.0
    compared = out.pop("trainer.e_step.compared", 0)
    changed = out.pop("trainer.e_step.changed", 0)
    out["trainer.e_step.churn"] = changed / compared if compared else 0.0
    trained = out["structure.components_trained"]
    out["structure.kept_ratio"] = out["structure.components_kept"] / trained if trained else 0.0
    out["trace.unaccounted_s"] = wall_s - sum(self_s.values())
    return out
