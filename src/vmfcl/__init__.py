"""Continual learning with per-class von Mises-Fisher mixtures.

Hard-EM training of a small feature backbone plus one vMF mixture per class,
with session-wise component expansion and reduction, intra-class
distillation, and a class/component-balanced replay memory.
"""

from .backbone import BackboneParams, Gradient, init_params, loss_and_grad, sgd_step
from .bench import (
    RunConfig,
    SessionReport,
    accuracy,
    forgetting,
    load_run_config,
    purity,
    run_experiment_full,
)
from .memory import MemoryBuffer, select_memory
from .mixture import (
    ClassMixture,
    ModelBank,
    save_snapshot,
)
from .streams import (
    FeatureRecords,
    SplitPlan,
    SynthConfig,
    generate_synthetic,
    make_splits,
    read_stream,
    sample_vmf,
    write_stream,
)
from .structure import ReductionConfig, collect_stats, expand, merge_pair, reduce
from .trainer import (
    _e_step_array as e_step,
    LossConfig,
    clf_loss,
    distill_loss,
    lambda_at,
    reg_loss,
    train_session,
)
from .vmf import normalize

__all__ = [
    "BackboneParams", "Gradient", "init_params", "loss_and_grad", "sgd_step",
    "RunConfig", "SessionReport", "accuracy", "forgetting", "load_run_config", "purity",
    "run_experiment_full",
    "MemoryBuffer", "select_memory",
    "ClassMixture", "ModelBank",
    "save_snapshot",
    "FeatureRecords", "SplitPlan", "SynthConfig", "generate_synthetic",
    "make_splits", "read_stream", "sample_vmf", "write_stream",
    "ReductionConfig", "collect_stats", "expand", "merge_pair", "reduce",
    "LossConfig", "clf_loss", "distill_loss",
    "e_step", "lambda_at", "reg_loss", "train_session",
    "normalize",
]

__version__ = "0.1.0"
