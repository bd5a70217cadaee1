"""Continual learning with per-class von Mises-Fisher mixtures.

Hard-EM training of a small feature backbone plus one vMF mixture per class,
with session-wise component expansion and reduction, intra-class
distillation, and a class/component-balanced replay memory.
"""

from .backbone import BackboneParams, Gradient, forward, init_params, loss_and_grad, sgd_step
from .bench import (
    RunConfig,
    SessionReport,
    accuracy,
    forgetting,
    load_run_config,
    purity,
    run_experiment,
)
from .memory import MemoryBuffer, select_memory
from .mixture import (
    ClassMixture,
    ModelBank,
    assign_component,
    class_posterior,
    component_posterior,
    load_snapshot,
    predict,
    save_snapshot,
)
from .streams import (
    FeatureRecords,
    SessionDataset,
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
    ModelState,
    TrainConfig,
    clf_loss,
    distill_loss,
    lambda_at,
    overall_loss,
    reg_loss,
    train_session,
)
from .vmf import normalize

__all__ = [
    "BackboneParams", "Gradient", "forward", "init_params", "loss_and_grad", "sgd_step",
    "RunConfig", "SessionReport", "accuracy", "forgetting", "load_run_config", "purity",
    "run_experiment",
    "MemoryBuffer", "select_memory",
    "ClassMixture", "ModelBank", "assign_component", "class_posterior", "component_posterior",
    "load_snapshot", "predict", "save_snapshot",
    "FeatureRecords", "SessionDataset", "SplitPlan", "SynthConfig", "generate_synthetic",
    "make_splits", "read_stream", "sample_vmf", "write_stream",
    "ReductionConfig", "collect_stats", "expand", "merge_pair", "reduce",
    "LossConfig", "ModelState", "TrainConfig", "clf_loss", "distill_loss",
    "e_step", "lambda_at", "overall_loss", "reg_loss", "train_session",
    "normalize",
]

__version__ = "0.1.0"
